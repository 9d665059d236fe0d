open Effect
open Effect.Deep

(* A process group: every process carries an optional group tag,
   inherited by everything it spawns and by its own re-schedulings.
   Killing a group discards all of its pending events at pop time, so a
   whole subsystem (e.g. a simulated node) can be torn down atomically
   at a point in virtual time — the fault-injection "kill switch". *)
type group = { gname : string; mutable killed : bool }

(* What an event does when it fires.  The overwhelmingly common case —
   resuming a parked process — carries the continuation and its value
   directly as an unboxed-field variant instead of a closure, so a
   sleep/yield/wake costs one small block rather than a closure that
   captures the continuation plus a record pointing at it.  [Fn]
   remains for the cold cases (process start, timeout guards) where
   real code must run. *)
type payload =
  | Fn of (unit -> unit)
  | Resume : ('a, unit) continuation * 'a -> payload

type event = { name : string; group : group option; payload : payload }

type t = {
  mutable now : Time.t;
  mutable seq : int;
  mutable events : event Heap.t;
  mutable stopped : bool;
  mutable current_name : string;
  mutable current_group : group option;
  mutable live : int;
  mutable executed : int;
  rng : Rng.t;
  (* Engine-local storage (see {!Local}): how process-global hooks
     (fault injection, observers, counters) become per-shard state in
     sharded runs without any cross-domain sharing. *)
  locals : (int, Obj.t) Hashtbl.t;
}

(* The engine currently executing on this domain, set for the duration
   of [run]/[run_until].  Domain-local, so every shard of a parallel
   window sees its own engine.  This is deliberately not an effect:
   it must also be readable from [exec_event]-adjacent code running
   outside the effect handler (e.g. wakers). *)
let current_slot : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get current_slot)

(* Process-wide tally across every engine, for wall-clock throughput
   reporting (events per real second) in the bench harness.  Atomic:
   engines on different domains (sharded runs, parallel bench tasks)
   all add to it, once per run call rather than once per event, so
   two domains do not contend for its cache line on every event. *)
let total_executed = Atomic.make 0

(* Run [f] with [t] as this domain's current engine, and add the events
   it executes to [total_executed] on the way out, even when [f]
   raises. *)
let with_current t f =
  let slot = Domain.DLS.get current_slot in
  let prev = !slot in
  let executed0 = t.executed in
  slot := Some t;
  Fun.protect
    ~finally:(fun () ->
      slot := prev;
      ignore (Atomic.fetch_and_add total_executed (t.executed - executed0)))
    f

module Local = struct
  (* Typed keys into an engine's [locals] table, in the style of
     [Domain.DLS]: the key is just an int; type safety comes from the
     phantom parameter being fixed at [key ()] time and the table being
     written only through [set]. *)
  type 'a key = int

  let next_key = Atomic.make 0
  let key () = Atomic.fetch_and_add next_key 1

  let get (t : t) (k : 'a key) : 'a option =
    match Hashtbl.find_opt t.locals k with
    | Some v -> Some (Obj.obj v)
    | None -> None

  let set (t : t) (k : 'a key) (v : 'a) = Hashtbl.replace t.locals k (Obj.repr v)
  let remove (t : t) (k : 'a key) = Hashtbl.remove t.locals k
end

(* ---- per-event-kind wall-clock profile (bench-only; off by default) *)

type prof_cell = {
  mutable p_count : int;
  mutable p_secs : float;
  mutable p_words : float; (* minor words allocated inside the events *)
}

let prof_table : (string, prof_cell) Hashtbl.t = Hashtbl.create 64
let prof_enabled = ref false

(* Profiling is bench-only, so a plain mutex around the table is fine
   even when shards on several domains record concurrently. *)
let prof_mu = Mutex.create ()

(* The sim library takes no unix dependency: the harness installs a
   real-time clock ([Unix.gettimeofday]); the default is CPU time. *)
let prof_clock = ref Sys.time
let profile_set_clock f = prof_clock := f
let profile_enable b = prof_enabled := b
let profile_reset () = Mutex.protect prof_mu (fun () -> Hashtbl.reset prof_table)

(* Bucket key: the event name with digit runs removed, so per-instance
   names ("bench.client12", "nicfs1.worker3") collapse into kinds. *)
let prof_key name =
  let n = String.length name in
  let b = Bytes.create n in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get name i in
    if not (c >= '0' && c <= '9') then begin
      Bytes.unsafe_set b !j c;
      incr j
    end
  done;
  Bytes.sub_string b 0 !j

let prof_record name secs words =
  let key = prof_key name in
  Mutex.protect prof_mu (fun () ->
      match Hashtbl.find_opt prof_table key with
      | Some c ->
          c.p_count <- c.p_count + 1;
          c.p_secs <- c.p_secs +. secs;
          c.p_words <- c.p_words +. words
      | None ->
          Hashtbl.add prof_table key
            { p_count = 1; p_secs = secs; p_words = words })

(* (kind, count, seconds, minor words), hottest first. *)
let profile_snapshot () =
  Mutex.protect prof_mu (fun () ->
      Hashtbl.fold
        (fun k c acc -> (k, c.p_count, c.p_secs, c.p_words) :: acc)
        prof_table [])
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

exception Process_failure of string * exn
exception Not_in_process

let () =
  Printexc.register_printer (function
    | Process_failure (name, e) ->
        Some
          (Printf.sprintf "Process_failure(%S, %s)" name (Printexc.to_string e))
    | _ -> None)

let create ?(seed = 42) () =
  {
    now = 0;
    seq = 0;
    events = Heap.create ();
    stopped = false;
    current_name = "<none>";
    current_group = None;
    live = 0;
    executed = 0;
    rng = Rng.create seed;
    locals = Hashtbl.create 8;
  }

let rng t = t.rng
let current_time t = t.now
let events_executed t = t.executed
let global_events_executed () = Atomic.get total_executed

let make_group name = { gname = name; killed = false }
let kill g = g.killed <- true
let group_killed g = g.killed
let group_name g = g.gname

(* [group] is taken verbatim: [None] means "no group", not "inherit".
   Inheritance decisions happen at the effect handlers, which capture
   the performer's group at suspension time — a later fallback to
   [t.current_group] here would run in the *waker's* context and tag a
   groupless process's resumption with whatever group happened to wake
   it (and a subsequent kill of that group would then drop an innocent
   bystander's continuation). *)
let schedule_payload ?group t ~at ~name payload =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  Heap.push t.events ~key:at ~seq:t.seq { name; group; payload }

let schedule ?group t ~at ~name fn =
  schedule_payload ?group t ~at ~name (Fn fn)

(* Effects performed by processes; each engine installs a deep handler
   around every process it runs, so the handler below closes over [t]. *)
type _ Effect.t +=
  | Now : Time.t Effect.t
  | Sleep : Time.t -> unit Effect.t
  | Yield : unit Effect.t
  | Spawn : string * group option * (unit -> unit) -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Suspend_timeout :
      (('a -> unit) -> unit) * Time.t
      -> 'a option Effect.t
  | Name : string Effect.t

let rec run_process t name f =
  t.live <- t.live + 1;
  match_with f ()
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc =
        (fun e ->
          t.live <- t.live - 1;
          match e with
          | Process_failure _ -> raise e
          | e -> raise (Process_failure (name, e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Now -> Some (fun (k : (a, _) continuation) -> continue k t.now)
          | Name -> Some (fun k -> continue k name)
          | Sleep d ->
              Some
                (fun k ->
                  (* Capture the performer's group: resumptions must stay
                     in it even when scheduled from another process. *)
                  let g = t.current_group in
                  schedule_payload ?group:g t ~at:(t.now + d) ~name
                    (Resume (k, ())))
          | Yield ->
              Some
                (fun k ->
                  let g = t.current_group in
                  schedule_payload ?group:g t ~at:t.now ~name (Resume (k, ())))
          | Spawn (child_name, child_group, g) ->
              Some
                (fun k ->
                  let grp =
                    match child_group with
                    | Some _ as cg -> cg
                    | None -> t.current_group
                  in
                  schedule ?group:grp t ~at:t.now ~name:child_name (fun () ->
                      run_process t child_name g);
                  continue k ())
          | Suspend register ->
              Some
                (fun k ->
                  let g = t.current_group in
                  let fired = ref false in
                  let waker v =
                    if not !fired then begin
                      fired := true;
                      schedule_payload ?group:g t ~at:t.now ~name
                        (Resume (k, v))
                    end
                  in
                  register waker)
          | Suspend_timeout (register, timeout) ->
              Some
                (fun k ->
                  let g = t.current_group in
                  let fired = ref false in
                  let waker v =
                    if not !fired then begin
                      fired := true;
                      schedule_payload ?group:g t ~at:t.now ~name
                        (Resume (k, Some v))
                    end
                  in
                  register waker;
                  (* The timeout guard must test [fired] when it runs,
                     not when it is scheduled, so it stays a closure. *)
                  schedule ?group:g t ~at:(t.now + timeout) ~name (fun () ->
                      if not !fired then begin
                        fired := true;
                        continue k None
                      end))
          | _ -> None);
    }

let spawn_root ?(name = "root") ?group t f =
  schedule ?group t ~at:t.now ~name (fun () -> run_process t name f)

(* Root spawn at an explicit future timestamp: how the sharded runner
   injects cross-shard deliveries into a destination engine between
   windows. *)
let spawn_root_at ?(name = "root") ?group t ~at f =
  schedule ?group t ~at ~name (fun () -> run_process t name f)

let run_payload = function Fn f -> f () | Resume (k, v) -> continue k v

let exec_event t time ev =
  match ev.group with
  | Some g when g.killed ->
      (* The owning group was torn down: the continuation is
         dropped, never resumed. *)
      ()
  | _ ->
      if time > t.now then t.now <- time;
      t.current_name <- ev.name;
      t.current_group <- ev.group;
      t.executed <- t.executed + 1;
      if !prof_enabled then begin
        let w0 = Gc.minor_words () in
        let t0 = !prof_clock () in
        run_payload ev.payload;
        prof_record ev.name
          (!prof_clock () -. t0)
          (Gc.minor_words () -. w0)
      end
      else run_payload ev.payload

let run ?deadline t =
  with_current t @@ fun () ->
  t.stopped <- false;
  let running = ref true in
  while !running && not t.stopped do
    if Heap.is_empty t.events then running := false
    else begin
      let time = Heap.top_key t.events in
      match deadline with
      | Some d when time > d ->
          t.now <- d;
          t.events <- Heap.create ();
          running := false
      | _ -> exec_event t time (Heap.pop_top t.events)
    end
  done

(* Bounded drain for the sharded runner: execute every event strictly
   below [!bound], leave the rest queued, and return the timestamp of
   the next pending event (the shard's contribution to the next global
   synchronization bound).  The bound is re-read before every event, so
   code executed by the events themselves may tighten it mid-window.
   The sharded runner uses this for its adaptive horizon: a shard that
   has sent nothing this window runs unbounded by its own echo, and its
   first cross-shard send drops the bound to the earliest instant a
   consequence of that send could return.  Execution is time-ordered,
   so every event already executed when the bound drops is at or before
   the send time — never beyond the new bound. *)
let run_until t ~bound =
  with_current t @@ fun () ->
  t.stopped <- false;
  let running = ref true in
  while !running && not t.stopped do
    if Heap.is_empty t.events then running := false
    else begin
      let time = Heap.top_key t.events in
      if time < !bound then exec_event t time (Heap.pop_top t.events)
      else running := false
    end
  done;
  Heap.peek_key t.events

let next_event_time t = Heap.peek_key t.events

(* An emptied heap still holds its last popped event, and [Heap.grow]
   filled its spare slots with whatever was being pushed, so a drained
   engine would keep those closures — and through them much of the
   simulation it ran — alive.  Not done on every drain: a queue that
   empties every window would reallocate every window. *)
let release_queue t = if Heap.is_empty t.events then t.events <- Heap.create ()

let fast_forward t ~upto =
  let upto =
    match Heap.peek_key t.events with
    | Some ts -> min upto ts
    | None -> upto
  in
  if upto > t.now then t.now <- upto

let stop t = t.stopped <- true

let wrap_unhandled f =
  try f () with Effect.Unhandled _ -> raise Not_in_process

let now () = wrap_unhandled (fun () -> perform Now)
let sleep d = wrap_unhandled (fun () -> perform (Sleep d))
let yield () = wrap_unhandled (fun () -> perform Yield)

let spawn ?(name = "proc") ?group f =
  wrap_unhandled (fun () -> perform (Spawn (name, group, f)))

let suspend register = wrap_unhandled (fun () -> perform (Suspend register))

let suspend_cancellable register ~timeout =
  wrap_unhandled (fun () -> perform (Suspend_timeout (register, timeout)))

let process_name () = wrap_unhandled (fun () -> perform Name)
