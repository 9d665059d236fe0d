(* Instrumentation the benchmark puts around public calls, never inside
   the library: host time spent inside a call's own fiber, a record of
   every client file-system call, the engine's per-event-kind profile
   folded into layers, and GC pauses read through Runtime_events. *)

open Linefs

(* Nanosecond monotonic clock, in seconds: client calls last about a
   microsecond, the resolution of [Unix.gettimeofday]. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Host seconds spent running [f] itself, excluding the time it sits
   suspended in the engine: every effect [f] performs is forwarded to
   the engine's handler with the timer stopped.  Forwarding never
   schedules anything, so simulated results are unchanged. *)
let host_time f =
  let acc = ref 0.0 in
  let t0 = ref (clock ()) in
  let stop () = acc := !acc +. (clock () -. !t0) in
  let r =
    Effect.Deep.match_with f ()
      {
        retc = (fun v -> stop (); Ok v);
        exnc = (fun e -> stop (); Error e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                stop ();
                let v = Effect.perform eff in
                t0 := clock ();
                Effect.Deep.continue k v));
      }
  in
  (r, !acc)

let get = function Ok v -> v | Error e -> raise e

(* ------------------------------------------------------------------ *)
(* Event kinds to layers                                               *)
(* ------------------------------------------------------------------ *)

(* Engine event kinds are process names with digits removed.  First
   matching prefix wins; anything unmatched lands in "unmapped". *)
let layer_rules =
  [
    ("shared.c.fetching", "nicfs.fetch");
    ("shared.c.validation", "nicfs.validation");
    ("pub.c.publication", "nicfs.publication");
    ("repl.c.compression", "nicfs.compression");
    ("nicfs.compress-seg", "nicfs.compression");
    ("repl.c.transfer", "nicfs.transfer");
    ("nicfs.repl-ship", "nicfs.transfer");
    ("nicfs", "nicfs.other");
    (* LineFS-NotParallel runs every stage in one sequential worker. *)
    ("seq.c", "nicfs.other");
    ("kworker", "kworker");
    ("kw.", "kworker");
    ("lease", "lease");
    ("assise", "assise");
    ("hyperloop", "assise");
    ("streamcluster", "antagonist");
    ("iperf", "antagonist");
    ("hb.client", "workload");
    ("hb.group", "workload");
    ("tsort.", "workload");
    ("metastorm.", "workload");
    ("root", "root");
    ("deploy.", "root");
  ]

let layers =
  [
    "workload"; "root"; "antagonist"; "nicfs.fetch"; "nicfs.validation";
    "nicfs.publication"; "nicfs.compression"; "nicfs.transfer"; "nicfs.other";
    "kworker"; "lease"; "assise"; "unmapped";
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let strip_digits s =
  String.to_seq s |> Seq.filter (fun c -> c < '0' || c > '9') |> String.of_seq

let layer_of_kind kind =
  match List.find_opt (fun (p, _) -> starts_with ~prefix:p kind) layer_rules with
  | Some (_, l) -> l
  | None -> "unmapped"

(* ------------------------------------------------------------------ *)
(* Client file-system calls                                            *)
(* ------------------------------------------------------------------ *)

type kind =
  | Create | Open | Close | Write | Append | Read | Fsync | Mkdir | Unlink
  | Rename | Stat

let kind_index = function
  | Create -> 0 | Open -> 1 | Close -> 2 | Write -> 3 | Append -> 4
  | Read -> 5 | Fsync -> 6 | Mkdir -> 7 | Unlink -> 8 | Rename -> 9
  | Stat -> 10

let kind_names =
  [| "create"; "open"; "close"; "write"; "append"; "read"; "fsync"; "mkdir";
     "unlink"; "rename"; "stat" |]

(* One cell's calls.  A cell runs on one engine, so its record is
   never shared across domains.  Spans are kept only when traced:
   [ints] holds (client, seq, kind, sim start, sim duration) per span,
   [self] the host seconds spent inside the call. *)
type calls = {
  cell : int;
  traced : bool;
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable lat : int;  (** hash of (kind, virtual latency) in completion order *)
  mutable n : int;
  mutable ints : int array;
  mutable self : Float.Array.t;
  client_by_layer : (string, float ref) Hashtbl.t;
      (** host seconds inside calls, by the layer of the calling process *)
}

let calls ~traced cell =
  {
    cell;
    traced;
    attempted = 0;
    completed = 0;
    failed = 0;
    lat = 0;
    n = 0;
    ints = [||];
    self = Float.Array.create 0;
    client_by_layer = Hashtbl.create 4;
  }

let ni = 5

let push_span c ~client ~seq ~kind ~s0 ~sdur ~self =
  if c.n = Float.Array.length c.self then begin
    let cap = max 1024 (2 * c.n) in
    let ints = Array.make (cap * ni) 0 in
    Array.blit c.ints 0 ints 0 (c.n * ni);
    let selfs = Float.Array.make cap 0.0 in
    Float.Array.blit c.self 0 selfs 0 c.n;
    c.ints <- ints;
    c.self <- selfs
  end;
  let i = c.n * ni in
  c.ints.(i) <- client;
  c.ints.(i + 1) <- seq;
  c.ints.(i + 2) <- kind_index kind;
  c.ints.(i + 3) <- s0;
  c.ints.(i + 4) <- sdur;
  Float.Array.set c.self c.n self;
  c.n <- c.n + 1

let mix h x = ((h lxor x) * 0x100000001b3) land max_int

(* Unlinking a name that is not there is how workloads say "remove if
   present"; every other error a call raises counts as a failure. *)
let is_failure kind = function
  | Dfs_intf.Fs_error (Storage.Fs_state.Enoent, _) when kind = Unlink -> false
  | _ -> true

let call c ~client kind f =
  c.attempted <- c.attempted + 1;
  let seq = c.attempted in
  let s0 = Sim.Engine.now () in
  let r, self =
    if c.traced then host_time f
    else ((try Ok (f ()) with e -> Error e), 0.0)
  in
  let sdur = Sim.Engine.now () - s0 in
  c.completed <- c.completed + 1;
  c.lat <- mix c.lat ((sdur lsl 4) lor kind_index kind);
  (match r with Error e when is_failure kind e -> c.failed <- c.failed + 1 | _ -> ());
  if c.traced then begin
    push_span c ~client ~seq ~kind ~s0 ~sdur ~self;
    let layer = layer_of_kind (strip_digits (Sim.Engine.process_name ())) in
    (match Hashtbl.find_opt c.client_by_layer layer with
    | Some acc -> acc := !acc +. self
    | None -> Hashtbl.add c.client_by_layer layer (ref self))
  end;
  get r

let wrap c ~client (o : Dfs_intf.ops) : Dfs_intf.ops =
  let call k f = call c ~client k f in
  {
    o with
    create = (fun p -> call Create (fun () -> o.create p));
    open_file = (fun p -> call Open (fun () -> o.open_file p));
    close = (fun fd -> call Close (fun () -> o.close fd));
    write = (fun fd ~pos d -> call Write (fun () -> o.write fd ~pos d));
    append = (fun fd d -> call Append (fun () -> o.append fd d));
    read = (fun fd ~pos ~len -> call Read (fun () -> o.read fd ~pos ~len));
    fsync = (fun fd -> call Fsync (fun () -> o.fsync fd));
    mkdir = (fun p -> call Mkdir (fun () -> o.mkdir p));
    unlink = (fun p -> call Unlink (fun () -> o.unlink p));
    rename = (fun a b -> call Rename (fun () -> o.rename a b));
    file_size = (fun p -> call Stat (fun () -> o.file_size p));
  }

(* ------------------------------------------------------------------ *)
(* GC pauses                                                           *)
(* ------------------------------------------------------------------ *)

(* Seconds spent in minor collections and major slices, summed over
   domains, counting only the outermost of nested phases.  Returns
   [poll], which drains the rings, and [read], which drains them a last
   time and gives the total and the number of lost events.  The rings
   live in a file of 128 domain rings, so run.py keeps them small enough
   for the process's file-size limit and the rep must [poll] while it
   runs.  [poll] may be called from any domain; it skips when another
   domain is draining. *)
let gc_pauses () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let depth = Hashtbl.create 4 in
  let total = ref 0L and lost = ref 0 in
  let pause = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false
  in
  let ns ts = Runtime_events.Timestamp.to_int64 ts in
  let runtime_begin ring ts phase =
    if pause phase then
      match Hashtbl.find_opt depth ring with
      | Some (d, t0) -> Hashtbl.replace depth ring (d + 1, t0)
      | None -> Hashtbl.replace depth ring (1, ns ts)
  in
  let runtime_end ring ts phase =
    if pause phase then
      match Hashtbl.find_opt depth ring with
      | Some (1, t0) ->
          total := Int64.add !total (Int64.sub (ns ts) t0);
          Hashtbl.remove depth ring
      | Some (d, t0) -> Hashtbl.replace depth ring (d - 1, t0)
      | None -> ()
  in
  let cb =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let mu = Mutex.create () in
  let drain () = ignore (Runtime_events.read_poll cursor cb None : int) in
  let poll () =
    if Mutex.try_lock mu then Fun.protect ~finally:(fun () -> Mutex.unlock mu) drain
  in
  let read () =
    Mutex.protect mu drain;
    (Int64.to_float !total /. 1e9, !lost)
  in
  (poll, read)

(* [clock] that also calls [poll] every 1024 readings; the engine reads
   its profile clock twice per event.  Domains share the counter
   without a lock: a lost increment only delays a poll. *)
let polling_clock poll =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n land 1023 = 0 then poll ();
    clock ()
