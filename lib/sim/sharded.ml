(* Conservative (Chandy–Misra–Bryant-style) parallel runner over
   multiple engines.

   Each shard owns a private {!Engine.t}; shards interact only through
   declared, latency-carrying edges.  Execution proceeds in windows:
   between windows the runner drains every shard's outbox into the
   destination engines, and each destination runs the messages in a
   canonical order (delivery time, src, per-edge sequence); within a
   window each shard executes only events that nothing another shard
   has yet to do could invalidate, so no rollback is ever needed.

   The window bound is where this runner differs from the textbook
   scheme.  Shard [j]'s horizon has two parts:

   - a {e static} part, computed between windows: the earliest instant
     any {e other} busy shard could cause a delivery at [j] —
     [min over busy b <> j of (next_b + dist b j)], where [dist] is the
     all-pairs shortest-path distance over edge lookaheads (idle shards
     are pure relays: woken at [t], the soonest they can forward is
     [t + lookahead] per hop, which is exactly what the path distance
     sums).  A shard no other busy shard can reach runs unconstrained
     by them.

   - an {e adaptive self} part, discovered while the window runs: the
     only other thing that can deliver to [j] is an echo of [j]'s own
     output, and until [j] actually sends something no such echo
     exists.  So [j] starts the window bounded by the static part
     alone — often infinity — and its first cross-shard send at
     delivery time [a] on edge [j -> k] drops the bound to
     [a + dist k j] (the soonest any consequence can bounce back).
     Execution is time-ordered, so every event already executed when
     the bound drops is at or before the send time, never beyond the
     new bound.  This is the promise-based horizon extension: a busy
     shard facing only quiescent peers runs until its own traffic —
     not a wall-clock lookahead window — closes the horizon, so the
     window rate scales with cross-shard {e messages} rather than
     with elapsed virtual time over lookahead.

   Idle shards still play the null-message role: their clocks ratchet
   to the static bound each window so a later wake-up cannot deliver
   into their past.

   The unit of parallel work is a {e component}: a set of shards
   connected by declared edges (in either direction).  Between
   components [dist] is infinite, so a shard's static bound reads only
   its own component, and messages stay inside it.  Each component
   therefore runs its own window loop, start to end, on one domain;
   an atomic index hands components to the calling domain and to the
   worker domains spawned for the run.  Components touch disjoint
   state, so the domain count and the order in which components run
   change wall-clock behaviour only, never simulation output. *)

(* Infinity sentinel for times/distances; small enough that sums of two
   never overflow. *)
let inf = max_int / 4

(* One cross-shard message, buffered on its source shard's outbox until
   the next drain. *)
type msg = { dst : int; at : Time.t; name : string; fn : unit -> unit }

type stats = {
  windows : int;
  parallel_windows : int;
  barrier_waits : int;
  fast_forwards : int;
  messages : int;
  batch_max : int;
  extended_horizons : int;
}

let no_stats =
  {
    windows = 0;
    parallel_windows = 0;
    barrier_waits = 0;
    fast_forwards = 0;
    messages = 0;
    batch_max = 0;
    extended_horizons = 0;
  }

type t = {
  shards : Engine.t array;
  la : Time.t array array;
      (* [la.(src).(dst)]: the edge's lookahead, [inf] if undeclared. *)
  dist : Time.t array array;
      (* All-pairs lookahead distances, recomputed at [run] when an edge
         was added.  All [inf] before the first [run], so a send made
         then (a node's t = 0 boot) sees no echo path. *)
  bounds : Time.t ref array;
      (* Each shard's current window bound, read by [Engine.run_until]
         before every event and lowered by [send] when an echo horizon
         appears.  Only the domain running the shard's component
         touches it. *)
  outbox : msg list array;
      (* Each shard's sends since the last drain, newest first.  Only
         the domain running the shard's component touches it. *)
  mutable paths_stale : bool;
  mutable stats : stats;
}

(* Kept so existing harnesses still link; no policy reads a clock. *)
let set_clock (_ : unit -> float) = ()

let create ?(seed = 42) ?seed_of ~shards () =
  if shards <= 0 then invalid_arg "Sharded.create: shards must be positive";
  (* Distinct deterministic seed per shard: a function of (seed, index)
     only, so shard streams never depend on the domain layout.
     [seed_of] overrides the derivation — e.g. node shards of one
     deployment that should all see the seed a lone engine would. *)
  let seed_of =
    match seed_of with Some f -> f | None -> fun i -> seed + (1000003 * i)
  in
  {
    shards = Array.init shards (fun i -> Engine.create ~seed:(seed_of i) ());
    la = Array.make_matrix shards shards inf;
    dist = Array.make_matrix shards shards inf;
    bounds = Array.init shards (fun _ -> ref inf);
    outbox = Array.make shards [];
    paths_stale = true;
    stats = no_stats;
  }

let shard_count t = Array.length t.shards
let engine t i = t.shards.(i)
let windows_run t = t.stats.windows
let stats t = t.stats

let counters_record t =
  (* Only the domain-layout-independent subset goes to the global
     counter table: these values are identical at every [?domains], so
     printing them cannot break byte-identity checks across domain
     counts.  [parallel_windows] stays in {!stats}. *)
  let s = t.stats in
  if s.windows > 0 then begin
    Counters.add "sharded.windows" s.windows;
    Counters.add "sharded.fast-forward" s.fast_forwards;
    Counters.add "sharded.messages" s.messages;
    Counters.add "sharded.horizon-extended" s.extended_horizons
  end

let connect t ~src ~dst ~lookahead =
  let n = Array.length t.shards in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Sharded.connect: shard index out of range";
  if src = dst then invalid_arg "Sharded.connect: self edge";
  (* The first declaration wins.  A zero lookahead admits
     same-timestamp cross-shard delivery into a window already being
     executed; one tick is the smallest safe value. *)
  if t.la.(src).(dst) = inf then begin
    t.la.(src).(dst) <- max 1 lookahead;
    t.paths_stale <- true
  end

(* All-pairs shortest lookahead distances (Floyd–Warshall; shard counts
   are small).  [dist.(i).(j)] bounds from below how long any chain of
   cross-shard messages from [i] takes to reach [j]: a relay woken at
   [t] forwards no earlier than [t + lookahead] per hop. *)
let refresh_paths t =
  let n = Array.length t.shards in
  let d = t.dist in
  for i = 0 to n - 1 do
    Array.blit t.la.(i) 0 d.(i) 0 n;
    d.(i).(i) <- 0
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = d.(i).(k) in
      if dik < inf then
        for j = 0 to n - 1 do
          let v = dik + d.(k).(j) in
          if v < d.(i).(j) then d.(i).(j) <- v
        done
    done
  done;
  t.paths_stale <- false

(* The edge graph's connected components, edges taken in either
   direction: each an ascending array of shard indices, ordered by
   their smallest member.  Union-find linking the larger root under the
   smaller keeps every root its set's smallest member. *)
let components t =
  let n = Array.length t.shards in
  let root = Array.init n Fun.id in
  let rec find i = if root.(i) = i then i else find root.(i) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if t.la.(i).(j) < inf then begin
        let a = find i and b = find j in
        if a <> b then root.(max a b) <- min a b
      end
    done
  done;
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    let r = find i in
    members.(r) <- i :: members.(r)
  done;
  Array.to_list members
  |> List.filter_map (function [] -> None | m -> Some (Array.of_list m))
  |> Array.of_list

let spawn_root ?name t ~shard f = Engine.spawn_root ?name t.shards.(shard) f

let send t ~src ~dst ?(delay = 0) ~name fn =
  let la = t.la.(src).(dst) in
  if la = inf then invalid_arg "Sharded.send: edge not connected";
  let at = Engine.current_time t.shards.(src) + max delay la in
  t.outbox.(src) <- { dst; at; name; fn } :: t.outbox.(src);
  (* Adaptive-horizon echo bound: nothing this message causes can come
     back to [src] before [at + dist (dst -> src)].  Tighten the
     sender's window bound if that is sooner than what it is currently
     running under (only the domain executing [src] ever calls this,
     so the plain ref is race-free).  With no return path the distance
     is [inf], and no bound ever exceeds [inf]. *)
  let back = at + t.dist.(dst).(src) and bound = t.bounds.(src) in
  if back < !bound then bound := back

(* Run one component's window loop to its end and return its stats.
   [members] are its shards, ascending.  A member whose window raises
   leaves its exception in [failed] and ends the component after that
   window; the component's emptied queues are released either way. *)
let run_component t members failed =
  let m = Array.length members in
  let nexts = Array.make m inf in
  let windows = ref 0 and fast_forwards = ref 0 and extended = ref 0 in
  let messages = ref 0 and batch_max = ref 0 in
  let finished = ref false in
  while not !finished do
    (* Drain: sources in index order, each outbox in send order.  Every
       destination therefore receives its messages in (src, per-edge
       sequence) order, and its heap runs events by (time, insertion
       sequence), so they execute in the canonical (delivery time, src,
       per-edge sequence) order without any sort. *)
    let batch = ref 0 in
    Array.iter
      (fun src ->
        match t.outbox.(src) with
        | [] -> ()
        | out ->
            t.outbox.(src) <- [];
            batch := !batch + List.length out;
            List.iter
              (fun msg ->
                Engine.spawn_root_at t.shards.(msg.dst) ~at:msg.at
                  ~name:msg.name msg.fn)
              (List.rev out))
      members;
    messages := !messages + !batch;
    if !batch > !batch_max then batch_max := !batch;
    let busy = ref false in
    for a = 0 to m - 1 do
      nexts.(a) <-
        (match Engine.next_event_time t.shards.(members.(a)) with
        | Some ts -> ts
        | None -> inf);
      if nexts.(a) < inf then busy := true
    done;
    if not !busy then finished := true
    else begin
      incr windows;
      (* Static bounds: earliest any *other* busy member could cause a
         delivery here.  Idle reachable members ratchet their clocks to
         it (the null message); busy members below it run, in index
         order.  Bounds read the [nexts] snapshot, never another
         member's engine, so running a member before the next one's
         bound is computed changes nothing. *)
      let ran = ref false in
      for a = 0 to m - 1 do
        let j = members.(a) in
        let static = ref inf in
        for b = 0 to m - 1 do
          if b <> a && nexts.(b) < inf then begin
            let v = nexts.(b) + t.dist.(members.(b)).(j) in
            if v < !static then static := v
          end
        done;
        if nexts.(a) < inf then begin
          (* Busy: runnable unless its whole window is empty. *)
          if nexts.(a) < !static then begin
            if !static >= inf then incr extended;
            t.bounds.(j) := !static;
            ran := true;
            try
              ignore
                (Engine.run_until t.shards.(j) ~bound:t.bounds.(j)
                  : Time.t option)
            with e ->
              failed.(j) <- Some e;
              finished := true
          end
        end
        else if !static < inf then begin
          (* Idle: ratchet the clock to the conservative bound so a
             later wake-up cannot land in this shard's past. *)
          Engine.fast_forward t.shards.(j) ~upto:!static;
          incr fast_forwards
        end
      done;
      (* The member holding the component's minimal next event is
         always below every static bound, so every window makes
         progress. *)
      assert !ran
    end
  done;
  Array.iter (fun j -> Engine.release_queue t.shards.(j)) members;
  {
    no_stats with
    windows = !windows;
    fast_forwards = !fast_forwards;
    messages = !messages;
    batch_max = !batch_max;
    extended_horizons = !extended;
  }

let run ?(domains = 1) t =
  if t.paths_stale then refresh_paths t;
  let comps = components t in
  let k = Array.length comps in
  let failed = Array.make (Array.length t.shards) None in
  let results = Array.make k no_stats in
  (* Each domain claims components until none is left and returns how
     many it ran.  [results] and [failed] have one writer per slot, and
     [Domain.join] orders every worker's writes before the merge. *)
  let next = Atomic.make 0 in
  let rec claim ran =
    let c = Atomic.fetch_and_add next 1 in
    if c >= k then ran
    else begin
      results.(c) <- run_component t comps.(c) failed;
      claim (ran + 1)
    end
  in
  let workers =
    List.init (max 0 (min domains k - 1)) (fun _ ->
        Domain.spawn (fun () -> claim 0))
  in
  let on_workers = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> on_workers := !on_workers + Domain.join d) workers)
    (fun () -> ignore (claim 0 : int));
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results
  and most f = Array.fold_left (fun acc r -> max acc (f r)) 0 results in
  let s = t.stats in
  t.stats <-
    {
      windows = s.windows + most (fun r -> r.windows);
      parallel_windows = s.parallel_windows + !on_workers;
      barrier_waits = 0;
      fast_forwards = s.fast_forwards + sum (fun r -> r.fast_forwards);
      messages = s.messages + sum (fun r -> r.messages);
      batch_max = max s.batch_max (most (fun r -> r.batch_max));
      extended_horizons =
        s.extended_horizons + sum (fun r -> r.extended_horizons);
    };
  Array.iter (function Some e -> raise e | None -> ()) failed
