(* Conservative (Chandy–Misra–Bryant-style) parallel runner over
   multiple engines.

   Each shard owns a private {!Engine.t}; shards interact only through
   declared, latency-carrying edges.  Execution proceeds in windows:
   between windows the coordinator drains every shard's outbox into
   the destination engines, and each destination runs the messages in
   a canonical order (delivery time, src, per-edge sequence); within a
   window each shard executes only events that nothing another shard
   has yet to do could invalidate, so no rollback is ever needed.

   The window bound is where this runner differs from the textbook
   scheme.  Shard [j]'s horizon has two parts:

   - a {e static} part, computed at the barrier: the earliest instant
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
     barrier rate scales with cross-shard {e messages} rather than
     with elapsed virtual time over lookahead.

   Idle shards still play the null-message role: their clocks ratchet
   to the static bound each window so a later wake-up cannot deliver
   into their past.

   Within a window the shards touch disjoint state, so they can run on
   any number of domains in any order with identical results: the
   [domains] argument of {!run} changes wall-clock behaviour only,
   never simulation output.  Worker domains are created lazily (first
   window that wants them) and persist for the whole run; each round
   hands out the runnable shards through an atomic claim index and is
   summarized by a single atomic pending counter — workers park on a
   condition variable between rounds instead of polling, and windows
   whose estimated work would not amortize a barrier run inline on the
   coordinator without waking anyone. *)

(* Infinity sentinel for times/distances; small enough that sums of two
   never overflow. *)
let inf = max_int / 4

(* One cross-shard message, buffered on its source shard's outbox until
   the next barrier. *)
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
         appears.  Written only by the domain executing the shard (and
         by the coordinator between windows, across the round barrier). *)
  outbox : msg list array;
      (* Each shard's sends since the last barrier, newest first.  The
         domain executing the shard is the only writer; the coordinator
         drains it across the round barrier. *)
  mutable paths_stale : bool;
  mutable windows : int;
  mutable parallel_windows : int;
  mutable barrier_waits : int;
  mutable fast_forwards : int;
  mutable messages : int;
  mutable batch_max : int;
  mutable extended_horizons : int;
}

(* Wall clock for the inline-vs-parallel work estimate (policy only —
   never part of simulation results).  [Sys.time] by default so the sim
   library keeps its no-unix rule; harnesses install a real-time clock
   via {!set_clock}. *)
let wall_clock = ref Sys.time
let set_clock f = wall_clock := f

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
    windows = 0;
    parallel_windows = 0;
    barrier_waits = 0;
    fast_forwards = 0;
    messages = 0;
    batch_max = 0;
    extended_horizons = 0;
  }

let shard_count t = Array.length t.shards
let engine t i = t.shards.(i)
let windows_run t = t.windows

let stats t =
  {
    windows = t.windows;
    parallel_windows = t.parallel_windows;
    barrier_waits = t.barrier_waits;
    fast_forwards = t.fast_forwards;
    messages = t.messages;
    batch_max = t.batch_max;
    extended_horizons = t.extended_horizons;
  }

let counters_record t =
  (* Only the domain-layout-independent subset goes to the global
     counter table: these values are identical at every [?domains], so
     printing them cannot break byte-identity checks across domain
     counts.  Parallel-window / barrier-wait tallies stay in {!stats}. *)
  if t.windows > 0 then begin
    Counters.add "sharded.windows" t.windows;
    Counters.add "sharded.fast-forward" t.fast_forwards;
    Counters.add "sharded.messages" t.messages;
    Counters.add "sharded.horizon-extended" t.extended_horizons
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

(* Inject every outbox into its destination engines: sources in index
   order, each outbox in send order.  Every destination therefore
   receives its messages in (src, per-edge sequence) order, and its
   heap runs events by (time, insertion sequence), so they execute in
   the canonical (delivery time, src, per-edge sequence) order without
   any sort. *)
let drain t =
  let k = ref 0 in
  for src = 0 to Array.length t.outbox - 1 do
    match t.outbox.(src) with
    | [] -> ()
    | out ->
        t.outbox.(src) <- [];
        k := !k + List.length out;
        List.iter
          (fun m ->
            Engine.spawn_root_at t.shards.(m.dst) ~at:m.at ~name:m.name m.fn)
          (List.rev out)
  done;
  t.messages <- t.messages + !k;
  if !k > t.batch_max then t.batch_max <- !k

let run ?(domains = 1) ?(grain = 96) t =
  let n = Array.length t.shards in
  let domains = max 1 (min domains n) in
  if t.paths_stale then refresh_paths t;
  (* A shard whose window raises leaves its engine inconsistent, so the
     run stops.  The exception is caught where it happens (a worker
     domain must still release its claim) and, once every shard of the
     window is done, the lowest failing shard's is re-raised; the
     [finally] below joins the pool first. *)
  let shard_exn : exn option array = Array.make n None in
  let nexts = Array.make n inf in
  let work j =
    try
      ignore (Engine.run_until t.shards.(j) ~bound:t.bounds.(j) : Time.t option)
    with e -> shard_exn.(j) <- Some e
  in
  let after_window () =
    Array.iter (function Some e -> raise e | None -> ()) shard_exn
  in
  (* Lazily created persistent worker pool.  A round is published as:
     runnable set + bounds (plain writes), then a generation bump under
     the mutex (broadcast wakes parked workers).  Workers pull shard
     indices through the atomic claim counter.  The single atomic
     pending counter summarizes the round: one unit per runnable shard
     plus one per pool worker, which a worker releases only when it
     leaves the claim loop.  So the round ends when every shard has run
     {e and} no worker can still draw a claim: a late-waking worker
     holding a stale claim index could otherwise run a shard of the
     next window while the coordinator runs it inline.  Whoever takes
     the counter to zero signals the coordinator.  Windows below the
     [grain] work estimate never touch any of this: the coordinator
     runs them inline. *)
  let runnable = Array.make n 0 in
  let runnable_cnt = ref 0 in
  let claim = Atomic.make 0 in
  let pending = Atomic.make 0 in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let gen = ref 0 in
  let quit = ref false in
  let pool : unit Domain.t array ref = ref [||] in
  let release () =
    if Atomic.fetch_and_add pending (-1) = 1 then begin
      Mutex.lock mu;
      Condition.broadcast cv;
      Mutex.unlock mu
    end
  in
  let worker () =
    let seen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock mu;
      while !gen = !seen && not !quit do
        Condition.wait cv mu
      done;
      let q = !quit in
      seen := !gen;
      Mutex.unlock mu;
      if q then continue := false
      else begin
        let more = ref true in
        while !more do
          let i = Atomic.fetch_and_add claim 1 in
          if i >= !runnable_cnt then more := false
          else begin
            work runnable.(i);
            release ()
          end
        done;
        release ()
      end
    done
  in
  let ensure_pool () =
    if Array.length !pool = 0 then
      pool := Array.init (domains - 1) (fun _ -> Domain.spawn worker)
  in
  let run_round () =
    ensure_pool ();
    t.parallel_windows <- t.parallel_windows + 1;
    Atomic.set claim 0;
    Atomic.set pending (!runnable_cnt + Array.length !pool);
    Mutex.lock mu;
    incr gen;
    Condition.broadcast cv;
    Mutex.unlock mu;
    let more = ref true in
    while !more do
      let i = Atomic.fetch_and_add claim 1 in
      if i >= !runnable_cnt then more := false
      else begin
        work runnable.(i);
        ignore (Atomic.fetch_and_add pending (-1) : int)
      end
    done;
    Mutex.lock mu;
    while Atomic.get pending > 0 do
      t.barrier_waits <- t.barrier_waits + 1;
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  (* Inline-vs-parallel policy: a window goes to the pool only when its
     predicted work would amortize a barrier crossing.  Two exponential
     moving averages predict the next window from the last ones — the
     event count per window (cheap, exact, catches sustained load) and
     the wall seconds per window (2 clock reads per window, catches
     few-events-but-expensive regimes).  Both are wall-clock heuristics
     only: they decide where a window runs, never what it computes. *)
  let ema_events = ref 0. in
  let ema_wall = ref 0. in
  let wall_grain = 40e-6 in
  (* [grain <= 0] forces every multi-shard window onto the pool (test
     hook for the barrier path).  Otherwise a machine that reports a
     single core can never amortize waking a worker, whatever
     [?domains] says, so such hosts keep the pure inline path — and
     skip the per-window clock reads with it. *)
  let force_parallel = grain <= 0 in
  let can_parallel =
    domains > 1 && (force_parallel || Domain.recommended_domain_count () > 1)
  in
  let events_of_runnable () =
    let s = ref 0 in
    for i = 0 to !runnable_cnt - 1 do
      s := !s + Engine.events_executed t.shards.(runnable.(i))
    done;
    !s
  in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if Array.length !pool > 0 then begin
        Mutex.lock mu;
        quit := true;
        Condition.broadcast cv;
        Mutex.unlock mu;
        Array.iter Domain.join !pool
      end)
    (fun () ->
      while not !finished do
        drain t;
        let busy = ref 0 in
        for j = 0 to n - 1 do
          nexts.(j) <-
            (match Engine.next_event_time t.shards.(j) with
            | Some ts -> ts
            | None -> inf);
          if nexts.(j) < inf then incr busy
        done;
        if !busy = 0 then finished := true
        else begin
          t.windows <- t.windows + 1;
          (* Static bounds: earliest any *other* busy shard could cause
             a delivery here.  Idle reachable shards ratchet their
             clocks to it (the null message); busy shards below it are
             runnable. *)
          runnable_cnt := 0;
          for j = 0 to n - 1 do
            let static = ref inf in
            for b = 0 to n - 1 do
              if b <> j && nexts.(b) < inf then begin
                let v = nexts.(b) + t.dist.(b).(j) in
                if v < !static then static := v
              end
            done;
            if nexts.(j) < inf then begin
              (* Busy: runnable unless its whole window is empty. *)
              if nexts.(j) < !static then begin
                if !static >= inf then
                  t.extended_horizons <- t.extended_horizons + 1;
                t.bounds.(j) := !static;
                runnable.(!runnable_cnt) <- j;
                incr runnable_cnt
              end
            end
            else if !static < inf then begin
              (* Idle: ratchet the clock to the conservative bound so a
                 later wake-up cannot land in this shard's past. *)
              Engine.fast_forward t.shards.(j) ~upto:!static;
              t.fast_forwards <- t.fast_forwards + 1
            end
          done;
          (* The shard holding the globally minimal next event is always
             below every static bound, so every window makes progress. *)
          assert (!runnable_cnt > 0);
          if not can_parallel then
            for i = 0 to !runnable_cnt - 1 do
              work runnable.(i)
            done
          else begin
            let ev0 = events_of_runnable () in
            let w0 = !wall_clock () in
            if
              force_parallel
              || !runnable_cnt > 1
                 && (!ema_events >= float_of_int grain
                    || !ema_wall >= wall_grain)
            then run_round ()
            else
              for i = 0 to !runnable_cnt - 1 do
                work runnable.(i)
              done;
            let dw = !wall_clock () -. w0 in
            let de = float_of_int (events_of_runnable () - ev0) in
            ema_events := (0.75 *. !ema_events) +. (0.25 *. de);
            ema_wall := (0.75 *. !ema_wall) +. (0.25 *. dw)
          end;
          after_window ()
        end
      done)
