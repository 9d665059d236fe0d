(* Tests for the conservative sharded runner: windowing, cross-shard
   message ordering, and the determinism contract (results independent
   of the domain count). *)

open Sim

(* ------------------------------------------------------------------ *)
(* Ping-pong across two shards                                         *)
(* ------------------------------------------------------------------ *)

(* Each side records (round, receive time) only into its own shard's
   trace — cross-shard shared mutation is exactly what the runner
   forbids — and the traces are merged after [run]. *)
let ping_pong ~rounds ~delay ~domains =
  let s = Sharded.create ~shards:2 () in
  Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.us 1);
  Sharded.connect s ~src:1 ~dst:0 ~lookahead:(Time.us 1);
  let trace0 = ref [] and trace1 = ref [] in
  let rec ping k () =
    trace0 := (k, Engine.now ()) :: !trace0;
    if k < rounds then Sharded.send s ~src:0 ~dst:1 ~delay ~name:"pong" (pong k)
  and pong k () =
    trace1 := (k, Engine.now ()) :: !trace1;
    Sharded.send s ~src:1 ~dst:0 ~delay ~name:"ping" (ping (k + 1))
  in
  Sharded.spawn_root s ~shard:0 (ping 0);
  Sharded.run ~domains s;
  (List.rev !trace0, List.rev !trace1, Sharded.windows_run s)

let test_ping_pong_times () =
  let delay = Time.us 7 in
  let pings, pongs, windows = ping_pong ~rounds:3 ~delay ~domains:1 in
  (* ping k received at 2k * delay, pong k at (2k + 1) * delay. *)
  List.iteri
    (fun i (k, at) ->
      Alcotest.(check int) "ping round" i k;
      Alcotest.(check int) "ping time" (2 * k * delay) at)
    pings;
  List.iteri
    (fun i (k, at) ->
      Alcotest.(check int) "pong round" i k;
      Alcotest.(check int) "pong time" (((2 * k) + 1) * delay) at)
    pongs;
  Alcotest.(check bool) "windowed execution" true (windows > 1)

let test_ping_pong_domain_independent () =
  let delay = Time.us 3 in
  let reference = ping_pong ~rounds:5 ~delay ~domains:1 in
  List.iter
    (fun domains ->
      let got = ping_pong ~rounds:5 ~delay ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d matches domains=1" domains)
        true
        (got = reference))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Independent shards                                                  *)
(* ------------------------------------------------------------------ *)

let test_independent_shards_single_window () =
  let s = Sharded.create ~shards:4 () in
  for i = 0 to 3 do
    Sharded.spawn_root s ~shard:i (fun () -> Engine.sleep (Time.ms (i + 1)))
  done;
  Sharded.run ~domains:4 s;
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "shard %d clock" i)
      (Time.ms (i + 1))
      (Engine.current_time (Sharded.engine s i))
  done;
  (* No edges, no constraints: every shard drains in the first window. *)
  Alcotest.(check int) "one window" 1 (Sharded.windows_run s)

let test_send_requires_edge () =
  let s = Sharded.create ~shards:2 () in
  Sharded.spawn_root s ~shard:0 (fun () ->
      Alcotest.check_raises "unconnected edge"
        (Invalid_argument "Sharded.send: edge not connected") (fun () ->
          Sharded.send s ~src:0 ~dst:1 ~name:"x" (fun () -> ())));
  Sharded.run s

(* ------------------------------------------------------------------ *)
(* Per-edge lookahead                                                  *)
(* ------------------------------------------------------------------ *)

(* Two edges out of shard 0 with very different lookaheads: each edge
   clamps only its own delays, and the delivery times are identical for
   every domain count even though the slow edge dominates the fast
   destination's windows. *)
let star_times ~domains =
  let s = Sharded.create ~shards:3 () in
  Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.us 3);
  Sharded.connect s ~src:0 ~dst:2 ~lookahead:(Time.ms 2);
  let at = Array.make 2 None in
  Sharded.spawn_root s ~shard:0 (fun () ->
      (* Below-lookahead delays are clamped up to the edge's own
         lookahead, never to another edge's. *)
      Sharded.send s ~src:0 ~dst:1 ~delay:(Time.us 1) ~name:"fast" (fun () ->
          at.(0) <- Some (Engine.now ()));
      Sharded.send s ~src:0 ~dst:2 ~delay:(Time.us 1) ~name:"slow" (fun () ->
          at.(1) <- Some (Engine.now ())));
  Sharded.run ~domains s;
  (at.(0), at.(1))

let test_per_edge_lookahead () =
  List.iter
    (fun domains ->
      let fast, slow = star_times ~domains in
      Alcotest.(check (option int))
        (Printf.sprintf "fast edge clamps to us 3 (domains=%d)" domains)
        (Some (Time.us 3)) fast;
      Alcotest.(check (option int))
        (Printf.sprintf "slow edge clamps to ms 2 (domains=%d)" domains)
        (Some (Time.ms 2)) slow)
    [ 1; 2 ]

(* Re-declaring an edge changes nothing: the first declaration's
   lookahead still clamps the delay, whether the later one asks for a
   longer lookahead or a shorter one. *)
let test_connect_keeps_first_lookahead () =
  List.iter
    (fun domains ->
      let s = Sharded.create ~shards:2 () in
      Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.us 5);
      Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.ms 1);
      Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.us 1);
      let at = ref None in
      Sharded.spawn_root s ~shard:0 (fun () ->
          Sharded.send s ~src:0 ~dst:1 ~delay:(Time.us 1) ~name:"hop"
            (fun () -> at := Some (Engine.now ())));
      Sharded.run ~domains s;
      Alcotest.(check (option int))
        (Printf.sprintf "first lookahead us 5 wins (domains=%d)" domains)
        (Some (Time.us 5)) !at)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Shard failure: the exception reaches the caller                     *)
(* ------------------------------------------------------------------ *)

let boom = Failure "shard 1 exploded"

(* Shard 1 raises; shard 0 has work on both sides of the failure.  The
   engine wraps the process exception with the process name, and
   [run] must hand the original on to its caller and return — inline,
   and from a worker domain through the pool barrier. *)
let reraises ?grain ~domains () =
  let s = Sharded.create ~shards:2 () in
  Sharded.spawn_root s ~shard:0 (fun () -> Engine.sleep (Time.ms 5));
  Sharded.spawn_root s ~shard:1 (fun () ->
      Engine.sleep (Time.ms 1);
      raise boom);
  (match Sharded.run ?grain ~domains s with
  | () -> Alcotest.fail "expected the shard error to re-raise"
  | exception Engine.Process_failure (_, e) ->
      Alcotest.(check bool) "original exception preserved" true (e == boom));
  s

let test_run_reraises () = ignore (reraises ~domains:1 () : Sharded.t)

let test_pool_reraises () =
  let s = reraises ~grain:0 ~domains:2 () in
  Alcotest.(check bool) "pool engaged" true
    ((Sharded.stats s).Sharded.parallel_windows > 0)

(* ------------------------------------------------------------------ *)
(* Idle shards must not stall a busy-polling peer                      *)
(* ------------------------------------------------------------------ *)

(* Regression for the scheduler livelock: shard 0 busy-polls (always
   has a next event) while waiting for a reply that shard 1 can only
   produce after a cross-shard round trip; shard 1 is idle until the
   request lands.  Idle shard 1 puts no static bound on shard 0 (that
   bound is [min over busy b <> 0 of next_b + dist b 0]), so shard 0
   would poll forever if nothing else closed its window.  Its own send
   does: the request, delivered at 5 us, cannot echo back before
   5 us + dist 1 0, so shard 0's window ends at 10 us; the drain then
   makes shard 1 busy, its next event bounds shard 0 from then on, the
   reply lands and the poll loop terminates. *)
let test_busy_poller_with_idle_peer () =
  List.iter
    (fun domains ->
      let s = Sharded.create ~shards:2 () in
      Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.us 5);
      Sharded.connect s ~src:1 ~dst:0 ~lookahead:(Time.us 5);
      let reply_at = ref None in
      Sharded.spawn_root s ~shard:0 (fun () ->
          let got = ref false in
          Sharded.send s ~src:0 ~dst:1 ~name:"req" (fun () ->
              Sharded.send s ~src:1 ~dst:0 ~name:"reply" (fun () ->
                  got := true));
          while not !got do
            Engine.sleep (Time.us 1)
          done;
          reply_at := Some (Engine.now ()));
      Sharded.run ~domains s;
      (* Request lands at 5 us, reply at 10 us; the poll observes it on
         the next 1 us tick. *)
      Alcotest.(check bool)
        (Printf.sprintf "poll loop terminated (domains=%d)" domains)
        true
        (match !reply_at with Some at -> at >= Time.us 10 | None -> false))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Adaptive horizon: windows track traffic, not lookahead ticks        *)
(* ------------------------------------------------------------------ *)

(* A ping-pong with delays far above the lookahead.  Static windows
   would need [delay / lookahead] barriers per hop; the adaptive bound
   extends each side's window to the echo of its own send, so the
   runner takes roughly one window per hop regardless of the ratio. *)
let test_adaptive_horizon_window_count () =
  let rounds = 5 in
  let delay = Time.ms 1 in
  (* 1000x the lookahead *)
  let _, _, windows = ping_pong ~rounds ~delay ~domains:1 in
  Alcotest.(check bool)
    (Printf.sprintf "one window per hop, not per lookahead tick (%d)" windows)
    true
    (windows <= (2 * rounds) + 4)

let test_stats_and_fast_forward () =
  let delay = Time.us 7 in
  let s = Sharded.create ~shards:2 () in
  Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.us 1);
  Sharded.connect s ~src:1 ~dst:0 ~lookahead:(Time.us 1);
  let rec ping k () =
    if k < 6 then Sharded.send s ~src:(k mod 2) ~dst:((k + 1) mod 2) ~delay
        ~name:"hop" (ping (k + 1))
  in
  Sharded.spawn_root s ~shard:0 (ping 0);
  Sharded.run s;
  let st = Sharded.stats s in
  Alcotest.(check int) "messages" 6 st.Sharded.messages;
  Alcotest.(check int) "windows counted" (Sharded.windows_run s)
    st.Sharded.windows;
  Alcotest.(check bool) "fast-forwards ratcheted the idle side" true
    (st.Sharded.fast_forwards > 0);
  Alcotest.(check bool) "no parallel windows at domains=1" true
    (st.Sharded.parallel_windows = 0)

(* ------------------------------------------------------------------ *)
(* Cross-shard drain: same-window messages run in canonical order      *)
(* ------------------------------------------------------------------ *)

let burst_trace ~domains =
  let s = Sharded.create ~shards:2 () in
  Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.us 5);
  let got = ref [] in
  Sharded.spawn_root s ~shard:0 (fun () ->
      (* Ten same-window sends on one edge: one batch at the barrier.
         Equal delivery times must run in send order (per-edge
         sequence breaks the tie); staggered ones in time order. *)
      for i = 0 to 9 do
        let delay = Time.us (5 + (3 * (i mod 3))) in
        Sharded.send s ~src:0 ~dst:1 ~delay ~name:"burst" (fun () ->
            got := (i, Engine.now ()) :: !got)
      done);
  Sharded.run ~domains s;
  (List.rev !got, Sharded.stats s)

let test_coalesced_batch_order () =
  let trace, st = burst_trace ~domains:1 in
  Alcotest.(check int) "all messages delivered" 10 (List.length trace);
  Alcotest.(check int) "messages counted" 10 st.Sharded.messages;
  Alcotest.(check bool)
    (Printf.sprintf "burst drained as one batch (max %d)"
       st.Sharded.batch_max)
    true
    (st.Sharded.batch_max = 10);
  (* Delivery must be sorted by (time, then send order). *)
  let rec sorted = function
    | (i1, t1) :: ((i2, t2) :: _ as rest) ->
        (t1 < t2 || (t1 = t2 && i1 < i2)) && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "canonical drain order" true (sorted trace);
  Alcotest.(check bool) "domain-independent" true
    (trace = fst (burst_trace ~domains:2))

(* Messages from different sources that land at the same instant run
   in source order, then send order — not in the order they were sent
   in virtual time.  Shard 2 sends first (at 0 us), shard 1 twice a
   microsecond later; all three land on shard 0 at 10 us, drained at
   one barrier. *)
let cross_source_trace ?grain ~domains () =
  let s = Sharded.create ~shards:3 () in
  Sharded.connect s ~src:1 ~dst:0 ~lookahead:(Time.us 1);
  Sharded.connect s ~src:2 ~dst:0 ~lookahead:(Time.us 1);
  let got = ref [] in
  let send src label =
    Sharded.send s ~src ~dst:0 ~delay:(Time.us 10 - Engine.now ())
      ~name:label (fun () -> got := (label, Engine.now ()) :: !got)
  in
  Sharded.spawn_root s ~shard:2 (fun () -> send 2 "2a");
  Sharded.spawn_root s ~shard:1 (fun () ->
      Engine.sleep (Time.us 1);
      send 1 "1a";
      send 1 "1b");
  Sharded.run ?grain ~domains s;
  (List.rev !got, Sharded.stats s)

let test_cross_source_order () =
  List.iter
    (fun (grain, domains) ->
      let what =
        Printf.sprintf "domains=%d%s" domains
          (match grain with Some g -> Printf.sprintf " grain=%d" g | None -> "")
      in
      let trace, st = cross_source_trace ?grain ~domains () in
      Alcotest.(check (list (pair string int)))
        ("source order, then send order (" ^ what ^ ")")
        [ ("1a", Time.us 10); ("1b", Time.us 10); ("2a", Time.us 10) ]
        trace;
      Alcotest.(check int) ("one batch (" ^ what ^ ")") 3 st.Sharded.batch_max;
      if grain = Some 0 then
        Alcotest.(check bool) ("pool engaged (" ^ what ^ ")") true
          (st.Sharded.parallel_windows > 0))
    [ (None, 1); (None, 2); (Some 0, 2) ]

(* ------------------------------------------------------------------ *)
(* Worker pool: grain 0 forces every multi-shard window parallel       *)
(* ------------------------------------------------------------------ *)

(* The inline policy would keep this tiny exchange on the coordinator;
   [grain:0] forces the pool up, covering the barrier path (claim
   counter, pending counter, parking) even on a single-core machine —
   with, per the contract, identical results. *)
let test_forced_parallel_pool () =
  let delay = Time.us 3 in
  let reference = ping_pong ~rounds:5 ~delay ~domains:1 in
  let s = Sharded.create ~shards:2 () in
  Sharded.connect s ~src:0 ~dst:1 ~lookahead:(Time.us 1);
  Sharded.connect s ~src:1 ~dst:0 ~lookahead:(Time.us 1);
  let trace0 = ref [] and trace1 = ref [] in
  let rec ping k () =
    trace0 := (k, Engine.now ()) :: !trace0;
    if k < 5 then Sharded.send s ~src:0 ~dst:1 ~delay ~name:"pong" (pong k)
  and pong k () =
    trace1 := (k, Engine.now ()) :: !trace1;
    Sharded.send s ~src:1 ~dst:0 ~delay ~name:"ping" (ping (k + 1))
  in
  Sharded.spawn_root s ~shard:0 (ping 0);
  Sharded.run ~domains:2 ~grain:0 s;
  let got = (List.rev !trace0, List.rev !trace1, Sharded.windows_run s) in
  Alcotest.(check bool) "forced-parallel results identical" true
    (got = reference);
  Alcotest.(check bool) "pool actually engaged" true
    ((Sharded.stats s).Sharded.parallel_windows > 0)

(* ------------------------------------------------------------------ *)
(* Worker pool: a shard never runs on two domains at once              *)
(* ------------------------------------------------------------------ *)

(* Many shards with uneven work at the default grain, shaped so the
   inline policy flips between pool rounds and inline windows.  Each
   100 us cycle opens with a burst on every shard (one busy window that
   lifts the policy's moving averages), then a few lockstep windows on
   shards 0 and 1 only (pool rounds while the averages decay, with so
   little work that the coordinator claims both shards before a worker
   wakes), then one step on every shard (often inline, 24 runnable).
   A pool worker that wakes late for a finished round draws a claim
   index that is valid in that inline window; it must never get to run
   the shard.  Every step asserts its shard is not already executing,
   and the per-shard step times must match a single-domain run. *)
let uneven_pool_run ~domains =
  let shards = 24 in
  let s = Sharded.create ~shards () in
  let lookahead = Time.us 1 in
  for i = 0 to shards - 1 do
    Sharded.connect s ~src:i ~dst:((i + 1) mod shards) ~lookahead;
    Sharded.connect s ~src:((i + 1) mod shards) ~dst:i ~lookahead
  done;
  let running = Array.init shards (fun _ -> Atomic.make false) in
  let trace = Array.make shards [] in
  let step i work =
    if Atomic.exchange running.(i) true then
      failwith (Printf.sprintf "shard %d is already running" i);
    let acc = ref 0 in
    for k = 1 to work do
      acc := !acc + Sys.opaque_identity k
    done;
    ignore (Sys.opaque_identity !acc);
    trace.(i) <- Engine.now () :: trace.(i);
    Atomic.set running.(i) false
  in
  let until t = Engine.sleep (t - Engine.now ()) in
  for i = 0 to shards - 1 do
    Sharded.spawn_root s ~shard:i (fun () ->
        for c = 0 to 29 do
          let t0 = Time.us (100 * c) in
          until t0;
          for _ = 1 to 4 + (c * 7 mod 12) do
            step i 50;
            Engine.sleep 0
          done;
          if i < 2 then
            for k = 1 to 1 + (c mod 4) do
              until (t0 + Time.us (10 + k));
              step i 50
            done;
          until (t0 + Time.us 60);
          step i 10_000
        done)
  done;
  Sharded.run ~domains s;
  Array.to_list trace

let test_pool_never_shares_a_shard () =
  let reference = uneven_pool_run ~domains:1 in
  for _ = 1 to 10 do
    Alcotest.(check bool)
      "domains=2 matches domains=1" true
      (uneven_pool_run ~domains:2 = reference)
  done

(* ------------------------------------------------------------------ *)
(* Determinism property on a token ring                                *)
(* ------------------------------------------------------------------ *)

(* A token hops around a ring; every hop's delay is drawn from the
   receiving shard's own engine RNG, so the trace depends on the
   deterministic per-shard streams.  Whatever the domain count, the
   trace must be identical. *)
let ring_trace ~shards ~hops ~seed ~domains =
  let s = Sharded.create ~seed ~shards () in
  for i = 0 to shards - 1 do
    Sharded.connect s ~src:i ~dst:((i + 1) mod shards) ~lookahead:(Time.us 2)
  done;
  let traces = Array.make shards [] in
  let rec hop shard v () =
    traces.(shard) <- (v, Engine.now ()) :: traces.(shard);
    if v < hops then begin
      let delay =
        Time.us (2 + Rng.int (Engine.rng (Sharded.engine s shard)) 50)
      in
      Sharded.send s ~src:shard
        ~dst:((shard + 1) mod shards)
        ~delay ~name:"hop"
        (hop ((shard + 1) mod shards) (v + 1))
    end
  in
  Sharded.spawn_root s ~shard:0 (hop 0 0);
  Sharded.run ~domains s;
  Array.to_list traces |> List.concat |> List.sort compare

let prop_ring_domain_independent =
  QCheck.Test.make ~name:"sharded: ring trace independent of domains"
    ~count:20
    QCheck.(pair (int_range 2 5) small_nat)
    (fun (shards, seed) ->
      let t1 = ring_trace ~shards ~hops:40 ~seed ~domains:1 in
      let t4 = ring_trace ~shards ~hops:40 ~seed ~domains:4 in
      t1 = t4 && List.length t1 = 41)

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sharded"
    [
      ( "windows",
        [
          tc "ping-pong delivery times" `Quick test_ping_pong_times;
          tc "independent shards, one window" `Quick
            test_independent_shards_single_window;
          tc "send requires a connected edge" `Quick test_send_requires_edge;
          tc "per-edge lookahead clamps per edge" `Quick
            test_per_edge_lookahead;
          tc "connect keeps the first lookahead" `Quick
            test_connect_keeps_first_lookahead;
          tc "busy poller with idle peer terminates" `Quick
            test_busy_poller_with_idle_peer;
          tc "adaptive horizon: one window per hop" `Quick
            test_adaptive_horizon_window_count;
          tc "sync stats and fast-forward counts" `Quick
            test_stats_and_fast_forward;
          tc "same-window burst coalesces in order" `Quick
            test_coalesced_batch_order;
          tc "grain 0 forces the worker pool" `Quick test_forced_parallel_pool;
          tc "pool never runs one shard on two domains" `Quick
            test_pool_never_shares_a_shard;
          tc "same-instant messages run in source order" `Quick
            test_cross_source_order;
        ] );
      ( "errors",
        [
          tc "run re-raises a shard's exception" `Quick test_run_reraises;
          tc "pool re-raises a shard's exception" `Quick test_pool_reraises;
        ] );
      ( "determinism",
        [
          tc "ping-pong identical across domain counts" `Quick
            test_ping_pong_domain_independent;
          qt prop_ring_domain_independent;
        ] );
    ]
