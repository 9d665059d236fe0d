(* Tests for the conservative sharded runner: windowing, cross-shard
   message ordering, components on worker domains, and the determinism
   contract (results independent of the domain count). *)

open Sim

(* ------------------------------------------------------------------ *)
(* Ping-pong across two shards                                         *)
(* ------------------------------------------------------------------ *)

(* A ping-pong between shards [a] and [b] of [s].  Each side records
   (round, receive time) only into its own shard's trace — cross-shard
   shared mutation is exactly what the runner forbids — and the traces
   are read after [run]. *)
let add_ping_pong s ~a ~b ~rounds ~delay traces =
  Sharded.connect s ~src:a ~dst:b ~lookahead:(Time.us 1);
  Sharded.connect s ~src:b ~dst:a ~lookahead:(Time.us 1);
  let rec ping k () =
    traces.(a) <- (k, Engine.now ()) :: traces.(a);
    if k < rounds then Sharded.send s ~src:a ~dst:b ~delay ~name:"pong" (pong k)
  and pong k () =
    traces.(b) <- (k, Engine.now ()) :: traces.(b);
    Sharded.send s ~src:b ~dst:a ~delay ~name:"ping" (ping (k + 1))
  in
  Sharded.spawn_root s ~shard:a (ping 0)

let ping_pong ~rounds ~delay ~domains =
  let s = Sharded.create ~shards:2 () in
  let traces = Array.make 2 [] in
  add_ping_pong s ~a:0 ~b:1 ~rounds ~delay traces;
  Sharded.run ~domains s;
  (List.rev traces.(0), List.rev traces.(1), Sharded.windows_run s)

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

(* The engine wraps a process exception with the process name, and
   [run] must hand the original on to its caller and return. *)
let expect_boom s ~domains =
  match Sharded.run ~domains s with
  | () -> Alcotest.fail "expected the shard error to re-raise"
  | exception Engine.Process_failure (_, e) ->
      Alcotest.(check bool) "original exception preserved" true (e == boom)

(* Shard 1 raises; shard 0 has work on both sides of the failure. *)
let test_run_reraises () =
  let s = Sharded.create ~shards:2 () in
  Sharded.spawn_root s ~shard:0 (fun () -> Engine.sleep (Time.ms 5));
  Sharded.spawn_root s ~shard:1 (fun () ->
      Engine.sleep (Time.ms 1);
      raise boom);
  expect_boom s ~domains:1

(* Two edge-less shards are two components.  Each waits until both
   have started, so they run at once on different domains; the one on
   the worker raises, and its exception must reach the caller once the
   worker is joined. *)
let test_pool_reraises () =
  let s = Sharded.create ~shards:2 () in
  let caller = Domain.self () in
  let started = Atomic.make 0 in
  for shard = 0 to 1 do
    Sharded.spawn_root s ~shard (fun () ->
        Atomic.incr started;
        Handshake.await ~what:"the other component" (fun () ->
            Atomic.get started = 2);
        if Domain.self () <> caller then raise boom;
        Engine.sleep (Time.ms 5))
  done;
  expect_boom s ~domains:2;
  Alcotest.(check int) "one component ran on the worker" 1
    (Sharded.stats s).Sharded.parallel_windows

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
   once.  With [peer], a fourth, edge-less shard is a second busy
   component, and shard 2 sends only once that component has started,
   necessarily on the other domain. *)
let cross_source_trace ?(peer = false) ~domains () =
  let s = Sharded.create ~shards:(if peer then 4 else 3) () in
  Sharded.connect s ~src:1 ~dst:0 ~lookahead:(Time.us 1);
  Sharded.connect s ~src:2 ~dst:0 ~lookahead:(Time.us 1);
  let got = ref [] in
  let send src label =
    Sharded.send s ~src ~dst:0 ~delay:(Time.us 10 - Engine.now ())
      ~name:label (fun () -> got := (label, Engine.now ()) :: !got)
  in
  let peer_started = Atomic.make false in
  Sharded.spawn_root s ~shard:2 (fun () ->
      if peer then
        Handshake.await ~what:"the peer component" (fun () ->
            Atomic.get peer_started);
      send 2 "2a");
  Sharded.spawn_root s ~shard:1 (fun () ->
      Engine.sleep (Time.us 1);
      send 1 "1a";
      send 1 "1b");
  if peer then
    Sharded.spawn_root s ~shard:3 (fun () ->
        Atomic.set peer_started true;
        Engine.sleep (Time.us 20));
  Sharded.run ~domains s;
  (List.rev !got, Sharded.stats s)

let test_cross_source_order () =
  List.iter
    (fun (peer, domains) ->
      let what =
        Printf.sprintf "domains=%d%s" domains (if peer then " peer" else "")
      in
      let trace, st = cross_source_trace ~peer ~domains () in
      Alcotest.(check (list (pair string int)))
        ("source order, then send order (" ^ what ^ ")")
        [ ("1a", Time.us 10); ("1b", Time.us 10); ("2a", Time.us 10) ]
        trace;
      Alcotest.(check int) ("one batch (" ^ what ^ ")") 3 st.Sharded.batch_max;
      if peer then
        Alcotest.(check int) ("worker engaged (" ^ what ^ ")") 1
          st.Sharded.parallel_windows)
    [ (false, 1); (false, 2); (true, 2) ]

(* ------------------------------------------------------------------ *)
(* Components on worker domains                                        *)
(* ------------------------------------------------------------------ *)

(* Four ping-pong pairs with different round counts and delays: four
   components.  Above one domain, pair 0 waits until pair 1 has
   started, which only another domain can do, so a worker runs at
   least one pair; every trace and the window count must match a
   single-domain run. *)
let pairs_run ~domains =
  let pairs = 4 in
  let s = Sharded.create ~shards:(2 * pairs) () in
  let traces = Array.make (2 * pairs) [] in
  for p = 0 to pairs - 1 do
    add_ping_pong s ~a:(2 * p) ~b:((2 * p) + 1) ~rounds:(3 + p)
      ~delay:(Time.us (2 + p)) traces
  done;
  let pair1_started = Atomic.make false in
  Sharded.spawn_root s ~shard:0 (fun () ->
      if domains > 1 then
        Handshake.await ~what:"pair 1" (fun () -> Atomic.get pair1_started));
  Sharded.spawn_root s ~shard:2 (fun () -> Atomic.set pair1_started true);
  Sharded.run ~domains s;
  ((Array.map List.rev traces, Sharded.windows_run s), Sharded.stats s)

let test_forced_parallel_pool () =
  let reference, _ = pairs_run ~domains:1 in
  List.iter
    (fun domains ->
      let got, st = pairs_run ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d matches domains=1" domains)
        true (got = reference);
      Alcotest.(check bool)
        (Printf.sprintf "a worker ran a component (domains=%d)" domains)
        true
        (st.Sharded.parallel_windows > 0))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* A shard never runs on two domains at once                           *)
(* ------------------------------------------------------------------ *)

(* Twelve disjoint pairs of shards, each pair one component with its
   own lockstep windows and its own amount of work, so at two domains
   the claim index hands out many components of uneven length.  Pair 0
   waits for pair 1 to start, so a worker certainly takes part.  Every
   step asserts its shard is not already executing, and the per-shard
   step times must match a single-domain run. *)
let uneven_pool_run ~domains =
  let shards = 24 in
  let s = Sharded.create ~shards () in
  let lookahead = Time.us 1 in
  for p = 0 to (shards / 2) - 1 do
    Sharded.connect s ~src:(2 * p) ~dst:((2 * p) + 1) ~lookahead;
    Sharded.connect s ~src:((2 * p) + 1) ~dst:(2 * p) ~lookahead
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
  let pair1_started = Atomic.make false in
  for i = 0 to shards - 1 do
    let pair = i / 2 in
    Sharded.spawn_root s ~shard:i (fun () ->
        if i = 2 then Atomic.set pair1_started true;
        if i = 0 && domains > 1 then
          Handshake.await ~what:"pair 1" (fun () -> Atomic.get pair1_started);
        for c = 0 to 4 + (pair * 7 mod 12) do
          let t0 = Time.us (100 * c) in
          until t0;
          for _ = 1 to 4 + ((c + pair) * 7 mod 12) do
            step i 50;
            Engine.sleep 0
          done;
          if i mod 2 = 0 then
            for k = 1 to 1 + ((c + pair) mod 4) do
              until (t0 + Time.us (10 + k));
              step i 50
            done;
          until (t0 + Time.us 60);
          step i (1_000 * (1 + (pair mod 5)))
        done)
  done;
  Sharded.run ~domains s;
  (Array.to_list trace, Sharded.stats s)

let test_pool_never_shares_a_shard () =
  let reference, _ = uneven_pool_run ~domains:1 in
  for _ = 1 to 10 do
    let got, st = uneven_pool_run ~domains:2 in
    Alcotest.(check bool) "domains=2 matches domains=1" true (got = reference);
    Alcotest.(check bool) "a worker ran components" true
      (st.Sharded.parallel_windows > 0)
  done

(* Two edge-less shards, each waiting until both have started: this
   only completes if the two components run at the same time, one of
   them on the worker. *)
let test_components_run_concurrently () =
  let s = Sharded.create ~shards:2 () in
  let started = Atomic.make 0 in
  for shard = 0 to 1 do
    Sharded.spawn_root s ~shard (fun () ->
        Atomic.incr started;
        Handshake.await ~what:"the other component" (fun () ->
            Atomic.get started = 2);
        Engine.sleep (Time.ms (shard + 1)))
  done;
  Sharded.run ~domains:2 s;
  for shard = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "shard %d clock" shard)
      (Time.ms (shard + 1))
      (Engine.current_time (Sharded.engine s shard))
  done;
  Alcotest.(check int) "one component ran on the worker" 1
    (Sharded.stats s).Sharded.parallel_windows

(* ------------------------------------------------------------------ *)
(* Finished components release their event queues                      *)
(* ------------------------------------------------------------------ *)

(* A drained heap keeps its last executed event, and with it whatever
   that event's closure reaches.  Shard 0's last event starts a process
   holding [payload]; once [run] returns nothing but that event refers
   to it, so a full major collection must free it.  The runner itself
   stays reachable until after the check, or collecting it would free
   the payload whatever the runner did. *)
let test_finished_queues_released () =
  let s = Sharded.create ~shards:2 () in
  let seen = Weak.create 1 in
  Sharded.spawn_root s ~shard:0 (fun () ->
      let payload = Bytes.make 64 'x' in
      Weak.set seen 0 (Some payload);
      Engine.spawn ~name:"last" (fun () ->
          ignore (Sys.opaque_identity payload : Bytes.t)));
  Sharded.spawn_root s ~shard:1 (fun () -> Engine.sleep (Time.ms 1));
  Sharded.run s;
  Gc.full_major ();
  Alcotest.(check bool) "last event's closure collected" false
    (Weak.check seen 0);
  Alcotest.(check int) "runner still reachable" (Time.ms 1)
    (Engine.current_time (Sharded.engine s 1))

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
          tc "independent components run concurrently" `Quick
            test_components_run_concurrently;
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
      ( "memory",
        [
          tc "finished components release their queues" `Quick
            test_finished_queues_released;
        ] );
    ]
