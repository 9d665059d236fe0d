(* Tests for the RDMA data-movement model and the two-class RPC layer. *)

open Sim
open Net

let run_sim f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn_root eng (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not complete"

let two_nodes () =
  let topo = Hw.Topology.create ~nodes:2 () in
  (Hw.Topology.node topo 0, Hw.Topology.node topo 1)

let check_between msg lo hi v =
  if v < lo || v > hi then
    Alcotest.failf "%s: %s not in [%s, %s]" msg (Time.to_string v)
      (Time.to_string lo) (Time.to_string hi)

(* ------------------------------------------------------------------ *)
(* Loc                                                                 *)
(* ------------------------------------------------------------------ *)

let test_loc_predicates () =
  let a, b = two_nodes () in
  Alcotest.(check bool) "same node" true
    (Loc.same_node (Loc.Host a) (Loc.Nic a));
  Alcotest.(check bool) "different node" false
    (Loc.same_node (Loc.Host a) (Loc.Host b));
  Alcotest.(check bool) "is_host" true (Loc.is_host (Loc.Host a));
  Alcotest.(check bool) "nic not host" false (Loc.is_host (Loc.Nic a))

(* ------------------------------------------------------------------ *)
(* Rdma                                                                *)
(* ------------------------------------------------------------------ *)

let test_rdma_host_nic_crosses_pcie () =
  (* Fetching 4 MB host -> NIC should take ~1 ms (Figure 5 fetch). *)
  let a, _ = two_nodes () in
  let elapsed =
    run_sim (fun () ->
        let t0 = Engine.now () in
        Rdma.move ~src:(Loc.Host a) ~dst:(Loc.Nic a) (4 * 1024 * 1024);
        Engine.now () - t0)
  in
  check_between "4MB over PCIe" (Time.us 900) (Time.us 1200) elapsed

let test_rdma_same_location_free () =
  let a, _ = two_nodes () in
  let elapsed =
    run_sim (fun () ->
        let t0 = Engine.now () in
        Rdma.move ~src:(Loc.Nic a) ~dst:(Loc.Nic a) (1024 * 1024);
        Engine.now () - t0)
  in
  Alcotest.(check int) "no charge" 0 elapsed

let test_rdma_cross_node_network_bound () =
  (* 22 MB NIC-to-NIC is ~10 ms at 2.2 GB/s goodput. *)
  let a, b = two_nodes () in
  let elapsed =
    run_sim (fun () ->
        let t0 = Engine.now () in
        Rdma.move ~src:(Loc.Nic a) ~dst:(Loc.Nic b) (22 * 1024 * 1024);
        Engine.now () - t0)
  in
  check_between "cross-node" (Time.ms 10) (Time.ms 11) elapsed

let test_rdma_pm_charges_device_time () =
  let a, b = two_nodes () in
  let before = Hw.Pm.bytes_written b.Hw.Node.pm in
  run_sim (fun () ->
      Rdma.move ~dst_medium:`Pm ~src:(Loc.Nic a) ~dst:(Loc.Host b) 4096);
  Alcotest.(check int) "pm written" (before + 4096)
    (Hw.Pm.bytes_written b.Hw.Node.pm)

let test_rdma_estimate_close_to_actual () =
  let a, b = two_nodes () in
  let est = Rdma.move_time_estimate ~src:(Loc.Nic a) ~dst:(Loc.Nic b) 1_000_000 in
  let actual =
    run_sim (fun () ->
        let t0 = Engine.now () in
        Rdma.move ~src:(Loc.Nic a) ~dst:(Loc.Nic b) 1_000_000;
        Engine.now () - t0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %s ~ actual %s" (Time.to_string est)
       (Time.to_string actual))
    true
    (abs (est - actual) < actual / 5)

(* ------------------------------------------------------------------ *)
(* Rpc                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rpc_busy_poll_low_latency () =
  let a, _ = two_nodes () in
  let elapsed =
    run_sim (fun () ->
        let srv =
          Rpc.create ~name:"echo" ~loc:(Loc.Nic a) ~kind:Rpc.Busy_poll
            ~handler:(fun x -> x + 1)
            ()
        in
        let t0 = Engine.now () in
        let r = Rpc.call srv ~from:(Loc.Host a) 41 in
        Alcotest.(check int) "result" 42 r;
        Engine.now () - t0)
  in
  (* Two PCIe crossings plus poll granularity: ~5-10 us. *)
  check_between "busy-poll RTT" (Time.us 3) (Time.us 15) elapsed

let test_rpc_busy_poll_reserves_core () =
  let a, _ = two_nodes () in
  run_sim (fun () ->
      let nic_pool = Hw.Smartnic.cpu a.Hw.Node.nic in
      let before = Hw.Cpu.available nic_pool in
      let _srv =
        Rpc.create ~name:"spin" ~loc:(Loc.Nic a) ~kind:Rpc.Busy_poll
          ~handler:(fun () -> ())
          ()
      in
      Alcotest.(check int) "one core consumed" (before - 1)
        (Hw.Cpu.available nic_pool))

let test_rpc_event_pays_dispatch () =
  let a, _ = two_nodes () in
  let busy_poll_t, event_t =
    run_sim (fun () ->
        let bp =
          Rpc.create ~name:"bp" ~loc:(Loc.Nic a) ~kind:Rpc.Busy_poll
            ~handler:(fun () -> ())
            ()
        in
        let ev =
          Rpc.create ~name:"ev" ~loc:(Loc.Nic a)
            ~kind:(Rpc.Event { workers = 2; prio = Hw.Cpu.prio_normal })
            ~handler:(fun () -> ())
            ()
        in
        let time f =
          let t0 = Engine.now () in
          f ();
          Engine.now () - t0
        in
        ( time (fun () -> Rpc.call bp ~from:(Loc.Host a) ()),
          time (fun () -> Rpc.call ev ~from:(Loc.Host a) ()) ))
  in
  Alcotest.(check bool)
    (Printf.sprintf "event (%s) slower than busy-poll (%s)"
       (Time.to_string event_t) (Time.to_string busy_poll_t))
    true
    (event_t > busy_poll_t)

let test_rpc_concurrent_calls_all_served () =
  let a, b = two_nodes () in
  let served =
    run_sim (fun () ->
        let count = ref 0 in
        let srv =
          Rpc.create ~name:"ctr" ~loc:(Loc.Nic b)
            ~kind:(Rpc.Event { workers = 4; prio = Hw.Cpu.prio_normal })
            ~handler:(fun () -> incr count)
            ()
        in
        let live = ref 20 in
        let don = Ivar.create () in
        for _ = 1 to 20 do
          Engine.spawn (fun () ->
              Rpc.call srv ~from:(Loc.Nic a) ();
              decr live;
              if !live = 0 then Ivar.fill don ())
        done;
        Ivar.read don;
        !count)
  in
  Alcotest.(check int) "all served" 20 served

let test_rpc_post_does_not_wait () =
  let a, _ = two_nodes () in
  let elapsed, handled =
    run_sim (fun () ->
        let handled = ref false in
        let srv =
          Rpc.create ~name:"slow" ~loc:(Loc.Nic a)
            ~kind:(Rpc.Event { workers = 1; prio = Hw.Cpu.prio_normal })
            ~handler:(fun () ->
              Engine.sleep (Time.ms 5);
              handled := true)
            ()
        in
        let t0 = Engine.now () in
        Rpc.post srv ~from:(Loc.Host a) ();
        let e = Engine.now () - t0 in
        Engine.sleep (Time.ms 10);
        (e, !handled))
  in
  Alcotest.(check bool) "post returns early" true (elapsed < Time.ms 1);
  Alcotest.(check bool) "handler eventually ran" true handled

let test_rpc_queue_length () =
  let a, _ = two_nodes () in
  run_sim (fun () ->
      let release = Cond.create () in
      let srv =
        Rpc.create ~name:"gate" ~loc:(Loc.Nic a)
          ~kind:(Rpc.Event { workers = 1; prio = Hw.Cpu.prio_normal })
          ~handler:(fun () -> Cond.await release)
          ()
      in
      for _ = 1 to 5 do
        Rpc.post srv ~from:(Loc.Host a) ()
      done;
      Engine.sleep (Time.ms 1);
      (* One message is being handled; the rest wait. *)
      Alcotest.(check int) "queued" 4 (Rpc.queue_length srv);
      Cond.broadcast release;
      for _ = 1 to 5 do
        Cond.broadcast release;
        Engine.sleep (Time.ms 1)
      done)

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

let test_backoff_series () =
  let p = Backoff.make ~base:(Time.us 100) ~factor:2.0 ~cap:(Time.us 500) () in
  Alcotest.(check int) "attempt 0" (Time.us 100) (Backoff.delay p ~attempt:0);
  Alcotest.(check int) "attempt 1" (Time.us 200) (Backoff.delay p ~attempt:1);
  Alcotest.(check int) "attempt 2" (Time.us 400) (Backoff.delay p ~attempt:2);
  Alcotest.(check int) "attempt 3 capped" (Time.us 500)
    (Backoff.delay p ~attempt:3);
  (* The cap also bounds arbitrarily large attempt counts without
     overflowing. *)
  Alcotest.(check int) "attempt 60 capped" (Time.us 500)
    (Backoff.delay p ~attempt:60);
  Alcotest.(check bool) "negative attempt raises" true
    (try
       ignore (Backoff.delay p ~attempt:(-1) : Time.t);
       false
     with _ -> true)

let test_backoff_default_bounds () =
  let p = Backoff.default in
  Alcotest.(check bool) "base positive" true (Backoff.delay p ~attempt:0 > 0);
  Alcotest.(check bool) "monotone" true
    (Backoff.delay p ~attempt:1 >= Backoff.delay p ~attempt:0);
  Alcotest.(check int) "cap reached" p.Backoff.cap
    (Backoff.delay p ~attempt:20)

(* ------------------------------------------------------------------ *)
(* call_timeout / call_retry                                           *)
(* ------------------------------------------------------------------ *)

let test_call_timeout_fault_free_passthrough () =
  (* Without fault injection, call_timeout/call_retry behave exactly
     like call: same answer, no timer-induced delay differences. *)
  let a, _ = two_nodes () in
  run_sim (fun () ->
      let srv =
        Rpc.create ~name:"echo" ~loc:(Loc.Nic a) ~kind:Rpc.Busy_poll
          ~handler:(fun x -> x * 2)
          ()
      in
      let t0 = Engine.now () in
      let plain = Rpc.call srv ~from:(Loc.Host a) 21 in
      let t_plain = Engine.now () - t0 in
      let t1 = Engine.now () in
      let timed = Rpc.call_timeout srv ~from:(Loc.Host a) ~timeout:(Time.ms 1) 21 in
      let t_timed = Engine.now () - t1 in
      let retried = Rpc.call_retry srv ~from:(Loc.Host a) 21 in
      Alcotest.(check int) "plain" 42 plain;
      Alcotest.(check (option int)) "timed" (Some 42) timed;
      Alcotest.(check (option int)) "retried" (Some 42) retried;
      Alcotest.(check int) "same latency" t_plain t_timed)

(* ------------------------------------------------------------------ *)
(* Byzantine verdicts: idempotent RPC under duplication, reordering    *)
(* and corruption                                                      *)
(* ------------------------------------------------------------------ *)

(* A scripted injection hook: inter-node RPC sends consume verdicts in
   order (then pass); RDMA moves and intra-node traffic always pass. *)
let with_script verdicts f =
  let remaining = ref verdicts in
  Inject.set (fun ~point ~src ~dst ~bytes:_ ->
      match point with
      | Inject.Rdma_move -> Inject.Pass
      | Inject.Rpc_call | Inject.Rpc_post -> (
          if Loc.same_node src dst then Inject.Pass
          else
            match !remaining with
            | [] -> Inject.Pass
            | v :: rest ->
                remaining := rest;
                v));
  Fun.protect ~finally:Inject.clear f

let event_kind = Rpc.Event { workers = 2; prio = Hw.Cpu.prio_normal }

let test_rpc_duplicate_executes_once () =
  (* A fabric-duplicated call reaches the server twice with the same
     per-caller sequence number: the handler runs once, the dedup cache
     absorbs the copy, and the caller still gets its reply. *)
  let a, b = two_nodes () in
  Counters.reset ();
  run_sim (fun () ->
      with_script [ Inject.Duplicate ] (fun () ->
          let count = ref 0 in
          let srv =
            Rpc.create ~name:"dup" ~loc:(Loc.Nic b) ~kind:event_kind
              ~handler:(fun x ->
                incr count;
                x + 1)
              ()
          in
          let r = Rpc.call srv ~from:(Loc.Nic a) 1 in
          Alcotest.(check int) "reply" 2 r;
          Engine.sleep (Time.ms 1);
          Alcotest.(check int) "handler ran once" 1 !count;
          Alcotest.(check bool) "dedup hit recorded" true
            (Counters.get "rpc.dedup-hit" >= 1)))

let test_rpc_corrupt_frame_nacked_then_retried () =
  (* A corrupted frame is discarded without touching the handler (the
     CRC trailer / link FCS catches it); call_retry's next attempt gets
     through. *)
  let a, b = two_nodes () in
  Counters.reset ();
  run_sim (fun () ->
      with_script [ Inject.Corrupt { offset = 3; xor = 0x40 } ] (fun () ->
          let count = ref 0 in
          let srv =
            Rpc.create ~name:"crc" ~loc:(Loc.Nic b) ~kind:event_kind
              ~integrity:(fun x -> Some (Int32.of_int x))
              ~handler:(fun x ->
                incr count;
                x * 2)
              ()
          in
          let policy =
            Backoff.make ~base:(Time.us 200) ~factor:2.0 ~cap:(Time.ms 1) ()
          in
          let r = Rpc.call_retry srv ~from:(Loc.Nic a) ~policy 21 in
          Alcotest.(check (option int)) "retry delivered" (Some 42) r;
          Alcotest.(check int) "handler ran once" 1 !count;
          Alcotest.(check int) "frame NACKed" 1
            (Counters.get "net.corrupt-frame");
          Alcotest.(check bool) "retransmit recorded" true
            (Counters.get "net.retransmit" >= 1)))

let test_rpc_reorder_post_overtaken () =
  (* A reordered one-way post is held back while a later post overtakes
     it; both are delivered. *)
  let a, b = two_nodes () in
  run_sim (fun () ->
      with_script [ Inject.Reorder (Time.us 100) ] (fun () ->
          let order = ref [] in
          let srv =
            Rpc.create ~name:"ord" ~loc:(Loc.Nic b)
              ~kind:(Rpc.Event { workers = 1; prio = Hw.Cpu.prio_normal })
              ~handler:(fun x -> order := x :: !order)
              ()
          in
          Rpc.post srv ~from:(Loc.Nic a) 1;
          Rpc.post srv ~from:(Loc.Nic a) 2;
          Engine.sleep (Time.ms 1);
          Alcotest.(check (list int)) "second post overtook the first"
            [ 1; 2 ] !order))

let test_call_retry_deadline_ladder_capped () =
  (* Under persistent loss the per-attempt timeout ladder is the
     backoff: attempts wait base, base*2, then the cap — so the total
     deadline for n attempts is bounded by the capped series, and the
     caller learns about the failure at a predictable instant. *)
  let a, b = two_nodes () in
  Counters.reset ();
  run_sim (fun () ->
      with_script [ Inject.Drop; Inject.Drop; Inject.Drop; Inject.Drop ]
        (fun () ->
          let srv =
            Rpc.create ~name:"gone" ~loc:(Loc.Nic b) ~kind:event_kind
              ~handler:(fun () -> ())
              ()
          in
          let policy =
            Backoff.make ~base:(Time.us 100) ~factor:2.0 ~cap:(Time.us 400) ()
          in
          let t0 = Engine.now () in
          let r =
            Rpc.call_retry srv ~from:(Loc.Nic a) ~policy ~attempts:4 ()
          in
          let waited = Engine.now () - t0 in
          Alcotest.(check (option unit)) "gave up" None r;
          (* 100 + 200 + 400 + 400 us of timeouts, plus wire time. *)
          check_between "capped ladder" (Time.us 1100) (Time.us 1400) waited;
          Alcotest.(check int) "every attempt retransmitted" 4
            (Counters.get "net.retransmit")))

let test_call_retry_exactly_once_under_duplicate_and_reorder () =
  (* Back-to-back logical requests through a fabric that duplicates one
     and reorders another: every request executes exactly once and
     every caller gets exactly one reply. *)
  let a, b = two_nodes () in
  Counters.reset ();
  run_sim (fun () ->
      with_script
        [ Inject.Duplicate; Inject.Reorder (Time.us 50); Inject.Duplicate ]
        (fun () ->
          let count = ref 0 in
          let srv =
            Rpc.create ~name:"once" ~loc:(Loc.Nic b) ~kind:event_kind
              ~handler:(fun x ->
                incr count;
                x)
              ()
          in
          for i = 1 to 3 do
            Alcotest.(check (option int))
              (Printf.sprintf "reply %d" i)
              (Some i)
              (Rpc.call_retry srv ~from:(Loc.Nic a) i)
          done;
          Engine.sleep (Time.ms 1);
          Alcotest.(check int) "each logical request executed once" 3 !count))

let test_call_timeout_gives_up_on_slow_handler () =
  let a, _ = two_nodes () in
  run_sim (fun () ->
      let srv =
        Rpc.create ~name:"slow" ~loc:(Loc.Nic a)
          ~kind:(Rpc.Event { workers = 1; prio = Hw.Cpu.prio_normal })
          ~handler:(fun () -> Engine.sleep (Time.ms 20))
          ()
      in
      let t0 = Engine.now () in
      let r = Rpc.call_timeout srv ~from:(Loc.Host a) ~timeout:(Time.ms 2) () in
      let waited = Engine.now () - t0 in
      Alcotest.(check (option unit)) "timed out" None r;
      check_between "gave up at the deadline" (Time.ms 2) (Time.ms 3) waited;
      (* Let the abandoned handler finish so the simulation quiesces. *)
      Engine.sleep (Time.ms 25))

(* ------------------------------------------------------------------ *)
(* Fabric: nodes placed on different shards                            *)
(* ------------------------------------------------------------------ *)

(* Node 0 on shard 0, node 1 on shard 1 of a two-shard runner. *)
let placed_pair () =
  let sh = Sharded.create ~seed_of:(fun _ -> 42) ~shards:2 () in
  let topo = Hw.Topology.create ~nodes:2 () in
  Fabric.place ~sharding:(sh, 0) topo.Hw.Topology.nodes;
  (sh, Hw.Topology.node topo 0, Hw.Topology.node topo 1)

(* A server on node 1's shard that records what it handled. *)
let placed_server b seen =
  Fabric.start ~name:"boot" b (fun () ->
      Rpc.create ~name:"far" ~loc:(Loc.Nic b) ~kind:event_kind
        ~handler:(fun x -> seen := x :: !seen)
        ())

(* A blocking primitive called from shard 0 toward node 1 must refuse,
   naming both endpoints, before touching either engine. *)
let refused what f () =
  let sh, a, b = placed_pair () in
  let srv = placed_server b (ref []) in
  let checked = ref false in
  Sharded.spawn_root sh ~shard:0 (fun () ->
      Alcotest.check_raises what
        (Invalid_argument
           (what ^ ": nic0 (shard 0) and nic1 (shard 1) are on different shards"))
        (fun () -> f srv (Loc.Nic a) (Loc.Nic b));
      checked := true);
  Sharded.run sh;
  Alcotest.(check bool) "checked" true !checked

let test_cross_shard_move_refused =
  refused "Rdma.move" (fun _ src dst -> Rdma.move ~src ~dst 64)

let test_cross_shard_call_refused =
  refused "Rpc.call" (fun srv from _ -> Rpc.call srv ~from 1)

let test_cross_shard_call_timeout_refused =
  refused "Rpc.call_timeout" (fun srv from _ ->
      ignore (Rpc.call_timeout srv ~from ~timeout:(Time.ms 1) 1 : unit option))

let test_routed_post_delivers () =
  let sh, a, b = placed_pair () in
  let seen = ref [] in
  let srv = placed_server b seen in
  Sharded.spawn_root sh ~shard:0 (fun () -> Rpc.post srv ~from:(Loc.Nic a) 7);
  Sharded.run sh;
  Alcotest.(check (list int)) "delivered on the far shard" [ 7 ] !seen

(* The verdict is drawn on the sending shard: the script is installed
   from a process on shard 0, so it binds to that engine only. *)
let routed_posts verdicts values =
  let sh, a, b = placed_pair () in
  let seen = ref [] in
  let srv = placed_server b seen in
  Sharded.spawn_root sh ~shard:0 (fun () ->
      with_script verdicts (fun () ->
          List.iter (fun v -> Rpc.post srv ~from:(Loc.Nic a) v) values));
  Sharded.run sh;
  (List.rev !seen, Counters.get_in (Sharded.engine sh 1) "rpc.dedup-hit")

let test_routed_post_drop () =
  let seen, _ = routed_posts [ Inject.Drop ] [ 1; 2 ] in
  Alcotest.(check (list int)) "dropped post never delivered" [ 2 ] seen

let test_routed_post_duplicate () =
  let seen, hits = routed_posts [ Inject.Duplicate ] [ 1 ] in
  Alcotest.(check (list int)) "handler ran once" [ 1 ] seen;
  Alcotest.(check int) "one dedup hit at the receiver" 1 hits

(* The time a routed [Rdma.ship]'s continuation runs on node 1's
   shard, under a verdict drawn on node 0's. *)
let routed_ship_arrival verdict =
  let sh, a, b = placed_pair () in
  let at = ref None in
  Sharded.spawn_root sh ~shard:0 (fun () ->
      Inject.set (fun ~point:_ ~src:_ ~dst:_ ~bytes:_ -> verdict);
      Rdma.ship ~src:(Loc.Nic a) ~dst:(Loc.Nic b) ~name:"ship" 4096 (fun () ->
          at := Some (Engine.now ())));
  Sharded.run sh;
  match !at with Some t -> t | None -> Alcotest.fail "ship never landed"

let test_routed_ship_delay () =
  Alcotest.(check int)
    "a delay verdict postpones the landing by its latency"
    (routed_ship_arrival Inject.Pass + Time.us 50)
    (routed_ship_arrival (Inject.Delay (Time.us 50)))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "net"
    [
      ("loc", [ tc "predicates" `Quick test_loc_predicates ]);
      ( "rdma",
        [
          tc "host-nic crosses pcie" `Quick test_rdma_host_nic_crosses_pcie;
          tc "same location free" `Quick test_rdma_same_location_free;
          tc "cross-node network bound" `Quick test_rdma_cross_node_network_bound;
          tc "pm device charged" `Quick test_rdma_pm_charges_device_time;
          tc "estimate close to actual" `Quick test_rdma_estimate_close_to_actual;
        ] );
      ( "rpc",
        [
          tc "busy poll low latency" `Quick test_rpc_busy_poll_low_latency;
          tc "busy poll reserves core" `Quick test_rpc_busy_poll_reserves_core;
          tc "event pays dispatch" `Quick test_rpc_event_pays_dispatch;
          tc "concurrent calls served" `Quick test_rpc_concurrent_calls_all_served;
          tc "post does not wait" `Quick test_rpc_post_does_not_wait;
          tc "queue length" `Quick test_rpc_queue_length;
        ] );
      ( "backoff",
        [
          tc "capped exponential series" `Quick test_backoff_series;
          tc "default bounds" `Quick test_backoff_default_bounds;
        ] );
      ( "retry",
        [
          tc "fault-free passthrough" `Quick
            test_call_timeout_fault_free_passthrough;
          tc "timeout on slow handler" `Quick
            test_call_timeout_gives_up_on_slow_handler;
        ] );
      ( "byzantine",
        [
          tc "duplicate executes once" `Quick test_rpc_duplicate_executes_once;
          tc "corrupt frame nacked then retried" `Quick
            test_rpc_corrupt_frame_nacked_then_retried;
          tc "reordered post overtaken" `Quick test_rpc_reorder_post_overtaken;
          tc "retry deadline ladder capped" `Quick
            test_call_retry_deadline_ladder_capped;
          tc "exactly once under duplicate and reorder" `Quick
            test_call_retry_exactly_once_under_duplicate_and_reorder;
        ] );
      ( "fabric",
        [
          tc "Rdma.move refuses cross-shard ends" `Quick
            test_cross_shard_move_refused;
          tc "Rpc.call refuses cross-shard ends" `Quick
            test_cross_shard_call_refused;
          tc "Rpc.call_timeout refuses cross-shard ends" `Quick
            test_cross_shard_call_timeout_refused;
          tc "routed post delivers" `Quick test_routed_post_delivers;
          tc "routed post honours drop" `Quick test_routed_post_drop;
          tc "routed post honours duplicate" `Quick test_routed_post_duplicate;
          tc "routed ship honours delay" `Quick test_routed_ship_delay;
        ] );
    ]
