(* Determinism pins for the multicore engine work.

   Two layers of protection:

   - Exact single-domain fingerprints of pinned DST scenarios, asserted
     as string equality in-process (the dst_sweep binary checks the
     same strings against test/dst_fingerprints.expected from the CLI).
     Any engine/heap/RNG change that perturbs event order breaks these
     before it reaches CI's fuller sweeps.

   - A qcheck property that a fault-free LineFS workload produces the
     same final [Fs_state.digest]s whether its shards run on one domain
     or four.  This is the user-visible face of the {!Sim.Sharded}
     determinism contract: domain count must never change results. *)

open Sim
open Linefs

let kib n = n * 1024

(* ------------------------------------------------------------------ *)
(* Pinned DST fingerprints (single domain)                             *)
(* ------------------------------------------------------------------ *)

(* These strings are the authoritative single-domain behaviour of the
   whole stack (engine scheduling order, RNG stream, fault machinery,
   FS digests).  If a change legitimately alters behaviour, regenerate
   with [dst_sweep --print-fingerprints] and update both this file and
   test/dst_fingerprints.expected in the same commit. *)
let pinned =
  [
    ( "generated-1",
      (fun () -> Fault.Scenario.generate ~seed:1),
      "digest=46cdb3a6 trace=20 ops=59 drops=0 delays=2 dups=0 reorders=0 \
       corrupts=0 scrubbed=0 ok=true []" );
    ( "adversary-2",
      (fun () -> Fault.Scenario.generate_adversary ~seed:2),
      "digest=73327dc2 trace=16 ops=55 drops=0 delays=0 dups=1 reorders=0 \
       corrupts=2 scrubbed=2 ok=true []" );
    ( "failover-primary-crash-1",
      (fun () -> Fault.Scenario.failover_primary_crash ~seed:1),
      "digest=f988ee61 trace=144 ops=65 drops=0 delays=0 dups=0 reorders=0 \
       corrupts=0 scrubbed=0 ok=true []" );
  ]

let test_pinned_fingerprints () =
  List.iter
    (fun (name, spec, expect) ->
      let got = Fault.Dst.fingerprint (Fault.Dst.run_spec (spec ())).outcome in
      Alcotest.(check string) name expect got)
    pinned

let test_fingerprints_stable_across_reruns () =
  (* Same process, fresh engines: the global state the engine rework
     touched (RPC sequence numbers, switch ids, CRC tables) must not
     leak between runs. *)
  List.iter
    (fun (name, spec, _) ->
      let fp () = Fault.Dst.fingerprint (Fault.Dst.run_spec (spec ())).outcome in
      Alcotest.(check string) (name ^ " rerun") (fp ()) (fp ()))
    pinned

(* ------------------------------------------------------------------ *)
(* Domain count never changes FS digests                               *)
(* ------------------------------------------------------------------ *)

let test_params =
  {
    Params.default with
    Params.chunk_bytes = 256 * 1024;
    log_bytes = 4 * 1024 * 1024;
  }

(* Run [shards] independent LineFS deployments, one per shard, each
   writing a seed-dependent amount of data, and return the final
   primary-FS digest of each with the number of windows that ran on
   the worker pool. *)
let digests ?grain ~shards ~seed ~domains () =
  let sh = Sharded.create ~seed ~shards () in
  let out = Array.make shards None in
  for i = 0 to shards - 1 do
    Sharded.spawn_root sh ~shard:i (fun () ->
        let d = Deployment.create ~params:test_params ~nodes:3 () in
        let ops = Libfs.ops (Deployment.add_client d ~id:1) in
        let file_bytes = kib (32 + ((seed + i) mod 7 * 16)) in
        ignore
          (Workloads.Microbench.seq_write ~ops
             ~path:(Printf.sprintf "/det-%d" i)
             ~file_bytes ~io_bytes:(kib 16) ());
        Deployment.flush_all d;
        let dg = Storage.Fs_state.digest (Deployment.primary d).Deployment.fs in
        Deployment.stop d;
        out.(i) <- Some dg)
  done;
  Sharded.run ?grain ~domains sh;
  ( Array.map
      (function Some d -> d | None -> Alcotest.fail "shard did not finish")
      out,
    (Sharded.stats sh).Sharded.parallel_windows )

(* The shards share no edges, so the whole run is one window, which the
   inline policy would keep on the coordinator; [grain:0] puts it on
   worker domains. *)
let prop_digest_domain_independent =
  QCheck.Test.make
    ~name:"fault-free digests identical at domains=1 and domains=4" ~count:4
    QCheck.(int_range 0 1000)
    (fun seed ->
      let d1, _ = digests ~shards:3 ~seed ~domains:1 () in
      let d4, parallel = digests ~grain:0 ~shards:3 ~seed ~domains:4 () in
      if parallel = 0 then
        QCheck.Test.fail_report "domains=4 never ran a window on the pool"
      else d1 = d4)

(* ------------------------------------------------------------------ *)
(* Per-node sharded deployment                                         *)
(* ------------------------------------------------------------------ *)

(* One deployment partitioned per node: node [i] (host + SmartNIC
   plane) on shard [i], fabric latency as per-edge lookahead.  The
   fingerprint covers everything user-visible — primary digest, wire
   bytes, the clock when the workload body finished on shard 0, total
   events across the three engines, and the merged counters — so any
   scheduler or routing change that perturbs the sharded execution
   breaks the pin before it reaches CI's byte-identity smoke. *)
let run_sharded_cell ~domains ~file_kib ~io_kib =
  Counters.reset ();
  let sh = Sharded.create ~seed_of:(fun _ -> 42) ~shards:3 () in
  (* [create] with [sharding] is called from outside any engine: it
     boots each shard's t = 0 construction itself. *)
  let d =
    Deployment.create ~params:test_params ~sharding:(sh, 0) ~nodes:3 ()
  in
  let out = ref None in
  Sharded.spawn_root sh ~shard:0 (fun () ->
      let ops = Libfs.ops (Deployment.add_client d ~id:1) in
      ignore
        (Workloads.Microbench.seq_write ~ops ~path:"/cell"
           ~file_bytes:(kib file_kib) ~io_bytes:(kib io_kib) ());
      Deployment.flush_all d;
      Deployment.stop d;
      out :=
        Some
          ( Storage.Fs_state.digest (Deployment.primary d).Deployment.fs,
            Deployment.replication_wire_bytes d,
            Engine.now () ));
  Sharded.run ~domains sh;
  let events = ref 0 in
  for i = 0 to 2 do
    events := !events + Engine.events_executed (Sharded.engine sh i);
    Counters.merge (Sharded.engine sh i)
  done;
  match !out with
  | None -> Alcotest.fail "sharded cell did not finish"
  | Some (dg, wire, clock) -> (dg, wire, clock, !events, Counters.all ())

let cell_fingerprint (dg, wire, clock, events, counters) =
  Printf.sprintf "digest=%08lx wire=%d clock=%d events=%d [%s]" dg wire clock
    events
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))

(* Regenerate by running this test and copying the reported value if a
   change legitimately alters sharded-deployment behaviour. *)
let pinned_cell =
  "digest=0198108d wire=263100 clock=515315 events=355 []"

let test_sharded_cell_pinned () =
  List.iter
    (fun domains ->
      let got =
        cell_fingerprint (run_sharded_cell ~domains ~file_kib:256 ~io_kib:16)
      in
      Alcotest.(check string)
        (Printf.sprintf "sharded cell, domains=%d" domains)
        pinned_cell got)
    [ 1; 2; 4 ]

(* The same workload on a single unsharded engine.  Per-node sharding
   must preserve the user-visible outcome — digest, replicated bytes,
   counter totals — though not the clock: the sharded transport models
   the fabric hop as one cross-shard flight where the single-engine
   path threads it through the switch process, so timings differ by
   sub-percent amounts while the data path stays byte-identical. *)
let run_unsharded_cell ~file_kib ~io_kib =
  Counters.reset ();
  let eng = Engine.create () in
  let out = ref None in
  Engine.spawn_root eng (fun () ->
      let d = Deployment.create ~params:test_params ~nodes:3 () in
      let ops = Libfs.ops (Deployment.add_client d ~id:1) in
      ignore
        (Workloads.Microbench.seq_write ~ops ~path:"/cell"
           ~file_bytes:(kib file_kib) ~io_bytes:(kib io_kib) ());
      Deployment.flush_all d;
      Deployment.stop d;
      out :=
        Some
          ( Storage.Fs_state.digest (Deployment.primary d).Deployment.fs,
            Deployment.replication_wire_bytes d ));
  Engine.run eng;
  Counters.merge eng;
  match !out with
  | None -> Alcotest.fail "unsharded cell did not finish"
  | Some (dg, wire) -> (dg, wire, Counters.all ())

let prop_sharding_preserves_results =
  QCheck.Test.make
    ~name:"per-node sharding preserves digest/wire/counters" ~count:4
    QCheck.(pair (int_range 4 24) (int_range 0 2))
    (fun (units, io_shift) ->
      let file_kib = 16 * units and io_kib = 4 lsl io_shift in
      let dg_u, wire_u, ctr_u = run_unsharded_cell ~file_kib ~io_kib in
      let dg_s, wire_s, _clock, _events, ctr_s =
        run_sharded_cell ~domains:2 ~file_kib ~io_kib
      in
      dg_u = dg_s && wire_u = wire_s && ctr_u = ctr_s)

(* ------------------------------------------------------------------ *)
(* Per-node sharded Assise family                                      *)
(* ------------------------------------------------------------------ *)

(* The Assise baselines partitioned per node: each variant has its own
   cross-node paths (busy-polled chain forwarding and routed acks for
   Pessimistic/Bg_repl, the NIC-chained hop relay for Hyperloop), so
   each gets its own pinned fingerprint.  [domains] runs the cell on a
   three-shard runner at that domain count; without it the same
   workload runs on one engine. *)
let run_assise_cell ?domains variant ~file_kib ~io_kib =
  Counters.reset ();
  let out = ref None in
  let body sys () =
    let ops = Baselines.Assise.ops (Baselines.Assise.add_client sys ~id:1) in
    ignore
      (Workloads.Microbench.seq_write ~ops ~path:"/cell"
         ~file_bytes:(kib file_kib) ~io_bytes:(kib io_kib) ());
    Baselines.Assise.flush_all sys;
    Baselines.Assise.stop sys;
    out :=
      Some
        ( Storage.Fs_state.digest (Baselines.Assise.primary_fs sys),
          Baselines.Assise.replication_wire_bytes sys,
          Engine.now () )
  in
  let events = ref 0 in
  (match domains with
  | Some domains ->
      let sh = Sharded.create ~seed_of:(fun _ -> 42) ~shards:3 () in
      let sys =
        Baselines.Assise.create ~params:test_params ~variant
          ~sharding:(sh, 0) ~nodes:3 ()
      in
      Sharded.spawn_root sh ~shard:0 (body sys);
      Sharded.run ~domains sh;
      for i = 0 to 2 do
        events := !events + Engine.events_executed (Sharded.engine sh i);
        Counters.merge (Sharded.engine sh i)
      done
  | None ->
      let eng = Engine.create () in
      Engine.spawn_root eng (fun () ->
          body
            (Baselines.Assise.create ~params:test_params ~variant ~nodes:3 ())
            ());
      Engine.run eng;
      events := Engine.events_executed eng;
      Counters.merge eng);
  match !out with
  | None -> Alcotest.fail "assise cell did not finish"
  | Some (dg, wire, clock) -> (dg, wire, clock, !events, Counters.all ())

(* Regenerate by running this test and copying the reported values if a
   change legitimately alters sharded Assise behaviour. *)
let pinned_assise =
  [
    ( Baselines.Assise.Pessimistic,
      "digest=b1f4f399 wire=1052220 clock=1689950 events=565 []" );
    ( Baselines.Assise.Bg_repl,
      "digest=b1f4f399 wire=1052220 clock=835660 events=600 []" );
    ( Baselines.Assise.Hyperloop,
      "digest=b1f4f399 wire=1052220 clock=1664805 events=484 []" );
  ]

let test_assise_sharded_pinned () =
  List.iter
    (fun (variant, expect) ->
      let name = Baselines.Assise.variant_name variant in
      let dg_u, wire_u, _, _, _ =
        run_assise_cell variant ~file_kib:1024 ~io_kib:16
      in
      List.iter
        (fun domains ->
          let ((dg, wire, _, _, _) as r) =
            run_assise_cell ~domains variant ~file_kib:1024 ~io_kib:16
          in
          Alcotest.(check string)
            (Printf.sprintf "%s sharded cell, domains=%d" name domains)
            expect (cell_fingerprint r);
          Alcotest.(check bool)
            (Printf.sprintf "%s digest/wire match unsharded" name)
            true
            (dg = dg_u && wire = wire_u))
        [ 1; 2 ])
    pinned_assise

(* ------------------------------------------------------------------ *)
(* Rack-scale: N nodes as replica groups, cohort clients               *)
(* ------------------------------------------------------------------ *)

(* The rack equivalent of the cell checks above: an N-node rack of
   replica groups driven by per-group cohorts, once per-node sharded
   (at several domain counts) and once on a single unsharded engine.
   Digests, wire bytes and merged counters must agree everywhere; the
   virtual clock is part of the sharded fingerprint (it is identical at
   every domain count) but not of the sharded-vs-unsharded comparison
   (the fabric hop is modelled differently, as for the cell). *)
let rack_params = test_params

let rack_outcome ~rack ~results ~counters =
  let g = Linefs.Rack.group_count rack in
  let digests =
    List.init g (fun i ->
        Storage.Fs_state.digest
          (Deployment.primary (Linefs.Rack.group rack i)).Deployment.fs)
  in
  let slowest =
    Array.fold_left
      (fun acc r -> max acc r.Workloads.Rack_cohort.elapsed)
      0 results
  in
  (digests, Linefs.Rack.replication_wire_bytes rack, slowest, counters)

let run_sharded_rack ~nodes ~group_size ~cohort ~domains ~group_kib ~io_kib =
  Counters.reset ();
  let sh = Sharded.create ~seed_of:(fun _ -> 42) ~shards:nodes () in
  let rack =
    Linefs.Rack.create ~params:rack_params ~sharding:(sh, 0) ~nodes
      ~group_size ()
  in
  let collect =
    Workloads.Rack_cohort.spawn ~sh ~rack ~cohort ~group_bytes:(kib group_kib)
      ~io_bytes:(kib io_kib) ()
  in
  Sharded.run ~domains sh;
  let events = ref 0 in
  for i = 0 to nodes - 1 do
    events := !events + Engine.events_executed (Sharded.engine sh i);
    Counters.merge (Sharded.engine sh i)
  done;
  (rack_outcome ~rack ~results:(collect ()) ~counters:(Counters.all ()), !events)

let run_unsharded_rack ~nodes ~group_size ~cohort ~group_kib ~io_kib =
  Counters.reset ();
  let eng = Engine.create () in
  let handles = ref None in
  Engine.spawn_root eng (fun () ->
      let rack =
        Linefs.Rack.create ~params:rack_params ~nodes ~group_size ()
      in
      let collect =
        Workloads.Rack_cohort.spawn_on ~eng ~rack ~cohort
          ~group_bytes:(kib group_kib) ~io_bytes:(kib io_kib) ()
      in
      handles := Some (rack, collect));
  Engine.run eng;
  Counters.merge eng;
  match !handles with
  | None -> Alcotest.fail "unsharded rack did not boot"
  | Some (rack, collect) ->
      rack_outcome ~rack ~results:(collect ()) ~counters:(Counters.all ())

let rack_fingerprint ((digests, wire, clock, counters), events) =
  Printf.sprintf "digests=%s wire=%d clock=%d events=%d [%s]"
    (String.concat ","
       (List.map (fun d -> Printf.sprintf "%08lx" d) digests))
    wire clock events
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))

(* Regenerate by running this test and copying the reported value if a
   change legitimately alters rack behaviour. *)
let pinned_rack =
  "digests=57e1cafa,a194fa47 wire=526436 clock=664729 events=1030 []"

let test_rack_pinned () =
  List.iter
    (fun domains ->
      let got =
        rack_fingerprint
          (run_sharded_rack ~nodes:8 ~group_size:4 ~cohort:2 ~domains
             ~group_kib:256 ~io_kib:16)
      in
      Alcotest.(check string)
        (Printf.sprintf "8-node rack, domains=%d" domains)
        pinned_rack got)
    [ 1; 2; 4 ]

let prop_rack_sharding_preserves_results =
  QCheck.Test.make
    ~name:"rack: digests/wire/counters identical at domains 1/2/4 and unsharded"
    ~count:3
    QCheck.(pair (int_range 4 12) (int_range 1 3))
    (fun (units, cohort) ->
      let group_kib = 32 * units and io_kib = 16 in
      let nodes = 8 and group_size = 4 in
      let (dg_u, wire_u, _clk, ctr_u) =
        run_unsharded_rack ~nodes ~group_size ~cohort ~group_kib ~io_kib
      in
      let reference =
        run_sharded_rack ~nodes ~group_size ~cohort ~domains:1 ~group_kib
          ~io_kib
      in
      let (dg_1, wire_1, clk_1, ctr_1), ev_1 = reference in
      (* Unsharded equivalence: everything but the clock. *)
      dg_u = dg_1 && wire_u = wire_1 && ctr_u = ctr_1
      && (* Domain-count identity: everything, clock included. *)
      List.for_all
        (fun domains ->
          let (dg, wire, clk, ctr), ev =
            run_sharded_rack ~nodes ~group_size ~cohort ~domains ~group_kib
              ~io_kib
          in
          dg = dg_1 && wire = wire_1 && clk = clk_1 && ctr = ctr_1
          && ev = ev_1)
        [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Cohort equivalence: K users over one LibFS = K individual clients   *)
(* ------------------------------------------------------------------ *)

let cross_users = 3
let cross_chunks = 6
let cross_io = kib 16

let cross_stream u =
  Storage.Data.synthetic ~seed:(77 + u) ~len:(cross_chunks * cross_io)

(* Drive one 3-node deployment, return (digest, per-file sizes,
   per-user issued-op and byte counts). *)
let run_cross driver =
  Counters.reset ();
  let eng = Engine.create () in
  let out = ref None in
  Engine.spawn_root eng (fun () ->
      let d = Deployment.create ~params:test_params ~nodes:3 () in
      let per_user = driver d in
      Deployment.flush_all d;
      Deployment.stop d;
      let ops = Libfs.ops (List.hd (Deployment.clients d)) in
      let sizes =
        List.init cross_users (fun u ->
            ops.Dfs_intf.file_size (Printf.sprintf "/cross/u%d" u))
      in
      out :=
        Some
          ( Storage.Fs_state.digest (Deployment.primary d).Deployment.fs,
            sizes,
            per_user ));
  Engine.run eng;
  match !out with
  | None -> Alcotest.fail "cross-check run did not finish"
  | Some r -> r

(* K individual LibFS clients, each a process writing its own file;
   round-robin interleaving via one chunk per turn. *)
let individual_driver d =
  let clis = List.init cross_users (fun u -> Deployment.add_client d ~id:(u + 1)) in
  let opses = List.map Libfs.ops clis in
  List.iteri (fun u o -> if u = 0 then o.Dfs_intf.mkdir "/cross") opses;
  let fds =
    List.mapi
      (fun u o -> o.Dfs_intf.create (Printf.sprintf "/cross/u%d" u))
      opses
  in
  for r = 0 to cross_chunks - 1 do
    List.iteri
      (fun u o ->
        o.Dfs_intf.append (List.nth fds u)
          (Storage.Data.sub (cross_stream u) ~pos:(r * cross_io) ~len:cross_io))
      opses
  done;
  List.iteri
    (fun u o ->
      o.Dfs_intf.fsync (List.nth fds u);
      o.Dfs_intf.close (List.nth fds u))
    opses;
  List.map
    (fun c -> (Libfs.ops_issued c, Libfs.bytes_written c, Libfs.fsync_count c))
    clis

(* One cohort of K users over a single LibFS, same op sequence. *)
let cohort_driver d =
  let cli = Deployment.add_client d ~id:1 in
  let coh = Linefs.Cohort.create ~ops:(Libfs.ops cli) ~users:cross_users () in
  let uops = Array.init cross_users (Linefs.Cohort.user_ops coh) in
  uops.(0).Dfs_intf.mkdir "/cross";
  let fds =
    Array.init cross_users (fun u ->
        uops.(u).Dfs_intf.create (Printf.sprintf "/cross/u%d" u))
  in
  for r = 0 to cross_chunks - 1 do
    Array.iteri
      (fun u fd ->
        uops.(u).Dfs_intf.append fd
          (Storage.Data.sub (cross_stream u) ~pos:(r * cross_io) ~len:cross_io))
      fds
  done;
  Array.iteri
    (fun u fd ->
      uops.(u).Dfs_intf.fsync fd;
      uops.(u).Dfs_intf.close fd)
    fds;
  List.init cross_users (fun u ->
      let s = Linefs.Cohort.user_stats coh u in
      ( s.Linefs.Cohort.ops_issued,
        s.Linefs.Cohort.bytes_written,
        s.Linefs.Cohort.fsyncs ))

let test_cohort_equivalence () =
  let dg_i, sizes_i, per_i = run_cross individual_driver in
  let dg_c, sizes_c, per_c = run_cross cohort_driver in
  Alcotest.(check bool) "file-system digests equal" true (dg_i = dg_c);
  Alcotest.(check (list (option int))) "per-user file sizes" sizes_i sizes_c;
  (* Per-user traffic: what each logical user wrote and synced must
     match its stand-alone counterpart.  (The individual clients' LibFS
     op counter includes client-lifecycle ops the cohort view doesn't
     route, so compare bytes and fsyncs, the per-op semantics.) *)
  List.iteri
    (fun u ((_, bytes_i, fsync_i), (_, bytes_c, fsync_c)) ->
      Alcotest.(check int)
        (Printf.sprintf "user %d bytes written" u)
        bytes_i bytes_c;
      Alcotest.(check int) (Printf.sprintf "user %d fsyncs" u) fsync_i fsync_c)
    (List.combine per_i per_c)

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "determinism"
    [
      ( "fingerprints",
        [
          tc "pinned single-domain fingerprints" `Quick
            test_pinned_fingerprints;
          tc "stable across in-process reruns" `Quick
            test_fingerprints_stable_across_reruns;
        ] );
      ("domains", [ qt prop_digest_domain_independent ]);
      ( "sharded-deployment",
        [
          tc "pinned sharded-cell fingerprint at domains 1/2/4" `Quick
            test_sharded_cell_pinned;
          qt prop_sharding_preserves_results;
          tc "pinned sharded Assise/BgRepl/Hyperloop cells at domains 1/2"
            `Quick test_assise_sharded_pinned;
        ] );
      ( "rack",
        [
          tc "pinned 8-node rack fingerprint at domains 1/2/4" `Quick
            test_rack_pinned;
          qt prop_rack_sharding_preserves_results;
          tc "cohort of K users = K individual clients" `Quick
            test_cohort_equivalence;
        ] );
    ]
