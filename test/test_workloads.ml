(* Tests for the application workloads: microbenchmarks, streamcluster,
   the LSM KV store, Filebench profiles, Tencent Sort, iperf. *)

open Sim
open Storage
open Linefs
open Workloads

let kib n = n * 1024

let test_params =
  {
    Params.default with
    Params.chunk_bytes = 256 * 1024;
    log_bytes = 8 * 1024 * 1024;
  }

let run_sim f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn_root eng (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not complete"

let with_linefs f =
  run_sim (fun () ->
      let d = Deployment.create ~params:test_params ~nodes:3 () in
      let c = Deployment.add_client d ~id:1 in
      let r = f d (Libfs.ops c) in
      Deployment.stop d;
      r)

let with_assise f =
  run_sim (fun () ->
      let sys = Baselines.Assise.create ~params:test_params ~nodes:3 () in
      let c = Baselines.Assise.add_client sys ~id:1 in
      let r = f (Baselines.Assise.ops c) in
      Baselines.Assise.stop sys;
      r)

(* ------------------------------------------------------------------ *)
(* Microbench                                                          *)
(* ------------------------------------------------------------------ *)

let test_seq_write_then_read () =
  with_linefs (fun _d ops ->
      Microbench.seq_write ~ops ~path:"/f" ~file_bytes:(kib 512)
        ~io_bytes:(kib 16) ();
      let read = Microbench.seq_read ~ops ~path:"/f" ~io_bytes:(kib 16) () in
      Alcotest.(check int) "all bytes read back" (kib 512) read)

let test_rand_read_covers_file () =
  with_linefs (fun _d ops ->
      Microbench.seq_write ~ops ~path:"/f" ~file_bytes:(kib 256)
        ~io_bytes:(kib 16) ();
      let rng = Rng.create 3 in
      let read = Microbench.rand_read ~ops ~path:"/f" ~io_bytes:(kib 16) ~rng () in
      Alcotest.(check int) "random reads read a file's worth" (kib 256) read)

let test_latency_series_shape () =
  with_linefs (fun _d ops ->
      let s =
        Microbench.write_fsync_latency ~ops ~path:"/lat" ~n_ops:50
          ~io_bytes:(kib 16) ()
      in
      Alcotest.(check int) "one sample per op" 50 (Stats.Series.count s);
      Alcotest.(check bool) "positive latency" true (Stats.Series.mean s > 0.0);
      Alcotest.(check bool) "p99 >= mean" true
        (Stats.Series.percentile s 99.0 >= Stats.Series.mean s *. 0.5))

(* ------------------------------------------------------------------ *)
(* Streamcluster                                                       *)
(* ------------------------------------------------------------------ *)

let test_streamcluster_solo_time () =
  let elapsed =
    run_sim (fun () ->
        let topo = Hw.Topology.create ~nodes:1 () in
        let node = Hw.Topology.primary topo in
        Streamcluster.run ~iterations:5 ~work_per_iter:(Time.ms 10) ~node ())
  in
  (* 48 threads on 48 cores: each iteration is ~10 ms. *)
  let expect = Time.ms 50 in
  Alcotest.(check bool)
    (Printf.sprintf "solo close to ideal (%s vs %s)" (Time.to_string elapsed)
       (Time.to_string expect))
    true
    (elapsed >= expect && elapsed < expect * 12 / 10)

let test_streamcluster_slowed_by_antagonist () =
  let contended =
    run_sim (fun () ->
        let topo = Hw.Topology.create ~nodes:1 () in
        let node = Hw.Topology.primary topo in
        (* Steal half the cores with an equal-priority spinner. *)
        for _ = 1 to 24 do
          Engine.spawn (fun () ->
              Hw.Cpu.run node.Hw.Node.host (Time.sec 1))
        done;
        Streamcluster.run ~iterations:5 ~work_per_iter:(Time.ms 10) ~node ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "contended run slower (%s)" (Time.to_string contended))
    true
    (contended > Time.ms 60)

let test_streamcluster_background_stops () =
  run_sim (fun () ->
      let topo = Hw.Topology.create ~nodes:1 () in
      let node = Hw.Topology.primary topo in
      let bg =
        Streamcluster.start_background ~work_per_iter:(Time.ms 5) ~node ()
      in
      Engine.sleep (Time.ms 40);
      Streamcluster.stop bg;
      Alcotest.(check bool) "made progress" true
        (Streamcluster.iterations_done bg > 0))

(* ------------------------------------------------------------------ *)
(* LevelDB                                                             *)
(* ------------------------------------------------------------------ *)

let test_leveldb_put_get () =
  with_linefs (fun _d ops ->
      let db = Leveldb.open_db ~ops ~dir:"/db" () in
      Leveldb.put db ~key:"alpha" ~value:(Data.of_string "one") ();
      Leveldb.put db ~key:"beta" ~value:(Data.of_string "two") ();
      (match Leveldb.get db ~key:"alpha" with
      | Some v ->
          Alcotest.(check string) "memtable hit" "one"
            (Bytes.to_string (Data.to_bytes v))
      | None -> Alcotest.fail "missing key");
      Alcotest.(check bool) "absent key" true (Leveldb.get db ~key:"nope" = None);
      Leveldb.close db)

let test_leveldb_get_after_flush () =
  with_linefs (fun _d ops ->
      let db = Leveldb.open_db ~ops ~dir:"/db" () in
      for i = 0 to 99 do
        Leveldb.put db
          ~key:(Printf.sprintf "key%04d" i)
          ~value:(Data.of_string (Printf.sprintf "value-%d" i))
          ()
      done;
      Leveldb.flush db;
      Alcotest.(check bool) "sstable created" true (Leveldb.sstable_count db >= 1);
      (match Leveldb.get db ~key:"key0042" with
      | Some v ->
          Alcotest.(check string) "sstable read" "value-42"
            (Bytes.to_string (Data.to_bytes v))
      | None -> Alcotest.fail "missing key after flush");
      Leveldb.close db)

let test_leveldb_overwrite_latest_wins () =
  with_linefs (fun _d ops ->
      let db = Leveldb.open_db ~ops ~dir:"/db" () in
      Leveldb.put db ~key:"k" ~value:(Data.of_string "old") ();
      Leveldb.flush db;
      Leveldb.put db ~key:"k" ~value:(Data.of_string "new") ();
      (match Leveldb.get db ~key:"k" with
      | Some v ->
          Alcotest.(check string) "latest wins" "new"
            (Bytes.to_string (Data.to_bytes v))
      | None -> Alcotest.fail "missing");
      Leveldb.flush db;
      (match Leveldb.get db ~key:"k" with
      | Some v ->
          Alcotest.(check string) "latest wins across sstables" "new"
            (Bytes.to_string (Data.to_bytes v))
      | None -> Alcotest.fail "missing after flush");
      Leveldb.close db)

let test_leveldb_memtable_flush_on_capacity () =
  with_linefs (fun _d ops ->
      let db = Leveldb.open_db ~ops ~dir:"/db" ~memtable_bytes:(kib 64) () in
      for i = 0 to 127 do
        Leveldb.put db
          ~key:(Printf.sprintf "%08d" i)
          ~value:(Data.synthetic ~seed:i ~len:1024)
          ()
      done;
      Alcotest.(check bool) "flushed automatically" true
        (Leveldb.sstable_count db >= 2);
      Leveldb.close db)

let test_db_bench_workloads_run () =
  List.iter
    (fun w ->
      with_linefs (fun _d ops ->
          let s =
            Leveldb.db_bench ~ops ~dir:"/db" ~workload:w ~n:64
              ~value_bytes:256 ()
          in
          Alcotest.(check int)
            (Leveldb.workload_name w ^ " sample count")
            64 (Stats.Series.count s)))
    [
      Leveldb.Fillseq;
      Leveldb.Fillrandom;
      Leveldb.Fillsync;
      Leveldb.Readseq;
      Leveldb.Readrandom;
      Leveldb.Readhot;
    ]

let test_db_bench_fillsync_slower () =
  let mean w =
    with_linefs (fun _d ops ->
        Stats.Series.mean
          (Leveldb.db_bench ~ops ~dir:"/db" ~workload:w ~n:64 ~value_bytes:256 ()))
  in
  let seq = mean Leveldb.Fillseq in
  let sync = mean Leveldb.Fillsync in
  Alcotest.(check bool)
    (Printf.sprintf "fillsync (%.1fus) slower than fillseq (%.1fus)" sync seq)
    true (sync > seq)

(* ------------------------------------------------------------------ *)
(* Filebench                                                           *)
(* ------------------------------------------------------------------ *)

let test_filebench_profiles_run () =
  List.iter
    (fun profile ->
      let r =
        with_linefs (fun _d ops ->
            Filebench.run ~ops ~profile ~files:60 ~threads:4
              ~duration:(Time.ms 200) ~seed:5 ())
      in
      Alcotest.(check bool)
        (Filebench.profile_name profile ^ " makes progress")
        true
        (r.Filebench.ops_done > 0 && r.Filebench.kops_per_sec > 0.0))
    [ Filebench.Fileserver; Filebench.Varmail ]

let test_filebench_timeseries () =
  let ts = Stats.Timeseries.create ~bucket:(Time.ms 50) in
  let _ =
    with_linefs (fun _d ops ->
        Filebench.run ~ops ~profile:Filebench.Varmail ~files:60 ~threads:4 ~ts
          ~duration:(Time.ms 200) ~seed:5 ())
  in
  let buckets = Stats.Timeseries.buckets ts in
  Alcotest.(check bool) "several buckets populated" true
    (List.length buckets >= 3)

(* ------------------------------------------------------------------ *)
(* Metastorm                                                           *)
(* ------------------------------------------------------------------ *)

let test_metastorm_runs () =
  let r =
    with_linefs (fun _d ops ->
        Metastorm.run ~ops ~files:60 ~threads:4 ~duration:(Time.ms 200)
          ~seed:7 ())
  in
  Alcotest.(check bool)
    "metastorm makes progress" true
    (r.Metastorm.ops_done > 0 && r.Metastorm.kops_per_sec > 0.0)

let test_metastorm_namespace_stays_sane () =
  (* After the storm every surviving file is a complete 512 B payload
     (the temp+rename update is atomic — no torn in-place writes), and
     no temp names leak once their cycle completes the rename.  Checked
     on both clients that keep an unpublished-write index. *)
  let check (ops : Dfs_intf.ops) =
    let _ =
      Metastorm.run ~ops ~files:60 ~threads:4 ~duration:(Time.ms 200) ~seed:7
        ()
    in
    for i = 0 to 59 do
      match ops.Dfs_intf.file_size (Printf.sprintf "/metastorm/f%05d" i) with
      | Some size ->
          Alcotest.(check int)
            (Printf.sprintf "%s file %d complete" ops.Dfs_intf.sysname i)
            512 size
      | None -> () (* unlinked by a REMOVE phase: fine *)
    done
  in
  with_linefs (fun _d ops -> check ops);
  with_assise check

(* ------------------------------------------------------------------ *)
(* Tencent sort                                                        *)
(* ------------------------------------------------------------------ *)

let test_tencent_sort_end_to_end () =
  let r =
    with_linefs (fun d ops ->
        Tencent_sort.run ~ops
          ~node:(Deployment.primary d).Deployment.node
          ~records:2000 ~zero_ratio:0.6 ~seed:11 ())
  in
  Alcotest.(check int) "records preserved" 2000 r.Tencent_sort.records;
  Alcotest.(check int) "output complete" (2000 * 100) r.Tencent_sort.output_bytes;
  Alcotest.(check bool) "phases measured" true
    (r.Tencent_sort.partition_time > 0 && r.Tencent_sort.sort_time > 0)

let test_tencent_sort_compression_saves_wire () =
  let wire zero_ratio compression =
    run_sim (fun () ->
        let d =
          Deployment.create ~params:test_params ~nodes:3 ~compression ()
        in
        let c = Deployment.add_client d ~id:1 in
        let ops = Libfs.ops c in
        let _ =
          Tencent_sort.run ~ops
            ~node:(Deployment.primary d).Deployment.node
            ~records:2000 ~zero_ratio ~seed:11 ()
        in
        Deployment.flush_all d;
        let w = Deployment.replication_wire_bytes d in
        Deployment.stop d;
        w)
  in
  let plain = wire 0.8 false in
  let compressed = wire 0.8 true in
  Alcotest.(check bool)
    (Printf.sprintf "compression reduced wire bytes (%d -> %d)" plain compressed)
    true
    (compressed * 2 < plain)

(* ------------------------------------------------------------------ *)
(* iperf                                                               *)
(* ------------------------------------------------------------------ *)

let test_iperf_saturates_link () =
  run_sim (fun () ->
      let topo = Hw.Topology.create ~nodes:2 () in
      let src = Hw.Topology.node topo 0 and dst = Hw.Topology.node topo 1 in
      let ip = Iperf.start ~src ~dst () in
      Engine.sleep (Time.ms 100);
      Iperf.stop ip;
      let rate = float_of_int (Iperf.bytes_sent ip) /. 0.1 in
      Alcotest.(check bool)
        (Printf.sprintf "near goodput (%.2f GB/s)" (rate /. 1e9))
        true
        (rate > 1.9e9 && rate < 2.3e9))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workloads"
    [
      ( "microbench",
        [
          tc "seq write/read" `Quick test_seq_write_then_read;
          tc "rand read" `Quick test_rand_read_covers_file;
          tc "latency series" `Quick test_latency_series_shape;
        ] );
      ( "streamcluster",
        [
          tc "solo time" `Quick test_streamcluster_solo_time;
          tc "slowed by antagonist" `Quick test_streamcluster_slowed_by_antagonist;
          tc "background stops" `Quick test_streamcluster_background_stops;
        ] );
      ( "leveldb",
        [
          tc "put/get" `Quick test_leveldb_put_get;
          tc "get after flush" `Quick test_leveldb_get_after_flush;
          tc "overwrite latest wins" `Quick test_leveldb_overwrite_latest_wins;
          tc "flush on capacity" `Quick test_leveldb_memtable_flush_on_capacity;
          tc "db_bench workloads run" `Quick test_db_bench_workloads_run;
          tc "fillsync slower" `Quick test_db_bench_fillsync_slower;
        ] );
      ( "filebench",
        [
          tc "profiles run" `Quick test_filebench_profiles_run;
          tc "timeseries" `Quick test_filebench_timeseries;
        ] );
      ( "metastorm",
        [
          tc "runs" `Quick test_metastorm_runs;
          tc "namespace stays sane" `Quick test_metastorm_namespace_stays_sane;
        ] );
      ( "tencent-sort",
        [
          tc "end to end" `Quick test_tencent_sort_end_to_end;
          tc "compression saves wire" `Quick test_tencent_sort_compression_saves_wire;
        ] );
      ("iperf", [ tc "saturates link" `Quick test_iperf_saturates_link ]);
    ]
