(* Command-line driver: run a configurable write workload against any of
   the DFS implementations and report throughput, latency and resource
   usage. Examples:

     dune exec bin/linefs_sim.exe -- --system linefs --clients 4
     dune exec bin/linefs_sim.exe -- --system assise --file-mb 64 --busy
     dune exec bin/linefs_sim.exe -- --system linefs-np --io-kb 4 --latency
     dune exec bin/linefs_sim.exe -- --workload metastorm --files 2000
*)

open Sim
open Linefs
open Cmdliner

type system = Linefs | Linefs_np | Assise | Assise_bg | Hyperloop

let system_conv =
  Arg.enum
    [
      ("linefs", Linefs);
      ("linefs-np", Linefs_np);
      ("assise", Assise);
      ("assise-bg", Assise_bg);
      ("hyperloop", Hyperloop);
    ]

type workload = Seq_write | Metastorm

let workload_conv =
  Arg.enum [ ("seq", Seq_write); ("metastorm", Metastorm) ]

(* Build the system under test.  With [sharding] the deployment is
   partitioned per node across the Sharded runner (call from outside
   any engine); without it, call from inside the engine's process
   context. *)
let make_system ?sharding system busy params =
  match system with
  | Linefs | Linefs_np ->
      let d =
        Deployment.create ?sharding ~params
          ~pipeline_parallelism:(system = Linefs)
          ~dfs_prio:(if busy then Hw.Cpu.prio_high else Hw.Cpu.prio_normal)
          ~nodes:3 ()
      in
      ( (if system = Linefs then "LineFS" else "LineFS-NotParallel"),
        (fun id -> Libfs.ops (Deployment.add_client d ~id)),
        (fun i -> (Deployment.node d i).Deployment.node),
        (fun () -> Deployment.total_host_dfs_cpu d),
        fun () -> Deployment.stop d )
  | Assise | Assise_bg | Hyperloop ->
      let variant =
        match system with
        | Assise -> Baselines.Assise.Pessimistic
        | Assise_bg -> Baselines.Assise.Bg_repl
        | _ -> Baselines.Assise.Hyperloop
      in
      let a =
        Baselines.Assise.create ?sharding ~params ~variant
          ~dfs_prio:(if busy then Hw.Cpu.prio_high else Hw.Cpu.prio_normal)
          ~nodes:3 ()
      in
      ( Baselines.Assise.variant_name variant,
        (fun id -> Baselines.Assise.ops (Baselines.Assise.add_client a ~id)),
        (fun i -> Baselines.Assise.node a i),
        (fun () -> Baselines.Assise.total_host_dfs_cpu a),
        fun () -> Baselines.Assise.stop a )

(* The measurement proper, over an already-built system. *)
let workload_body (name, client_ops, node_of, total_dfs_cpu, teardown)
    workload clients file_mb io_kb files duration_ms busy latency_mode () =
  let file_bytes = file_mb * 1024 * 1024 in
  let io_bytes = io_kb * 1024 in
  let stop_bg =
    if busy then begin
      let bgs =
        List.map
          (fun i ->
            Workloads.Streamcluster.start_background ~node:(node_of i) ())
          [ 1; 2 ]
      in
      fun () -> List.iter Workloads.Streamcluster.stop bgs
    end
    else fun () -> ()
  in
  Fmt.pr "system: %s, %d client(s), %d MB file, %d KB IOs%s@." name clients
    file_mb io_kb
    (if busy then ", replicas busy" else "");
  if workload = Metastorm then begin
    let ops = client_ops 1 in
    let r =
      Workloads.Metastorm.run ~ops ~files ~threads:(clients * 4)
        ~duration:(Time.ms duration_ms) ~seed:42 ()
    in
    Fmt.pr
      "metastorm: %d ops in %a of simulated time: %.1f kops/s (%d files, %d \
       threads)@."
      r.Workloads.Metastorm.ops_done Time.pp r.Workloads.Metastorm.elapsed
      r.Workloads.Metastorm.kops_per_sec files (clients * 4)
  end
  else if latency_mode then begin
    let ops = client_ops 1 in
    let series =
      Workloads.Microbench.write_fsync_latency ~ops ~path:"/lat"
        ~n_ops:(file_bytes / io_bytes) ~io_bytes ()
    in
    Fmt.pr "write+fsync latency: avg %.1f us, p50 %.1f, p99 %.1f, p99.9 %.1f@."
      (Stats.Series.mean series)
      (Stats.Series.percentile series 50.0)
      (Stats.Series.percentile series 99.0)
      (Stats.Series.percentile series 99.9)
  end
  else begin
    let opses = List.init clients (fun i -> client_ops (i + 1)) in
    let t0 = Engine.now () in
    let live = ref clients in
    let all_done = Ivar.create () in
    List.iteri
      (fun i ops ->
        Engine.spawn ~name:(Printf.sprintf "cli%d" i) (fun () ->
            Workloads.Microbench.seq_write ~ops
              ~path:(Printf.sprintf "/bench%d" i)
              ~file_bytes:(file_bytes / clients) ~io_bytes ();
            decr live;
            if !live = 0 then Ivar.fill all_done ()))
      opses;
    Ivar.read all_done;
    let elapsed = Engine.now () - t0 in
    Fmt.pr "wrote %d MB in %a of simulated time: %.2f GB/s@." file_mb
      Time.pp elapsed
      (float_of_int file_bytes /. Time.to_sec_f elapsed /. 1e9);
    Fmt.pr "host DFS CPU consumed across the cluster: %a (%.2f cores avg)@."
      Time.pp (total_dfs_cpu ())
      (float_of_int (total_dfs_cpu ()) /. float_of_int elapsed)
  end;
  stop_bg ();
  teardown ()

(* After a sharded run: fold every shard's counters into the global
   table and print the deployment line.  Neither carries a domain
   count, so stdout stays byte-identical when only [--domains]
   changes; the cross-shard sync detail goes to stderr, since
   [parallel] depends on the domain count and on which domain claims
   which component. *)
let report_sharded sh =
  for i = 0 to Sharded.shard_count sh - 1 do
    Counters.merge (Sharded.engine sh i)
  done;
  Sharded.counters_record sh;
  Fmt.pr "sharded deployment: %d node shards, %d windows@."
    (Sharded.shard_count sh) (Sharded.windows_run sh);
  let s = Sharded.stats sh in
  Fmt.epr
    "sharded sync: windows=%d parallel=%d barrier-waits=%d fast-forward=%d \
     messages=%d batch-max=%d horizon-extended=%d@."
    s.Sharded.windows s.Sharded.parallel_windows s.Sharded.barrier_waits
    s.Sharded.fast_forwards s.Sharded.messages s.Sharded.batch_max
    s.Sharded.extended_horizons

(* Rack-scale run: [nodes] machines as independent replica groups of
   [group_size] on one sharded runner (one shard per node, no
   cross-group edges), each group driven by a cohort of [cohort]
   logical users multiplexed over one LibFS.  Per-group output is
   buffered and printed in group order, so stdout is byte-identical at
   every domain count. *)
let run_rack ~nodes ~group_size ~cohort ~file_mb ~io_kb ~domains params =
  let sh = Sharded.create ~seed_of:(fun _ -> 42) ~shards:nodes () in
  let rack = Rack.create ~sharding:(sh, 0) ~params ~nodes ~group_size () in
  let g = Rack.group_count rack in
  let group_bytes = file_mb * 1024 * 1024 / g in
  let collect =
    Workloads.Rack_cohort.spawn ~sh ~rack ~cohort ~group_bytes
      ~io_bytes:(io_kb * 1024) ()
  in
  Sharded.run ~domains sh;
  let results = collect () in
  Array.iteri
    (fun grp r ->
      let s = r.Workloads.Rack_cohort.totals in
      Fmt.pr "group %d (dir %s): %d users, %d ops, %d MB written, %a@." grp
        r.Workloads.Rack_cohort.dir cohort s.Cohort.ops_issued
        (s.Cohort.bytes_written / 1024 / 1024)
        Time.pp r.Workloads.Rack_cohort.elapsed)
    results;
  let slowest =
    Array.fold_left
      (fun acc r -> max acc r.Workloads.Rack_cohort.elapsed)
      0 results
  in
  let written =
    Array.fold_left
      (fun acc r ->
        acc + r.Workloads.Rack_cohort.totals.Cohort.bytes_written)
      0 results
  in
  Fmt.pr "rack: %d nodes, %d groups of %d, %d MB total in %a: %.2f GB/s@."
    nodes g group_size
    (written / 1024 / 1024)
    Time.pp slowest
    (float_of_int written /. Time.to_sec_f slowest /. 1e9);
  report_sharded sh

let run_bench system workload clients file_mb io_kb log_mb files duration_ms
    busy latency_mode domains shard_deployment nodes group_size cohort =
  let params =
    { Params.default with Params.log_bytes = log_mb * 1024 * 1024 }
  in
  if nodes > 0 then begin
    run_rack ~nodes ~group_size ~cohort ~file_mb ~io_kb ~domains params;
    match Counters.all () with
    | [] -> ()
    | counters ->
        Fmt.pr "events:@.";
        List.iter (fun (name, n) -> Fmt.pr "  %-24s %d@." name n) counters
  end
  else begin
  let body sys =
    workload_body sys workload clients file_mb io_kb files duration_ms busy
      latency_mode
  in
  if shard_deployment then begin
    (* One deployment, one shard per node: host + SmartNIC plane of
       node i live on shard i; replication chunks, acks and lease
       records cross declared fabric-latency edges.  The workload and
       its clients run on the primary's shard.  Output must be
       byte-identical at every domain count. *)
    let sh = Sharded.create ~seed_of:(fun _ -> 42) ~shards:3 () in
    let sys = make_system ~sharding:(sh, 0) system busy params in
    Sharded.spawn_root ~name:"bench" sh ~shard:0 (body sys);
    Sharded.run ~domains sh;
    report_sharded sh
  end
  else begin
    let eng = Engine.create () in
    Engine.spawn_root eng (fun () -> body (make_system system busy params) ());
    Engine.run eng;
    Counters.merge eng
  end;
  (* Robustness event counters (retransmits, dedup hits, NACKed
     frames, scrub actions...) — all zero, and therefore silent, on a
     fault-free run. *)
  (match Counters.all () with
  | [] -> ()
  | counters ->
      Fmt.pr "events:@.";
      List.iter (fun (name, n) -> Fmt.pr "  %-24s %d@." name n) counters)
  end

let cmd =
  let system =
    Arg.(
      value
      & opt system_conv Linefs
      & info [ "system"; "s" ] ~doc:"DFS to run: $(docv)."
          ~docv:"linefs|linefs-np|assise|assise-bg|hyperloop")
  in
  let clients =
    Arg.(value & opt int 1 & info [ "clients"; "c" ] ~doc:"Concurrent clients.")
  in
  let file_mb =
    Arg.(value & opt int 64 & info [ "file-mb" ] ~doc:"Total MB to write.")
  in
  let io_kb = Arg.(value & opt int 16 & info [ "io-kb" ] ~doc:"IO size in KB.") in
  let log_mb =
    Arg.(value & opt int 32 & info [ "log-mb" ] ~doc:"Client log size in MB.")
  in
  let workload =
    Arg.(
      value
      & opt workload_conv Seq_write
      & info [ "workload"; "w" ]
          ~doc:"Workload to drive: $(docv)." ~docv:"seq|metastorm")
  in
  let files =
    Arg.(
      value & opt int 2000
      & info [ "files" ] ~doc:"Metastorm working-set size (files).")
  in
  let duration_ms =
    Arg.(
      value & opt int 500
      & info [ "duration-ms" ] ~doc:"Metastorm run duration (simulated ms).")
  in
  let busy =
    Arg.(value & flag & info [ "busy" ] ~doc:"Run streamcluster on replicas.")
  in
  let latency =
    Arg.(
      value & flag
      & info [ "latency" ] ~doc:"Measure per-op write+fsync latency instead.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Spread the node shards of --shard-deployment or --nodes runs \
             over $(docv) OS domains." ~docv:"N")
  in
  let shard_deployment =
    Arg.(
      value & flag
      & info [ "shard-deployment" ]
          ~doc:
            "Partition the single deployment per node across Sim.Sharded \
             shards (one shard per node, fabric-latency edges between them) \
             and run them over --domains domains. Output is byte-identical \
             at every domain count.")
  in
  let nodes =
    Arg.(
      value & opt int 0
      & info [ "nodes" ]
          ~doc:
            "Rack-scale run: $(docv) nodes as independent replica groups of \
             --group-size on a sharded runner (one shard per node), each \
             group driven by a --cohort of users. 0 disables."
          ~docv:"N")
  in
  let group_size =
    Arg.(
      value & opt int 3
      & info [ "group-size" ] ~doc:"Nodes per replica group (rack runs).")
  in
  let cohort =
    Arg.(
      value & opt int 1
      & info [ "cohort" ]
          ~doc:"Logical users per group, multiplexed over one LibFS.")
  in
  Cmd.v
    (Cmd.info "linefs_sim" ~doc:"LineFS simulation workbench")
    Term.(
      const run_bench $ system $ workload $ clients $ file_mb $ io_kb $ log_mb
      $ files $ duration_ms $ busy $ latency $ domains $ shard_deployment
      $ nodes $ group_size $ cohort)

let () = exit (Cmd.eval cmd)
