(* Figure 4: write throughput scalability with replicas idle and busy.
   Each client writes its own file sequentially with 16 KB IOs and
   calls fsync at the end; "busy" adds streamcluster on the replicas
   with the DFS given higher scheduling priority (as in §5.2.1). *)

open Common

let io_bytes = 16 * 1024

(* Body of one (system, busy, clients) cell; runs inside its own
   engine. *)
let run_one which ~busy ~clients () =
  let dfs_prio = if busy then Hw.Cpu.prio_high else Hw.Cpu.prio_normal in
  let sys = make_system ~dfs_prio which in
  let stop_bg =
    if busy then busy_replicas sys ~nodes:[ 1; 2 ] else fun () -> ()
  in
  let file_bytes = !current_scale.file_bytes / clients in
  let opses = List.init clients (fun i -> sys.client (i + 1)) in
  let elapsed =
    parallel_clients clients (fun i ->
        let ops = List.nth opses (i - 1) in
        Workloads.Microbench.seq_write ~ops
          ~path:(Printf.sprintf "/fig4-%d" i)
          ~file_bytes ~io_bytes ())
  in
  stop_bg ();
  let tput = gbps (clients * file_bytes) elapsed in
  sys.teardown ();
  tput

let run () =
  heading "Figure 4: write throughput scalability (GB/s)";
  let counts = [ 1; 2; 4; 8 ] in
  List.iter
    (fun busy ->
      subheading (if busy then "replicas busy" else "replicas idle");
      let rows =
        List.map
          (fun which ->
            sysname_to_string which
            :: List.map
                 (fun n -> f2 (in_sim (run_one which ~busy ~clients:n)))
                 counts)
          all_systems
      in
      print_table
        ~header:("system" :: List.map (fun n -> Printf.sprintf "%d cli" n) counts)
        ~rows)
    [ false; true ]
