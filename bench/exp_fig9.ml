(* Figure 9: network bandwidth consumption of Assise and LineFS while
   running Tencent Sort, with input sets of varying compressibility.
   iperf runs in the background to stress the network. We report sort
   runtime, bytes the primary shipped for replication, and the savings
   relative to Assise; plus a bandwidth-over-time series for LineFS. *)

open Sim
open Common

let records () = if !current_scale == Common.full then 10_000_000 else 400_000

(* Body of one (system, compressibility) run, in its own engine. *)
let run_one ~system ~zero_ratio ~with_ts () =
  let sys =
    match system with
    | `Assise -> make_system Sys_assise
    | `Linefs -> make_system ~compression:true Sys_linefs
  in
  let ts =
    if with_ts then begin
      let ts = Stats.Timeseries.create ~bucket:(Time.ms 100) in
      Hw.Bandwidth.on_transfer
        (Hw.Netlink.egress (sys.node_of 0).Hw.Node.port)
        (fun ~at ~bytes -> Stats.Timeseries.add ts ~at (float_of_int bytes));
      Some ts
    end
    else None
  in
  let ops = sys.client 1 in
  (* Background traffic contending for bandwidth. *)
  let ip = Workloads.Iperf.start ~src:(sys.node_of 1) ~dst:(sys.node_of 2) () in
  let r =
    Workloads.Tencent_sort.run ~ops ~node:(sys.node_of 0) ~records:(records ())
      ~zero_ratio ~seed:13 ()
  in
  sys.flush ();
  Workloads.Iperf.stop ip;
  let wire = sys.wire_bytes () in
  sys.teardown ();
  (Time.to_sec_f r.Workloads.Tencent_sort.elapsed, wire, ts)

let run () =
  heading "Figure 9: Tencent Sort with data-path compression";
  Printf.printf "records: %d (100 B each), iperf in background\n" (records ());
  let ratios = [ 0.4; 0.6; 0.8 ] in
  let assise_t, assise_wire, _ =
    in_sim (run_one ~system:`Assise ~zero_ratio:0.6 ~with_ts:false)
  in
  let linefs_results =
    List.map
      (fun ratio ->
        in_sim (run_one ~system:`Linefs ~zero_ratio:ratio ~with_ts:(ratio = 0.8)))
      ratios
  in
  let rows = ref [] in
  let ts80 = ref None in
  List.iter2
    (fun ratio (t, wire, ts) ->
      if ratio = 0.8 then ts80 := ts;
      let saved =
        (float_of_int assise_wire -. float_of_int wire)
        /. float_of_int assise_wire *. 100.0
      in
      rows :=
        [
          Printf.sprintf "LineFS-%.0f%%" (ratio *. 100.0);
          f2 t;
          Printf.sprintf "%.1f MB" (float_of_int wire /. 1e6);
          Printf.sprintf "%.0f%%" saved;
        ]
        :: !rows)
    ratios linefs_results;
  print_table
    ~header:[ "system"; "sort time (s)"; "replication bytes"; "net saved" ]
    ~rows:
      ([
         "Assise";
         f2 assise_t;
         Printf.sprintf "%.1f MB" (float_of_int assise_wire /. 1e6);
         "0%";
       ]
      :: List.rev !rows);
  match !ts80 with
  | Some ts ->
      subheading "LineFS-80% primary egress bandwidth over time";
      List.iter
        (fun (sec, rate) -> Printf.printf "  t=%5.1fs  %6.2f GB/s\n" sec (rate /. 1e9))
        (Stats.Timeseries.rate_per_sec ts)
  | None -> ()
