(** Shared infrastructure for the per-table / per-figure harness. *)

open Sim
open Linefs

(* Scale factors: the paper writes 12-24 GB files; the harness defaults
   to ~1/64 of that so the full suite runs in minutes, preserving the
   shapes. [--full] restores paper sizes. *)
type scale = { file_bytes : int; log_bytes : int; label : string }

let scaled = { file_bytes = 192 * 1024 * 1024; log_bytes = 32 * 1024 * 1024; label = "scaled (192MB files, 32MB logs)" }
let full = { file_bytes = 12 * 1024 * 1024 * 1024; log_bytes = 512 * 1024 * 1024; label = "full (12GB files, 512MB logs)" }

let current_scale = ref scaled

let params () =
  { Params.default with Params.log_bytes = !current_scale.log_bytes }

(* Run [f] as the root process of a fresh engine and return its value. *)
let in_sim f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn_root eng (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> failwith "bench: root process never finished"

(* Spawn [n] client bodies and wait for all to finish; returns elapsed. *)
let parallel_clients n body =
  let t0 = Engine.now () in
  let live = ref n in
  let all_done = Ivar.create () in
  for i = 1 to n do
    Engine.spawn ~name:(Printf.sprintf "bench.client%d" i) (fun () ->
        body i;
        decr live;
        if !live = 0 then Ivar.fill all_done ())
  done;
  Ivar.read all_done;
  Engine.now () - t0

let gbps bytes elapsed = float_of_int bytes /. Time.to_sec_f elapsed /. 1e9
let mbps bytes elapsed = float_of_int bytes /. Time.to_sec_f elapsed /. 1e6

(* ------------------------------------------------------------------ *)
(* Table printing                                                      *)
(* ------------------------------------------------------------------ *)

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let subheading s = Printf.printf "\n-- %s --\n%!" s

let row_format widths =
  String.concat "  " (List.map (fun w -> Printf.sprintf "%%-%ds" w) widths)

let print_row widths cells =
  List.iteri
    (fun i cell ->
      let w = List.nth widths i in
      Printf.printf "%-*s  " w cell)
    cells;
  print_newline ()

let print_table ~header ~rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  print_row widths header;
  print_row widths (List.map (fun w -> String.make w '-') widths);
  List.iter (print_row widths) rows;
  ignore (row_format widths)

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let pct v = Printf.sprintf "%.0f%%" (v *. 100.0)

(* ------------------------------------------------------------------ *)
(* System constructors used across experiments                         *)
(* ------------------------------------------------------------------ *)

type sysname =
  | Sys_assise
  | Sys_assise_bg
  | Sys_hyperloop
  | Sys_linefs_np
  | Sys_linefs

let sysname_to_string = function
  | Sys_assise -> "Assise"
  | Sys_assise_bg -> "Assise-BgRepl"
  | Sys_hyperloop -> "Assise+Hyperloop"
  | Sys_linefs_np -> "LineFS-NotParallel"
  | Sys_linefs -> "LineFS"

let all_systems =
  [ Sys_assise; Sys_assise_bg; Sys_hyperloop; Sys_linefs_np; Sys_linefs ]

(* A uniform handle over LineFS deployments and Assise clusters. *)
type sys = {
  name : string;
  client : int -> Dfs_intf.ops;
  flush : unit -> unit;
  teardown : unit -> unit;
  wire_bytes : unit -> int;
  node_of : int -> Hw.Node.t;
  dfs_cpu : int -> Stats.Busy.t;
}

let make_system ?(cfg = Hw.Config.testbed_25gbe) ?(nodes = 3)
    ?(dfs_prio = Hw.Cpu.prio_normal) ?(compression = false) ?sharding which =
  let params = params () in
  match which with
  | Sys_linefs | Sys_linefs_np ->
      let d =
        Deployment.create ?sharding ~cfg ~params
          ~pipeline_parallelism:(which = Sys_linefs)
          ~dfs_prio ~compression ~nodes ()
      in
      {
        name = sysname_to_string which;
        client = (fun id -> Libfs.ops (Deployment.add_client d ~id));
        flush = (fun () -> Deployment.flush_all d);
        teardown = (fun () -> Deployment.stop d);
        wire_bytes = (fun () -> Deployment.replication_wire_bytes d);
        node_of = (fun i -> (Deployment.node d i).Deployment.node);
        dfs_cpu = (fun i -> (Deployment.node d i).Deployment.dfs_host_cpu);
      }
  | Sys_assise | Sys_assise_bg | Sys_hyperloop ->
      let variant =
        match which with
        | Sys_assise -> Baselines.Assise.Pessimistic
        | Sys_assise_bg -> Baselines.Assise.Bg_repl
        | Sys_hyperloop -> Baselines.Assise.Hyperloop
        | Sys_linefs | Sys_linefs_np -> assert false
      in
      let a =
        Baselines.Assise.create ?sharding ~cfg ~params ~variant ~dfs_prio
          ~nodes ()
      in
      {
        name = sysname_to_string which;
        client =
          (fun id -> Baselines.Assise.ops (Baselines.Assise.add_client a ~id));
        flush = (fun () -> Baselines.Assise.flush_all a);
        teardown = (fun () -> Baselines.Assise.stop a);
        wire_bytes = (fun () -> Baselines.Assise.replication_wire_bytes a);
        node_of = (fun i -> Baselines.Assise.node a i);
        dfs_cpu = (fun i -> Baselines.Assise.dfs_host_cpu a ~node:i);
      }

(* Start streamcluster antagonists on the given nodes; returns a stop
   function. *)
let busy_replicas sys ~nodes =
  let bgs =
    List.map
      (fun i ->
        Workloads.Streamcluster.start_background ~node:(sys.node_of i) ())
      nodes
  in
  fun () -> List.iter Workloads.Streamcluster.stop bgs
