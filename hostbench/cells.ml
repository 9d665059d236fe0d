(* The four workloads.  Each is a closed loop: every simulated client
   issues its next call only when the previous one returned, and the
   host runs the simulation as fast as it can.  A workload is a set of
   cells; a cell runs on one engine and records its own calls, set-up
   time and simulated outputs. *)

open Sim
open Linefs

type env = {
  seed : int;
  size : float;  (** 1.0 is the benchmark size; smoke and probes shrink it *)
  domains : int;
  traced : bool;
}

type cell = {
  calls : Probe.calls;
  mutable setup_s : float;
  mutable out : string;
  mutable errors : string list;
}

let new_cell env i =
  { calls = Probe.calls ~traced:env.traced i; setup_s = 0.0; out = ""; errors = [] }

(* Run a constructor, adding its host time to the cell's set-up. *)
let setup c f =
  let r, s = Probe.host_time f in
  c.setup_s <- c.setup_s +. s;
  Probe.get r

let check c ok fmt =
  Printf.ksprintf (fun msg -> if not ok then c.errors <- msg :: c.errors) fmt

(* [n] at the run's size, in whole [unit]s, at least one. *)
let scaled env n ~unit =
  max unit (int_of_float (float_of_int n *. env.size) / unit * unit)

let mb = 1024 * 1024
let io_bytes = 16 * 1024

(* ------------------------------------------------------------------ *)
(* Systems under test                                                  *)
(* ------------------------------------------------------------------ *)

type system = Assise | Assise_bg | Hyperloop | Linefs_np | Linefs

let system_name = function
  | Assise -> "Assise"
  | Assise_bg -> "Assise-BgRepl"
  | Hyperloop -> "Assise+Hyperloop"
  | Linefs_np -> "LineFS-NotParallel"
  | Linefs -> "LineFS"

type sys = {
  client : int -> Dfs_intf.ops;
  node : int -> Hw.Node.t;
  wire : unit -> int;
  flush : unit -> unit;
  stop : unit -> unit;
}

let params = { Params.default with Params.log_bytes = 32 * mb }

let make_sys ?(compression = false) ?(dfs_prio = Hw.Cpu.prio_normal) which =
  match which with
  | Linefs | Linefs_np ->
      let d =
        Deployment.create ~params ~pipeline_parallelism:(which = Linefs)
          ~dfs_prio ~compression ~nodes:3 ()
      in
      {
        client = (fun id -> Libfs.ops (Deployment.add_client d ~id));
        node = (fun i -> (Deployment.node d i).Deployment.node);
        wire = (fun () -> Deployment.replication_wire_bytes d);
        flush = (fun () -> Deployment.flush_all d);
        stop = (fun () -> Deployment.stop d);
      }
  | Assise | Assise_bg | Hyperloop ->
      let module A = Baselines.Assise in
      let variant =
        match which with
        | Assise_bg -> A.Bg_repl
        | Hyperloop -> A.Hyperloop
        | _ -> A.Pessimistic
      in
      let a = A.create ~params ~variant ~dfs_prio ~nodes:3 () in
      {
        client = (fun id -> A.ops (A.add_client a ~id));
        node = A.node a;
        wire = (fun () -> A.replication_wire_bytes a);
        flush = (fun () -> A.flush_all a);
        stop = (fun () -> A.stop a);
      }

(* Spawn one process per client and wait for all of them. *)
let run_clients n body =
  let live = ref n in
  let all_done = Ivar.create () in
  for i = 1 to n do
    Engine.spawn ~name:(Printf.sprintf "hb.client%d" i) (fun () ->
        body i;
        decr live;
        if !live = 0 then Ivar.fill all_done ())
  done;
  Ivar.read all_done

(* Independent cells, one engine each, every engine seeded alike so the
   results are the same at every domain count.  Returns the batch
   runner's stats when it used one. *)
let in_engines env bodies =
  if env.domains <= 1 then begin
    List.iter
      (fun body ->
        let eng = Engine.create ~seed:env.seed () in
        Engine.spawn_root eng body;
        Engine.run eng)
      bodies;
    None
  end
  else begin
    (* Same GC regime the repository's multi-domain batches use: a
       large per-domain minor heap so stop-the-world minor collections
       do not serialize the domains. *)
    let g = Gc.get () in
    Gc.set { g with Gc.minor_heap_size = 8 * mb; space_overhead = 200 };
    let sh =
      Sharded.create ~seed_of:(fun _ -> env.seed) ~shards:(List.length bodies) ()
    in
    List.iteri (fun i body -> Sharded.spawn_root sh ~shard:i body) bodies;
    Fun.protect ~finally:(fun () -> Gc.set g) (fun () ->
        Sharded.run ~domains:env.domains sh);
    Some sh
  end

(* ------------------------------------------------------------------ *)
(* fanin_write: the fig4 grid                                          *)
(* ------------------------------------------------------------------ *)

let fanin_cell env c which ~busy ~clients () =
  let dfs_prio = if busy then Hw.Cpu.prio_high else Hw.Cpu.prio_normal in
  let sys = setup c (fun () -> make_sys ~dfs_prio which) in
  let bgs =
    if busy then
      List.map
        (fun i -> Workloads.Streamcluster.start_background ~node:(sys.node i) ())
        [ 1; 2 ]
    else []
  in
  let file_bytes = scaled env (192 * mb / clients) ~unit:io_bytes in
  let opses =
    Array.init clients (fun i -> Probe.wrap c.calls ~client:(i + 1) (sys.client (i + 1)))
  in
  let path i = Printf.sprintf "/fanin-%d" i in
  let t0 = Engine.now () in
  run_clients clients (fun i ->
      Workloads.Microbench.seq_write ~ops:opses.(i - 1) ~path:(path i) ~file_bytes
        ~io_bytes
        ~seed:((env.seed * 1_000_003) + (c.calls.Probe.cell * 16) + i)
        ());
  let elapsed = Engine.now () - t0 in
  Array.iteri
    (fun i ops ->
      let size = ops.Dfs_intf.file_size (path (i + 1)) in
      check c (size = Some file_bytes) "%s: client %d wrote %s of %d bytes"
        (system_name which) (i + 1)
        (match size with Some n -> string_of_int n | None -> "no file")
        file_bytes)
    opses;
  List.iter Workloads.Streamcluster.stop bgs;
  c.out <-
    Printf.sprintf "%s busy=%b clients=%d elapsed=%d wire=%d" (system_name which) busy
      clients elapsed (sys.wire ());
  sys.stop ()

let fanin_write env =
  let grid =
    List.concat_map
      (fun busy ->
        List.concat_map
          (fun which -> List.map (fun n -> (which, busy, n)) [ 1; 2; 4; 8 ])
          [ Assise; Assise_bg; Hyperloop; Linefs_np; Linefs ])
      [ false; true ]
  in
  let cells = List.mapi (fun i _ -> new_cell env i) grid in
  let sh =
    in_engines env
      (List.map2
         (fun c (which, busy, clients) -> fanin_cell env c which ~busy ~clients)
         cells grid)
  in
  (cells, sh)

(* ------------------------------------------------------------------ *)
(* sort_compress: the fig9 setup                                       *)
(* ------------------------------------------------------------------ *)

let sort_cell env c ~which ~zero_ratio () =
  let sys = setup c (fun () -> make_sys ~compression:(which = Linefs) which) in
  let ops = Probe.wrap c.calls ~client:1 (sys.client 1) in
  let ip = Workloads.Iperf.start ~src:(sys.node 1) ~dst:(sys.node 2) () in
  let records = scaled env 200_000 ~unit:1000 in
  let r =
    Workloads.Tencent_sort.run ~ops ~node:(sys.node 0) ~records ~zero_ratio
      ~seed:env.seed ()
  in
  sys.flush ();
  Workloads.Iperf.stop ip;
  let module T = Workloads.Tencent_sort in
  check c (r.T.records = records) "sort: %d of %d records" r.T.records records;
  check c (r.T.output_bytes = records * 100) "sort: %d output bytes for %d records"
    r.T.output_bytes records;
  c.out <-
    Printf.sprintf "%s zeros=%.1f elapsed=%d partition=%d sort=%d wire=%d"
      (system_name which) zero_ratio r.T.elapsed r.T.partition_time r.T.sort_time
      (sys.wire ());
  sys.stop ()

let sort_compress env =
  let runs =
    (Assise, 0.6) :: List.map (fun z -> (Linefs, z)) [ 0.4; 0.6; 0.8 ]
  in
  let cells = List.mapi (fun i _ -> new_cell env i) runs in
  ignore
    (in_engines { env with domains = 1 }
       (List.map2
          (fun c (which, zero_ratio) -> sort_cell env c ~which ~zero_ratio)
          cells runs));
  (cells, None)

(* ------------------------------------------------------------------ *)
(* metadata_churn: Metastorm on LineFS                                 *)
(* ------------------------------------------------------------------ *)

let metadata_churn env =
  let c = new_cell env 0 in
  let body () =
    let sys = setup c (fun () -> make_sys Linefs) in
    let ops = Probe.wrap c.calls ~client:1 (sys.client 1) in
    let duration = Time.us (scaled env 400_000 ~unit:1000) in
    let r =
      Workloads.Metastorm.run ~ops ~files:2000 ~threads:4 ~duration ~seed:env.seed ()
    in
    sys.flush ();
    let module M = Workloads.Metastorm in
    check c (r.M.ops_done > 0) "metastorm: no operation completed";
    c.out <-
      Printf.sprintf "ops=%d elapsed=%d wire=%d" r.M.ops_done r.M.elapsed (sys.wire ());
    sys.stop ()
  in
  ignore (in_engines { env with domains = 1 } [ body ]);
  ([ c ], None)

(* ------------------------------------------------------------------ *)
(* rack_sharded: a 24-node rack on Sim.Sharded                         *)
(* ------------------------------------------------------------------ *)

let rack_nodes = 24
let rack_group_size = 4
let rack_cohort = 4

(* One group's cohort: K users multiplexed over one LibFS, writing
   their own files round-robin, one IO per user per round (the shape
   of Workloads.Rack_cohort, with seeded content and recorded calls). *)
let group_body env rack c ~grp () =
  let group_bytes = scaled env (1024 * mb) ~unit:(rack_cohort * io_bytes) in
  let per_user = group_bytes / rack_cohort in
  let cli = Rack.attach rack ~group:grp ~id:(grp + 1) in
  let coh = Cohort.create ~ops:(Libfs.ops cli) ~users:rack_cohort () in
  let uops =
    Array.init rack_cohort (fun u -> Probe.wrap c.calls ~client:u (Cohort.user_ops coh u))
  in
  let dir = Rack.owned_dir rack ~group:grp ~salt:env.seed in
  uops.(0).Dfs_intf.mkdir dir;
  let t0 = Engine.now () in
  let fds =
    Array.init rack_cohort (fun u ->
        uops.(u).Dfs_intf.create (Printf.sprintf "%s/u%d" dir u))
  in
  let streams =
    Array.init rack_cohort (fun u ->
        Storage.Data.synthetic
          ~seed:((env.seed * 1_000_003) + (grp * 1009) + u)
          ~len:per_user)
  in
  for r = 0 to (per_user / io_bytes) - 1 do
    for u = 0 to rack_cohort - 1 do
      uops.(u).Dfs_intf.append fds.(u)
        (Storage.Data.sub streams.(u) ~pos:(r * io_bytes) ~len:io_bytes)
    done
  done;
  Array.iteri
    (fun u fd ->
      uops.(u).Dfs_intf.fsync fd;
      uops.(u).Dfs_intf.close fd)
    fds;
  Deployment.flush_all (Rack.group rack grp);
  let s = Cohort.totals coh in
  check c (s.Cohort.bytes_written = group_bytes) "group %d wrote %d of %d bytes" grp
    s.Cohort.bytes_written group_bytes;
  check c (s.Cohort.fsyncs = rack_cohort) "group %d: %d fsyncs" grp s.Cohort.fsyncs;
  c.out <-
    Printf.sprintf "group=%d dir=%s elapsed=%d ops=%d bytes=%d" grp dir
      (Engine.now () - t0) s.Cohort.ops_issued s.Cohort.bytes_written

let groups = rack_nodes / rack_group_size

let rack_outputs rack cells =
  let c0 = List.hd cells in
  c0.out <-
    Printf.sprintf "%s rack-wire=%d" c0.out (Rack.replication_wire_bytes rack)

(* The rack on one Sharded runner, one shard per node (the workload). *)
let rack_sharded env =
  let cells = List.init groups (new_cell env) in
  let c0 = List.hd cells in
  let sh =
    setup c0 (fun () ->
        Sharded.create ~seed_of:(fun _ -> env.seed) ~shards:rack_nodes ())
  in
  let rack =
    setup c0 (fun () ->
        Rack.create ~sharding:(sh, 0) ~params ~nodes:rack_nodes
          ~group_size:rack_group_size ())
  in
  List.iteri
    (fun grp c ->
      Sharded.spawn_root ~name:"hb.group" sh ~shard:(Rack.shard_of_group rack grp)
        (group_body env rack c ~grp))
    cells;
  Sharded.run ~domains:env.domains sh;
  rack_outputs rack cells;
  (cells, Some sh)

(* The same rack on one engine: the base of sharded.overhead_ratio. *)
let rack_single_engine env =
  let cells = List.init groups (new_cell env) in
  let c0 = List.hd cells in
  let eng = Engine.create ~seed:env.seed () in
  let rack = ref None in
  Engine.spawn_root eng (fun () ->
      let r =
        setup c0 (fun () ->
            Rack.create ~params ~nodes:rack_nodes ~group_size:rack_group_size ())
      in
      rack := Some r;
      List.iteri
        (fun grp c -> Engine.spawn ~name:"hb.group" (group_body env r c ~grp))
        cells);
  Engine.run eng;
  Option.iter (fun r -> rack_outputs r cells) !rack;
  (cells, None)

let workloads =
  [
    ("fanin_write", fanin_write);
    ("sort_compress", sort_compress);
    ("metadata_churn", metadata_churn);
    ("rack_sharded", rack_sharded);
  ]
