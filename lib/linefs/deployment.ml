open Sim

type node_rt = {
  node : Hw.Node.t;
  fs : Storage.Fs_state.t;
  kworker : Kworker.t;
  nicfs : Nicfs.t;
  dfs_host_cpu : Stats.Busy.t;
}

type t = {
  prm : Params.t;
  topo : Hw.Topology.t;
  rts : node_rt array;
  dfs_prio : Hw.Cpu.prio;
  mutable cls : Libfs.t list;
  monitoring : bool;
}

let create ?(cfg = Hw.Config.testbed_25gbe) ?(params = Params.default)
    ?(pipeline_parallelism = true) ?(kworker_mode = Kworker.Dma_interrupt_batch)
    ?(dfs_prio = Hw.Cpu.prio_normal) ?(compression = false)
    ?(coalescing = false) ?(monitor = false) ?(apply_on_publish = false)
    ?sharding ~nodes () =
  let params = { params with Params.replicas = nodes } in
  let topo = Hw.Topology.create ~cfg ~nodes () in
  let build_rt node =
    let fs = Storage.Fs_state.create () in
    let dfs_host_cpu = Stats.Busy.create () in
    let kworker =
      Kworker.create ~mode:kworker_mode ~prio:dfs_prio
        ~account:dfs_host_cpu ~params ~node ()
    in
    (* Each NICFS runs in its own process group so fault injection
       can power-fail one node's SmartNIC without touching the
       others (the host-side kworker survives, as on real hardware
       where the host OS outlives a NIC reset). *)
    let group =
      Sim.Engine.make_group (Printf.sprintf "nicfs%d" node.Hw.Node.id)
    in
    let nicfs =
      Nicfs.create ~pipeline_parallelism ~coalescing ~compression
        ~apply_on_publish ~group ~params ~node ~fs ~kworker ()
    in
    { node; fs; kworker; nicfs; dfs_host_cpu }
  in
  (* With [sharding], node [i] (host + SmartNIC plane) is built — and
     lives — on shard [base + i]. *)
  Net.Fabric.place ?sharding topo.Hw.Topology.nodes;
  let rts =
    Array.map
      (fun node ->
        Net.Fabric.start ~name:"deploy.boot" node (fun () -> build_rt node))
      topo.Hw.Topology.nodes
  in
  (* Wire the replication chain 0 -> 1 -> ... -> n-1, and tell each
     node exactly whose acks complete its chunks (everyone downstream)
     so chain reconfiguration can later shrink that set per node. *)
  Array.iteri
    (fun i rt ->
      let next = if i + 1 < Array.length rts then Some rts.(i + 1).nicfs else None in
      Nicfs.set_next_hop rt.nicfs next;
      let targets = ref [] in
      for j = Array.length rts - 1 downto i + 1 do
        targets := rts.(j).node.Hw.Node.id :: !targets
      done;
      Nicfs.set_repl_targets rt.nicfs ~targets:!targets)
    rts;
  if monitor then
    Array.iter
      (fun rt ->
        Net.Fabric.start ~name:"deploy.monitor" rt.node (fun () ->
            Nicfs.start_monitor rt.nicfs))
      rts;
  { prm = params; topo; rts; dfs_prio; cls = []; monitoring = monitor }

let params t = t.prm
let node_count t = Array.length t.rts
let node t i = t.rts.(i)
let primary t = t.rts.(0)
let replicas t = List.tl (Array.to_list t.rts)

(* Reconfigure the replication chain over the nodes [up] says are
   usable (served by NIC or host fallback — only dead nodes drop out),
   keeping id order.  Each survivor's ack-completion set shrinks to its
   live downstream, and the primary re-evaluates outstanding ack sets:
   chunks waiting only on dead replicas complete immediately, while
   chunks some survivor never persisted keep being retransmitted — now
   to the new successor — until the shrunk set acks.  Idempotent, so
   the cluster manager may call it on every service transition. *)
let rebuild_chain t ~up =
  let n = Array.length t.rts in
  let live = ref [] in
  for i = n - 1 downto 0 do
    if up i then live := i :: !live
  done;
  Array.iteri
    (fun i rt ->
      if up i then begin
        let downstream = List.filter (fun j -> j > i) !live in
        let next =
          match downstream with
          | [] -> None
          | j :: _ -> Some t.rts.(j).nicfs
        in
        Nicfs.set_next_hop rt.nicfs next;
        Nicfs.set_repl_targets rt.nicfs ~targets:downstream
      end
      else Nicfs.set_next_hop rt.nicfs None)
    t.rts;
  Nicfs.reeval_acks (primary t).nicfs

let add_client t ~id =
  let p = primary t in
  let c =
    Libfs.create ~prio:t.dfs_prio ~account:p.dfs_host_cpu ~params:t.prm
      ~node:p.node ~nicfs:p.nicfs ~fs:p.fs ~id ()
  in
  t.cls <- c :: t.cls;
  c

let clients t = List.rev t.cls

let flush_all t =
  List.iter
    (fun c -> Nicfs.flush (primary t).nicfs ~client:(Libfs.id c))
    t.cls

(* Called from the workload body on the primary's engine. *)
let stop t =
  if t.monitoring then
    Array.iter
      (fun rt ->
        Net.Fabric.run_on ~from:(primary t).node ~name:"deploy.stop-monitor"
          rt.node (fun () -> Nicfs.stop_monitor rt.nicfs))
      t.rts

let replication_wire_bytes t = Nicfs.replicated_wire_bytes (primary t).nicfs

let total_host_dfs_cpu t =
  Array.fold_left
    (fun acc rt -> acc + Stats.Busy.busy_time rt.dfs_host_cpu)
    0 t.rts
