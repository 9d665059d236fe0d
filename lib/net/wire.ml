(* Shard routing for cross-node traffic (private to this library).

   A node placed on a {!Sim.Sharded} runner (see {!Fabric.place}) owns
   its host and SmartNIC state on one shard.  A transfer between nodes
   on different shards cannot run as one blocking move: it would sleep
   on the source engine and mutate destination-side state (PM device
   time, port receive counter) owned by another domain.  Routed sends
   split it instead:

     source shard:       [send_src]      (PM read, host PCIe hop,
                                          egress share)
     cross-shard delay:  [flight ~dst]   (switch latency, plus the
                                          destination PCIe hop for
                                          host memory)
     destination shard:  [land_dst]      (port accounting, PM write
                                          placement)

   The three pieces charge exactly the costs [Rdma.move] charges, in
   the same order; only the shard executing each half differs. *)

open Hw

let pm_charge medium (node : Node.t) ~write n =
  match medium with
  | `Dram -> ()
  | `Pm -> if write then Pm.write node.pm n else Pm.read node.pm n

type route = { sh : Sim.Sharded.t; src : int; dst : int }

(* [None]: both ends share an engine (same shard, or no placement). *)
let route ~src ~dst =
  match ((Loc.node src).Node.shard, (Loc.node dst).Node.shard) with
  | Some (sh, a), Some (_, b) when a <> b -> Some { sh; src = a; dst = b }
  | _ -> None

(* Blocking primitives run entirely on the calling engine, so both ends
   must live there. *)
let check_local what ~src ~dst =
  match route ~src ~dst with
  | None -> ()
  | Some r ->
      invalid_arg
        (Format.asprintf
           "%s: %a (shard %d) and %a (shard %d) are on different shards" what
           Loc.pp src r.src Loc.pp dst r.dst)

let send r ~delay ~name fn =
  Sim.Sharded.send r.sh ~src:r.src ~dst:r.dst ~delay ~name fn

let send_src ?(src_medium = `Dram) ~src n =
  let src_node = Loc.node src in
  pm_charge src_medium src_node ~write:false n;
  if Loc.is_host src then Sim.Engine.sleep (Pcie.latency src_node.pcie);
  Bandwidth.transfer (Netlink.egress src_node.port) n

let flight ~dst =
  let dst_node = Loc.node dst in
  dst_node.Node.cfg.Config.net_latency
  + if Loc.is_host dst then Pcie.latency dst_node.pcie else 0

let land_dst ?(dst_medium = `Dram) ~dst n =
  let dst_node = Loc.node dst in
  Netlink.deliver dst_node.port n;
  pm_charge dst_medium dst_node ~write:true n
