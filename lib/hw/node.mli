(** A cluster node: host CPUs + PM + PCIe/DMA + SmartNIC, attached to
    the fabric through one physical network port that host- and
    NIC-initiated traffic share. *)

open Sim

type t = {
  id : int;
  cfg : Config.t;
  host : Cpu.t;
  pm : Pm.t;
  pcie : Pcie.t;
  dma : Dma.t;
  nic : Smartnic.t;
  port : Netlink.port;
  mutable shard : (Sim.Sharded.t * int) option;
      (** The {!Sim.Sharded} runner and shard index this node's host and
          SmartNIC live on; [None] on a single engine.  Recorded once
          by [Net.Fabric.place]; the fabric routes every cross-node
          send by it. *)
}

val create : Config.t -> switch:Netlink.t -> id:int -> t

val copy_work : t -> int -> Time.t
(** Reference CPU work for an [n]-byte copy on this node (see
    {!Config.copy_work}). *)

val pp : Format.formatter -> t -> unit
