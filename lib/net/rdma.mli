(** RDMA data movement between locations.

    One-sided semantics: moving bytes between two locations costs the
    interconnects crossed, with no CPU charged at either end (the
    RDMA/DMA engines do the work):

    - same node, host <-> NIC: a PCIe transfer;
    - cross-node: the sender port's egress bandwidth + fabric latency,
      plus a PCIe hop latency for each host-memory endpoint (the
      BlueField's RDMA switch DMAs directly into host memory);
    - same location: free (a real system would not issue RDMA at all;
      intra-memory copies are modelled by their engine: CPU or I/OAT).

    PM device time is charged when a host-memory endpoint is marked
    persistent ([`Pm]), modelling placement of received data directly
    into PM. *)

val move :
  ?src_medium:[ `Pm | `Dram ] ->
  ?dst_medium:[ `Pm | `Dram ] ->
  src:Loc.t ->
  dst:Loc.t ->
  int ->
  unit
(** Move [n] bytes; blocks the calling process for the full transfer.
    Defaults: both media [`Dram] (no PM device time).

    Consults the {!Inject} hook: [Delay] adds fabric latency before the
    transfer; [Drop] pays the sender-side costs but skips the receiver's
    PM placement (transmitted, then discarded in the fabric).  Callers
    modelling reliable delivery of payload data should inject loss at
    the RPC layer instead, where the message carrying the payload
    reference is what gets lost.

    Both ends must live on the calling engine: on a sharded deployment
    (see {!Fabric.place}) use {!ship} or {!Rpc.post} between nodes.
    @raise Invalid_argument naming both endpoints when [src] and [dst]
    are placed on different shards. *)

val ship :
  ?dst_medium:[ `Pm | `Dram ] ->
  src:Loc.t ->
  dst:Loc.t ->
  name:string ->
  int ->
  (unit -> unit) ->
  unit
(** [ship ~src ~dst ~name n k] moves [n] bytes and then runs [k] on the
    destination's shard.  When both ends share an engine this is
    [move] followed by [k ()] in the calling process.  Otherwise the
    sender's half of the transfer (PM read, host PCIe hop, egress
    share) blocks the caller, and a root process named [name] on the
    destination's shard lands the bytes (port accounting, PM placement
    for [`Pm]) after the fabric flight and runs [k]; the caller
    continues without waiting for it.  The injection verdict is drawn
    on the sending shard either way. *)

val move_time_estimate : src:Loc.t -> dst:Loc.t -> int -> Sim.Time.t
(** Uncontended estimate (no PM component), for planning decisions. *)
