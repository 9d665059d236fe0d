(** Network fabric: ports connected through a switch.

    Each port has independent egress and ingress bandwidth (full
    duplex), so a chain-replication middle node can receive from its
    predecessor while transmitting to its successor at full rate.

    Simplification: a transfer's service time is dominated by the
    sender's egress share plus switch latency; receiver ingress is
    accounted (for bandwidth-over-time reports) but not a second
    serialization delay.  All evaluation topologies here have
    single-sender receivers, so ingress is never the bottleneck. *)

open Sim

type t
(** A switch. *)

type port

val create_switch : ?latency:Time.t -> unit -> t
(** [latency] is one-way port-to-port delay (default 1.5 us — RoCE). *)

val create_port : t -> bytes_per_sec:float -> port
(** Attach a port with symmetric per-direction bandwidth. *)

val send : src:port -> dst:port -> int -> unit
(** Move [n] bytes from [src] to [dst]; blocks for egress serialization
    plus switch latency. Raises [Invalid_argument] if the ports belong
    to different switches or [src == dst]. *)

val deliver : port -> int -> unit
(** Account [n] received bytes at the port without sender-side costs:
    the landing half of a transfer whose egress/switch share was
    already charged on another shard (a routed [Net] send). *)

val latency : t -> Time.t
val egress : port -> Bandwidth.t
val ingress : port -> Bandwidth.t
val bytes_sent : port -> int
val bytes_received : port -> int
