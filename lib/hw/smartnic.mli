(** Mellanox BlueField SmartNIC model: a wimpy CPU pool, limited DRAM
    (bandwidth and capacity), attached to the node's network port on one
    side and the host's PCIe on the other.

    DRAM capacity accounting backs NICFS's replication flow control
    (§4 "Replication flow control"): allocations never block here;
    the file system layer polls {!mem_frac} against its watermarks. *)

type t

val create : Config.t -> port:Netlink.port -> t

val cpu : t -> Cpu.t
val port : t -> Netlink.port

val mem_copy : t -> int -> unit
(** Charge NIC DRAM bandwidth for moving [n] bytes within NIC memory. *)

val alloc : t -> int -> unit
(** Account an allocation of NIC DRAM. *)

val free : t -> int -> unit

val reset_mem : t -> unit
(** Zero the allocation accounting — NIC DRAM is volatile, so a NICFS
    restart after a crash starts from an empty heap. *)

val mem_used : t -> int
val mem_capacity : t -> int

val mem_frac : t -> float
(** Fraction of NIC DRAM in use, 0.0-1.0. *)
