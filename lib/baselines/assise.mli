(** Assise baselines (§5.1 "System configuration").

    Assise is the state-of-the-art client-local PM DFS LineFS builds
    on.  All DFS work runs on {e host} cores:

    - [Pessimistic] (the paper's "Assise"): replication happens
      synchronously inside fsync, in the calling thread's context,
      busy-polling RDMA completions;
    - [Bg_repl]: additionally replicates in the background with 3
      threads per client and 4 MB chunks — but with no pipeline
      parallelism (each chunk is shipped start-to-finish);
    - [Hyperloop]: replication is offloaded to ordinary RDMA NICs via
      chained WAIT verbs — replicas spend no host CPU persisting — but
      the host must periodically re-post verb groups; under CPU
      contention the re-posting is delayed and replication stalls (the
      99.9th-percentile effect in Table 3).

    SharedFS digestion (publication to public PM) always runs on host
    cores, on every node in the chain. *)

open Sim

type variant = Pessimistic | Bg_repl | Hyperloop

val variant_name : variant -> string

type t
type client

val create :
  ?cfg:Hw.Config.t ->
  ?params:Linefs.Params.t ->
  ?variant:variant ->
  ?dfs_prio:Hw.Cpu.prio ->
  ?sharding:Sim.Sharded.t * int ->
  nodes:int ->
  unit ->
  t
(** Build the chain (process context required — except with
    [sharding]). [dfs_prio] is the scheduling priority of all DFS host
    work.

    [sharding:(sh, base)] partitions the chain per node across the
    {!Sim.Sharded} runner: node [i] lives on shard [base + i] (see
    {!Net.Fabric.place}), and chain forwarding, replication acks and
    the Hyperloop hop chain route between shards.  Call from outside
    any engine and run the workload body and clients on shard
    [base]. *)

val variant : t -> variant
val node : t -> int -> Hw.Node.t
val primary_fs : t -> Storage.Fs_state.t

val add_client : t -> id:int -> client
val ops : client -> Linefs.Dfs_intf.ops
val client_log : client -> Storage.Oplog.Log.t

val flush_all : t -> unit
(** Drain digestion and background replication (teardown barrier). *)

val stop : t -> unit

val dfs_host_cpu : t -> node:int -> Stats.Busy.t
(** Host CPU burned by DFS work (LibFS + digestion + replication +
    polling) on a node. *)

val total_host_dfs_cpu : t -> Time.t
val replication_wire_bytes : t -> int
(** Bytes the primary shipped to its successor. *)
