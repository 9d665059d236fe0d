(** NICFS: the LineFS daemon running on the SmartNIC (§3.3).

    Runs the publishing and replication pipelines (sharing their fetch
    and validation stages), the lease manager, replication flow
    control, the host failure detector and isolated-mode operation.

    Two RPC planes serve requests, per the paper's connection split:
    a busy-polled low-latency plane (fsync notification, lease and open
    checks) and an event-driven high-throughput plane (pipeline kicks,
    chunk transfers, replication acks). *)

open Sim

type t

val create :
  ?pipeline_parallelism:bool ->
  ?coalescing:bool ->
  ?compression:bool ->
  ?apply_on_publish:bool ->
  ?group:Engine.group ->
  params:Params.t ->
  node:Hw.Node.t ->
  fs:Storage.Fs_state.t ->
  kworker:Kworker.t ->
  unit ->
  t
(** Start the daemon (process context required).
    [pipeline_parallelism:false] builds the LineFS-NotParallel baseline:
    each chunk runs fetch->validate->publish->transfer sequentially.
    [apply_on_publish] additionally replays entry semantics into [fs]
    at publication (used by tests; benchmark clients apply eagerly).
    [group] is the fault-injection kill switch the daemon's processes
    run under (see {!crash}). *)

val node : t -> Hw.Node.t
val lease_mgr : t -> Lease.t

val set_next_hop : t -> t option -> unit
(** Wire the replication chain successor ([None] for the last node).

    Every cross-node path — chunk shipment to the successor,
    replication acks back to the chunk's primary, the lease-record
    relay, scrub re-fetches — goes through {!Net.Rpc.post},
    {!Net.Rpc.write_post} or {!Net.Rdma.ship}.  On a deployment
    partitioned one node per shard (see {!Net.Fabric}) those route
    between shards; the daemon itself never looks at placement. *)

val set_compression : t -> bool -> unit

val start_monitor : t -> unit
(** Spawn the kernel-worker failure detector (§3.5). *)

val stop_monitor : t -> unit
val isolated : t -> bool
val ping : t -> bool
(** Cluster-manager heartbeat probe: false while crashed. *)

(** {1 Fault injection} *)

val alive : t -> bool

val crash : t -> unit
(** Power-fail the NICFS: kill its process group (RPC servers, monitor,
    in-flight handlers), losing NIC DRAM contents.  Host PM state — the
    persisted log and publication-gate progress — survives. *)

val restart : t -> unit
(** Bring a crashed NICFS back: reset NIC memory accounting and respawn
    both RPC planes in a fresh process group.  Queued requests from
    before the crash are dropped; the primary's retransmission recovers
    lost replication traffic. *)

val kill_node : t -> unit
(** Whole-node failure: [crash] plus the host-side fault domain
    (pipeline workers, retransmitters, fallback planes).  No matching
    un-kill — a dead node leaves the cluster until re-added. *)

(** {1 Degraded mode: host fallback (§3.6)}

    With the NIC down but the host alive, the NICFS planes run on host
    cores: RPC service moves to host-side servers, stage compute is
    billed to the host CPU through the kernel worker's accounting
    hook, chunks are staged in host memory (no NIC DRAM, no PCIe
    fetch hop), and the compression stage is skipped — it exists to
    save network bandwidth at the price of NIC cycles, and burning
    host cores on it would defeat the point of offload.  Peers and
    clients retarget transparently: endpoint accessors resolve the
    fallback planes and control-plane calls re-resolve per retry
    attempt. *)

val enter_fallback : t -> unit
(** Bring the host-fallback planes up (cluster-manager driven, on the
    NIC-dead/host-alive service transition).  No-op unless the NICFS
    is crashed and not already degraded.  Process context required. *)

val exit_fallback : t -> unit
(** Fail back to the restarted NIC: flip traffic to the NIC planes,
    charge the state-migration cost, then drain and retire the host
    planes gracefully.  No-op unless degraded and restarted. *)

val in_fallback : t -> bool

(** {1 Replication-chain reconfiguration} *)

val set_repl_targets : t -> targets:int list -> unit
(** Declare the exact replica set whose acks complete a chunk (node
    ids downstream of this node in the current chain).  Until called,
    the legacy rule applies: any [replicas - 1] distinct ackers. *)

val reeval_acks : t -> unit
(** Re-evaluate outstanding ack sets against the (shrunk) target set;
    chunks short only of dead nodes' acks complete immediately.  Call
    on the primary after a chain reconfiguration. *)

(** {1 Client plane (used by LibFS)} *)

val register_client :
  t ->
  id:int ->
  log:Storage.Oplog.Log.t ->
  on_published:(upto_seq:int -> unit) ->
  on_revoke:(inum:int -> unit) ->
  unit
(** Attach a LibFS instance: its private log (shared host PM), the
    reclamation callback invoked as publication progresses, and the
    lease-revocation callback (drop the client's cached lease). *)

val start_pipeline : t -> from:Net.Loc.t -> client:int -> unit
(** Asynchronous "chunk ready" kick (LibFS posts this when its log has
    accumulated a chunk's worth of updates). *)

val fsync : t -> from:Net.Loc.t -> client:int -> upto_seq:int -> unit
(** Blocks until every entry up to [upto_seq] is replicated on all
    replicas and all outstanding lease grants are persisted. *)

val open_check :
  t ->
  from:Net.Loc.t ->
  client:int ->
  inum:int ->
  write:bool ->
  (unit, Storage.Fs_state.error) result
(** Permission check + kernel-worker mmap request (§3.6). *)

val lease_acquire :
  t ->
  from:Net.Loc.t ->
  client:int ->
  inum:int ->
  Lease.ltype ->
  [ `Granted | `Conflict ]

val flush : t -> client:int -> unit
(** Drain: force-chunk all remaining entries and wait until everything
    is replicated and published (benchmark teardown). *)

(** {1 Introspection} *)

val replicated_wire_bytes : t -> int
(** Bytes this node sent to its chain successor (post-compression). *)

val published_bytes : t -> int
val coalesced_entries : t -> int

val stage_mean_us : t -> client:int -> (string * float) list
(** Mean per-chunk stage latencies, in microseconds, pipeline order. *)

val stage_series : t -> client:int -> (string * Stats.Series.t) list

val ack_latency : t -> Stats.Series.t
(** Replication-ack round trip as seen by the primary. *)

(** {1 Recovery support (SS3.6)} *)

val epoch : t -> int
(** The cluster epoch this NICFS last persisted. *)

val set_epoch : t -> int -> unit
(** Persist a new epoch number (cluster-manager notification). *)

val history : t -> Cluster.History.t
(** Replicated history bitmap: inodes updated per epoch (recorded at
    publication time). *)

val fs : t -> Storage.Fs_state.t
(** The node's public FS state. *)

(** {1 Storage-fault injection and scrub evidence}

    Byzantine-fabric hardening: torn-record discovery with re-fetch
    from the chunk's primary, and the per-replica application journal
    the no-duplicate-apply invariant checks. *)

val mark_torn : t -> unit
(** Arm this replica's next publication-gate dequeue to discover its
    persisted record torn (a partial PM write caught by the record
    CRC): the record is dropped unpublished and a pristine copy is
    re-fetched from the chunk's primary, retried until the gate
    advances.  Only meaningful on replicas under fault injection. *)

val apply_journal : t -> (int * int) list
(** Chronological [(client, seq)] pairs applied on this node via
    [apply_on_publish] — each must appear exactly once per replica. *)

val chaos_no_dedup : bool ref
(** Mutation knob (conformance self-test): bypass the replica
    publication gate so fabric duplicates double-apply.  Combine with
    {!Net.Rpc.disable_dedup} to disable both dedup layers. *)

val chaos_no_scrub : bool ref
(** Mutation knob: suppress the torn-record re-fetch, wedging the
    publication gate — replicas must be flagged divergent. *)
