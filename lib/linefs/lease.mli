(** NICFS lease manager (§3.4).

    Leases give single-writer / multiple-reader access to files and
    directories.  Grants update SmartNIC memory immediately; persistence
    to host PM and replication to peer NICFSes happen asynchronously in
    the background, off the critical path.  [wait_persisted] is the
    fsync barrier that restores crash consistency. *)


type ltype = Read | Write

type t

(** Lease-table transitions, observable for trace-based safety checking
    (the DST harness reconstructs who held which lease when and checks
    single-writer safety).  [node] is the granting NICFS's node id. *)
type event =
  | Granted of {
      node : int;
      client : int;
      inum : int;
      ltype : ltype;
      epoch : int;
      expires : Sim.Time.t;
    }
  | Released of { node : int; client : int; inum : int }

val set_observer : (event -> unit) -> unit
(** Install an observer notified of every lease transition on every
    manager.  Called from inside a simulation process it binds to the
    running engine (so sharded scenarios observe independently); called
    outside any run it installs the process-global fallback.  One at a
    time per scope; installing replaces. *)

val clear_observer : unit -> unit

val create :
  ?current_epoch:(unit -> int) ->
  ?group:Sim.Engine.group ->
  params:Params.t ->
  node:Hw.Node.t ->
  replicate:(bytes:int -> unit) ->
  unit ->
  t
(** [replicate] ships a small lease record to the replica NICFSes
    (injected to avoid a dependency on the replication chain).
    [current_epoch] reads the owning NICFS's cluster epoch: a grant is
    stamped with it and a lease from an older epoch is invalid — the
    epoch bump at failure detection is a cluster-wide revocation
    (§3.6).  Defaults to a constant, i.e. epochs disabled.
    [group] hosts the background persist processes; pass a domain that
    survives NIC crashes (the grant record is host-PM state). *)

val acquire :
  t -> client:int -> inum:int -> ltype -> [ `Granted | `Conflict ]
(** Grant if compatible: a writer excludes everyone else; readers share.
    Re-acquisition by the holder refreshes the expiry. The grant itself
    is NIC-memory-only; persistence is queued in the background. *)

val release : t -> client:int -> inum:int -> unit

val holders : t -> inum:int -> int list
(** Clients currently holding the inode's lease (writer first). *)

val iter_holds : t -> f:(inum:int -> client:int -> unit) -> unit
(** Visit every (inode, holder) pair in the table, stale or not — the
    epoch-bump revocation sweep uses this to grandfather and notify
    holders. *)

val check_access : t -> client:int -> inum:int -> write:bool -> bool
(** Validation-stage test: does this client's access conflict with a
    lease held by someone else?  Unleased inodes are accessible (the
    holder-of-record is the issuing client's node). *)

val pending_persists : t -> int
(** Grants whose persistence/replication has not completed yet. *)

val wait_persisted : t -> unit
(** Block until every outstanding grant is persisted and replicated. *)

