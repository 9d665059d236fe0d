(** One DST scenario: a seeded random workload over a 3-replica LineFS
    cluster, shaken by a timed fault plan, then healed, recovered,
    drained and invariant-checked.

    Everything is derived deterministically from the seed — the
    engine's event interleaving, the clients' operation streams, the
    fault plan, and the network-fault RNG — so a failing seed replays
    exactly. *)

open Sim

type spec = {
  seed : int;
  nodes : int;
  clients : int;
  ops_per_client : int;
  horizon : Time.t;  (** Workload/fault window; drain follows it. *)
  plan : Plan.t;
}

type outcome = {
  completed : bool;
      (** The scenario ran to completion before the engine deadline;
          [false] means it wedged (itself reported as a violation). *)
  violations : Invariant.violation list;
  fs_digest : int32;  (** Primary file-system digest at the end. *)
  trace_events : int;
  ops_logged : int;  (** Entries persisted across all client logs. *)
  drops : int;  (** Messages the fault layer lost. *)
  delays : int;  (** Transfers the fault layer delayed. *)
  dups : int;  (** Messages the fault layer duplicated. *)
  reorders : int;  (** One-way posts the fault layer held back. *)
  corrupts : int;  (** Frames the fault layer bit-corrupted. *)
  scrubbed : int;
      (** Scrub actions: torn-record re-fetches + bit-rot repairs. *)
}

val failed : outcome -> bool
(** Wedged or at least one violation. *)

val generate : seed:int -> spec
(** Derive a full scenario (cluster size 3, 1–2 clients, 25–64 ops
    each, 1–4 faults) from a seed. *)

val generate_adversary : seed:int -> spec
(** Byzantine-fabric profile: same workload shape, but the plan draws
    only duplication / reordering / corruption / storage faults
    ({!Plan.generate_adversary}) — the CI adversary sweep's spec. *)

(** {1 Explicit failover scenarios}

    Generated plans never crash node 0 and always heal; these cover
    what they cannot: the degraded-mode (host fallback) machinery and
    permanent-death chain reconfiguration.  The seed still controls the
    workload and the engine interleaving. *)

val failover_primary_crash : seed:int -> spec
(** NIC crash on the primary mid-pipeline: clients ride through on the
    host fallback, then fail back after the restart. *)

val failover_crash_during_failback : seed:int -> spec
(** A second primary NIC crash timed to land while the first fail-back
    is still draining. *)

val failover_replica_death : seed:int -> spec
(** Permanent whole-node death of the chain tail: the chain must
    reconfigure and complete outstanding ack sets without it. *)

val failover_double_failure : seed:int -> spec
(** Middle replica NIC crash concurrent with permanent tail death. *)

val run : spec -> outcome
(** Execute in a fresh engine; never raises on invariant violations —
    they come back in the outcome.  The fault hook and observers
    (network injection, lease observer, entry observer) are installed
    engine-locally and die with the engine. *)

val pp_spec : Format.formatter -> spec -> unit
val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Reuse by other fault harnesses}

    The conformance litmus harness drives the same fault machinery over
    its own workload; sharing the driver keeps fault semantics (and
    [DST_DEBUG] timelines) identical across both. *)

val drive_fault : Trace.t -> Netfault.t -> Linefs.Deployment.t -> Plan.fault -> unit
(** Sleep until the fault's injection time, apply it, and see it
    through to its end (restart/heal/expiry).  Spawn one process per
    fault of a plan. *)

val crashed_nodes : Plan.t -> int list
(** Nodes a plan crash-restarts (candidates for post-plan recovery). *)

val dead_nodes : Plan.t -> int list
(** Nodes a plan kills permanently. *)

val bitrot_nodes : Plan.t -> int list
(** Nodes whose persisted extents a plan bit-rots (scrub targets). *)
