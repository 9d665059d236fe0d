(** Fault-injection hooks for the network layer.

    A single process-wide hook is consulted at every injection point:
    one-sided RDMA transfers ({!Rdma.move}) and both RPC send paths
    ({!Rpc.call}/{!Rpc.post}).  The hook decides per message whether it
    passes untouched, is dropped (lost in the fabric; the receiver
    never sees it), delayed by extra fabric latency, duplicated (the
    fabric retransmits a frame the receiver already got), reordered
    (held back while later sends overtake it) or bit-corrupted in
    flight.

    The hook runs in simulation-process context, so it may consult the
    virtual clock — but it must not block, spawn or otherwise perform
    effects, or injection itself would perturb scheduling.  The one
    exception is [Reorder] on one-way posts, where the {e net layer}
    (not the hook) spawns the deferred delivery.

    Deterministic-simulation harnesses ([Fault.Netfault]) install a
    hook driven by a seeded RNG and the current fault plan; production
    simulations leave it unset, which short-circuits to [Pass]. *)

type point = Rdma_move | Rpc_call | Rpc_post

type verdict =
  | Pass  (** Deliver normally. *)
  | Drop  (** Lose the message; one-way sends vanish silently, and
              round-trip callers only notice via their timeout. *)
  | Delay of Sim.Time.t  (** Extra latency before the send proceeds. *)
  | Duplicate
      (** Deliver the message twice (fabric-level retransmission of an
          already-received frame).  Receivers must treat the second
          copy idempotently: the RPC layer dedups by per-caller
          sequence number and replays cached replies. *)
  | Reorder of Sim.Time.t
      (** Hold {e this} message back for the given time while sends
          issued later overtake it.  On one-way posts the sender
          continues immediately and delivery happens in the
          background; on round-trip calls it degenerates to [Delay]
          (the caller blocks anyway). *)
  | Corrupt of { offset : int; xor : int }
      (** Flip bits in flight: the byte at [offset] (mod frame size)
          is XORed with [xor].  Receivers verify the end-to-end CRC32
          trailer, NACK the frame by discarding it, and rely on the
          sender's retry/retransmission path. *)

type hook = point:point -> src:Loc.t -> dst:Loc.t -> bytes:int -> verdict

val set : hook -> unit
(** Install the hook (replacing any previous one).  Called from inside
    a simulation process, the hook is {e engine-local}: it binds to the
    engine currently running on this domain and is consulted only by
    traffic of that engine, so a hook installed on one shard never
    fires on another.  Called outside any engine, it
    installs the process-global fallback (consulted by engines with no
    local hook), preserving the historical single-sim behaviour. *)

val clear : unit -> unit
(** Remove the hook (the current engine's if inside a run, and the
    global fallback); all traffic passes untouched again. *)

val active : unit -> bool

val consult :
  point:point -> src:Loc.t -> dst:Loc.t -> bytes:int -> verdict
(** Used by the net layer at each injection point. [Pass] when no hook
    is installed. *)

val point_name : point -> string
val verdict_name : verdict -> string
