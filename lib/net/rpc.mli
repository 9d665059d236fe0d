(** RPC between cluster agents, with the paper's two connection classes
    (§3.3.2 "scalable, low latency RDMA request processing"):

    - [`Busy_poll]: a dedicated thread pinned to a reserved core spins
      on the completion queue.  Requests are picked up within the poll
      granularity (sub-microsecond) regardless of CPU load — but one
      core is permanently consumed.  All of the server's connections are
      multiplexed onto this single thread (few QPs by design).
    - [`Event]: a worker pool is woken per request; each dispatch pays
      wake-up/context-switch time {e on the CPU pool}, so under host
      contention dispatch queues behind application threads — the
      mechanism behind Assise's inflated tail latencies when busy.

    Handlers run in simulation-process context and may block (move
    data, take locks, call further RPCs). *)

type ('req, 'resp) t

type kind =
  | Busy_poll
  | Event of { workers : int; prio : Hw.Cpu.prio }

val create :
  ?dispatch_cost:Sim.Time.t ->
  ?poll_overhead:Sim.Time.t ->
  ?group:Sim.Engine.group ->
  ?integrity:('req -> int32 option) ->
  name:string ->
  loc:Loc.t ->
  kind:kind ->
  handler:('req -> 'resp) ->
  unit ->
  ('req, 'resp) t
(** Start serving. [Busy_poll] reserves one core on [loc]'s CPU pool.
    Worker processes are spawned in [group] when given, so killing the
    group (fault injection) silently stops the server.

    [integrity] supplies the end-to-end CRC32 trailer for data-carrying
    requests (return [None] for messages without a payload).  While
    fault injection is active the sender stamps each frame with the
    trailer and the receiving worker recomputes it over the delivered
    payload: mismatches (in-flight [Corrupt] verdicts, or any real
    divergence between send- and receive-side encodings) are NACKed by
    discarding the frame, leaving retransmission to the caller's
    retry/backoff path.  Without a hook installed the trailer is never
    computed, so fault-free runs are unperturbed.

    Defaults: [dispatch_cost] 5 us, [poll_overhead] 200 ns. *)

val restart : ?group:Sim.Engine.group -> _ t -> unit
(** Bring a server whose worker group was killed back up: drops every
    queued request (lost with the crash) and spawns fresh workers,
    in [group] when given (pass the restarted node's new group; the old
    one stays dead).  A busy-poll server reuses its already-reserved
    core.  Calling this on a live server leaks its old workers. *)

val loc : _ t -> Loc.t

val call : ('req, 'resp) t -> from:Loc.t -> ?bytes:int -> 'req -> 'resp
(** Synchronous request: sends a message of [bytes] (default 64) to the
    server location, waits for the handler, pays the response transfer
    back.  If fault injection drops the request the caller blocks
    forever — use {!call_timeout} on loss-tolerant paths.
    @raise Invalid_argument naming both endpoints when [from] and the
    server are placed on different shards. *)

val call_timeout :
  ('req, 'resp) t ->
  from:Loc.t ->
  ?bytes:int ->
  ?key:int * int ->
  timeout:Sim.Time.t ->
  'req ->
  'resp option
(** Like {!call} but gives up (returning [None]) when no response
    arrived within [timeout] — whether the request was dropped by fault
    injection, the server is dead, or the handler is simply slow.  On
    timeout a late response is discarded.

    [key] is the request's per-caller sequence number (from
    {!fresh_key}); retries of one logical request should pass the same
    key so the server's dedup cache replays the reply instead of
    re-executing the handler.  Fresh per call when omitted.
    @raise Invalid_argument like {!call} across shards. *)

val call_retry :
  ('req, 'resp) t ->
  from:Loc.t ->
  ?bytes:int ->
  ?policy:Backoff.t ->
  ?attempts:int ->
  'req ->
  'resp option
(** Loss-tolerant synchronous request: {!call_timeout} in a capped
    exponential retry loop driven by [policy] (default
    {!Backoff.default}), giving up as [None] after [attempts] tries
    (default: retry until a response arrives).  When no fault-injection
    hook is installed this is exactly {!call} — no timers are armed, so
    fault-free simulations schedule identically. *)

val post :
  ('req, 'resp) t -> from:Loc.t -> ?bytes:int -> ?name:string -> 'req -> unit
(** Fire-and-forget: pays the request transfer, does not wait for the
    handler to finish.

    The one cross-node send that works on every deployment.  When
    [from] and the server share an engine the frame crosses the fabric
    with a blocking {!Rdma.move}.  When they are placed on different
    {!Sim.Sharded} shards (see {!Fabric.place}) the sender half of the
    transfer is paid on [from]'s shard and a root process named [name]
    (default: the server's name) enqueues the request on the server's
    shard after the fabric flight.  Both paths draw one injection
    verdict on the sending engine and apply it identically (drop,
    delay, duplicate, reorder, corrupt), with the same sequence keys
    and CRC trailers. *)

val write_post :
  from:Loc.t ->
  dst:Loc.t ->
  ?medium:[ `Pm | `Dram ] ->
  ?at_dst:(unit -> unit) ->
  ?sender_wait:((unit -> unit) -> unit) ->
  name:string ->
  int ->
  (unit -> ('req, 'resp) t) ->
  'req ->
  unit
(** [write_post ~from ~dst n server req]: one-sided write of an [n]-byte
    payload into [dst] ([medium] default [`Dram]; [`Pm] charges PM
    placement), then {!post} of the notification [req] to [server ()].
    [at_dst] runs on the destination side just before the payload
    lands (e.g. allocating the NIC DRAM it is staged in);
    [sender_wait f] runs [f], the sender's share of the transfer (e.g.
    under a busy-polling CPU loop); [name] is as for {!post}.

    Locally: [at_dst], the payload move under [sender_wait], then
    [server] is resolved — after the move, so a server that changed
    plane meanwhile is chased — and the notification is posted.
    Routed: the payload's and the notification's sender halves run
    under [sender_wait], and both land in one combined flight (the
    longer of the two); the payload lands with the first delivered copy
    of the notification, so a dropped notification loses it. *)

val queue_length : _ t -> int
(** Requests waiting to be picked up (a load signal). *)

val fresh_key : from:Loc.t -> int * int
(** Allocate the next per-caller sequence number for [from].  Callers
    implementing their own retry ladders allocate one key per logical
    request and pass it to every {!call_timeout} attempt. *)

val disable_dedup : bool ref
(** Mutation knob for the conformance self-test: [true] bypasses the
    server-side dedup cache so every delivered copy executes the
    handler.  The litmus harness proves that this is caught by the
    no-duplicate-apply invariant.  Never set outside self-tests. *)

val shutdown : _ t -> unit
(** Stop workers after the current queue drains; frees the reserved
    core for busy-poll servers. *)
