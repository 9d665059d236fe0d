(** Conservative parallel runner: multiple {!Engine} instances (shards)
    advancing in lookahead-bounded windows, with independent groups of
    shards optionally spread over several domains.

    Shards interact only through edges declared with {!connect}; a
    cross-shard message ({!send}) is delivered at least the edge's
    lookahead after its send time.  That minimum latency is what makes
    the runner conservative in the Chandy–Misra–Bryant sense: a shard
    only executes events that nothing another shard has yet to do could
    invalidate.  No rollback, ever.

    Shard [j]'s window bound combines a {e static} horizon — the
    earliest instant any other busy shard could cause a delivery at
    [j], over all-pairs shortest-path lookahead distances — with an
    {e adaptive} one: until [j] sends something cross-shard, no echo of
    its own output exists, so it runs unbounded by itself; its first
    send at delivery time [a] on edge [j -> k] closes the horizon at
    [a + dist k j].  Barriers therefore track cross-shard traffic, not
    elapsed virtual time over the lookahead.

    Shards connected by edges (in either direction) form a
    {e component}.  Nothing crosses between components, so each runs
    its own window loop, start to end, on one domain; components are
    the unit of parallel work.

    Lookahead is heterogeneous: each edge may carry its own bound
    (e.g. the physical fabric latency of the link it models), so one
    low-latency edge narrows only its own destination's windows.

    {b Determinism contract.}  For a fixed [(seed, shard count, edge
    set, process behaviour)], results are identical for {e every} value
    of [?domains] — the domain count affects which OS thread runs a
    component, never what the component computes.  Between windows
    each of a component's outboxes is injected into the destination
    engines, sources in index order and each outbox in send order; a
    destination's heap runs same-time events in insertion order, so
    every shard executes its cross-shard messages in the canonical
    order (delivery time, src, per-edge sequence).  Every window bound
    above is a function of the component's engine states and the
    static edge set alone, so the window structure itself is also
    identical at every domain count.

    {b Sharing discipline.}  Processes on different shards must not
    share simulation state (mailboxes, ivars, bandwidth meters …);
    everything cross-shard goes through {!send}.  Formerly
    process-global hooks (the fault-injection hook, lease and oplog
    observers, robustness counters) are {!Engine.Local} engine-local:
    installed from inside a shard's process they bind to that shard
    only.  One {e deployment} under fault injection still spans a
    single shard: the injection hook is per-engine, not per-edge. *)

type t

val create : ?seed:int -> ?seed_of:(int -> int) -> shards:int -> unit -> t
(** [create ~shards ()] builds [shards] engines with deterministic
    per-shard RNG seeds derived from [seed] ([seed_of] overrides the
    derivation per shard index), and no edges. *)

val shard_count : t -> int

val engine : t -> int -> Engine.t
(** The shard's private engine: spawn processes on it, read its clock.
    Do not call its [run] directly while {!run} drives scheduling;
    running boot events to a bound {e before} {!run} (construction at
    [t = 0]) is fine. *)

val connect : t -> src:int -> dst:int -> lookahead:Time.t -> unit
(** Declare the directed edge [src -> dst] with its minimum cross-shard
    delivery latency [lookahead] (floored at one tick).  Idempotent: the
    first declaration's lookahead wins.  Only declared edges may carry
    messages, and only declared edges constrain the destination's
    execution window. *)

val spawn_root : ?name:string -> t -> shard:int -> (unit -> unit) -> unit
(** Spawn a root process on the given shard (before or between runs). *)

val send :
  t -> src:int -> dst:int -> ?delay:Time.t -> name:string ->
  (unit -> unit) -> unit
(** [send t ~src ~dst ~name fn] — called while shard [src] executes —
    schedules [fn] as a root process on shard [dst] at
    [now src + max delay (lookahead of the edge)].  The message waits
    on [src]'s outbox until the next barrier; the send may also tighten
    the calling shard's window bound (see the adaptive horizon above).
    @raise Invalid_argument if the edge was never {!connect}ed. *)

val run : ?domains:int -> t -> unit
(** Drive every shard to completion.  [domains] (default 1) is the
    number of OS domains that run components: the calling domain plus
    [min domains components - 1] worker domains spawned for this call
    and joined before it returns.  An atomic index hands out the
    components, ordered by their smallest shard index; see the
    determinism contract above.

    A shard whose window raises ends its own component after that
    window; the other components run to their end, so which exception
    surfaces cannot depend on timing.  Once every worker is joined,
    the exception of the lowest-indexed failing shard is re-raised.
    The runner cannot be resumed after that.

    When a component finishes, its shards' emptied event queues are
    released ({!Engine.release_queue}), so a finished component does
    not keep the closures of its last events alive while others run. *)

val windows_run : t -> int
(** Windows executed so far: per run, the most windows any component
    ran (diagnostics). *)

(** {1 Cross-shard sync observability} *)

type stats = {
  windows : int;  (** per run, the most windows any component ran *)
  parallel_windows : int;  (** components run on a worker domain *)
  barrier_waits : int;  (** always 0: components never wait on each other *)
  fast_forwards : int;
      (** idle-shard clock ratchets (the null messages), over all
          components *)
  messages : int;  (** cross-shard messages drained, over all components *)
  batch_max : int;  (** most messages one component drained at once *)
  extended_horizons : int;
      (** busy-shard windows run beyond every static promise (adaptive
          horizon in effect), over all components *)
}

val stats : t -> stats
(** Cumulative over the runner's lifetime.  [windows], [fast_forwards],
    [messages], [batch_max] and [extended_horizons] are identical at
    every domain count; [parallel_windows] depends on [?domains] and
    on which domain claims which component first. *)

val counters_record : t -> unit
(** Record the domain-layout-independent subset of {!stats}
    ([sharded.windows], [sharded.fast-forward], [sharded.messages],
    [sharded.horizon-extended]) into the global {!Counters} table.
    Explicit opt-in for harnesses; never called by {!run} itself, so
    fingerprint tests comparing sharded and unsharded counter totals
    are unaffected. *)

val set_clock : (unit -> float) -> unit
(** A no-op: the runner has no wall-clock policy.  It stays, with
    [barrier_waits], until the harnesses that still call it drop it. *)
