(** Conservative parallel runner: multiple {!Engine} instances (shards)
    advancing in lookahead-bounded windows, optionally spread over
    several domains.

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

    Lookahead is heterogeneous: each edge may carry its own bound
    (e.g. the physical fabric latency of the link it models), so one
    low-latency edge narrows only its own destination's windows.

    {b Determinism contract.}  For a fixed [(seed, shard count, edge
    set, process behaviour)], results are identical for {e every} value
    of [?domains] — the domain count affects which OS threads execute a
    window, never what the window computes.  Between windows each
    shard's outbox is injected into the destination engines, sources
    in index order and each outbox in send order; a destination's heap
    runs same-time events in insertion order, so every shard executes
    its cross-shard messages in the canonical order (delivery time,
    src, per-edge sequence).  Every window bound above is a function of
    engine states and the static edge set alone, so the window
    structure itself is also identical at every domain count.

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

val run : ?domains:int -> ?grain:int -> t -> unit
(** Drive every shard to completion.  [domains] (default 1, clamped to
    the shard count) is the number of OS domains available to execute
    windows; see the determinism contract above.  Worker domains are
    created lazily on the first window that engages them and persist
    for the whole run.

    [grain] (events, default 96) is the inline threshold: a window
    whose predicted work — exponential moving averages of events per
    window and of wall seconds per window (see {!set_clock}) — would
    not amortize a barrier crossing runs on the coordinator without
    waking any worker.  On a host reporting a single core
    ([Domain.recommended_domain_count () = 1]) the pool is never
    engaged, whatever [domains] says.  [grain <= 0] forces every
    multi-shard window onto the pool — a test hook for the barrier
    path.  The prediction influences scheduling only, never results.

    A shard whose window raises ends the run: once every shard of that
    window has finished and the worker domains are joined, the
    exception of the lowest-indexed failing shard is re-raised.  The
    runner cannot be resumed after that. *)

val windows_run : t -> int
(** Number of synchronization windows executed so far (diagnostics). *)

(** {1 Cross-shard sync observability} *)

type stats = {
  windows : int;  (** synchronization windows executed *)
  parallel_windows : int;  (** windows that engaged the worker pool *)
  barrier_waits : int;
      (** coordinator condition-variable waits at round barriers *)
  fast_forwards : int;
      (** idle-shard clock ratchets (the null messages) *)
  messages : int;  (** cross-shard messages drained *)
  batch_max : int;  (** most messages drained at one barrier *)
  extended_horizons : int;
      (** busy-shard windows run beyond every static promise (adaptive
          horizon in effect) *)
}

val stats : t -> stats
(** Cumulative over the runner's lifetime.  [windows], [fast_forwards],
    [messages], [batch_max] and [extended_horizons] are identical at
    every domain count; [parallel_windows] and [barrier_waits] depend
    on [?domains], [?grain] and the machine. *)

val counters_record : t -> unit
(** Record the domain-layout-independent subset of {!stats}
    ([sharded.windows], [sharded.fast-forward], [sharded.messages],
    [sharded.horizon-extended]) into the global {!Counters} table.
    Explicit opt-in for harnesses; never called by {!run} itself, so
    fingerprint tests comparing sharded and unsharded counter totals
    are unaffected. *)

val set_clock : (unit -> float) -> unit
(** Install the wall clock used by the inline-vs-parallel policy
    (e.g. [Unix.gettimeofday]); the default is [Sys.time].  The sim
    library itself takes no unix dependency. *)
