(** Discrete-event simulation engine.

    The engine advances a virtual clock by executing events in timestamp
    order.  Simulation code runs as cooperative {e processes}: ordinary
    OCaml functions that perform effects ([sleep], [suspend], [spawn])
    handled by the engine.  A process runs uninterrupted (in zero
    simulated time) until it sleeps or suspends, which makes all
    simulations single-threaded and deterministic.

    Typical usage:
    {[
      let eng = Engine.create () in
      Engine.spawn_root eng (fun () ->
          Engine.sleep (Time.us 10);
          Fmt.pr "now = %a@." Time.pp (Engine.now ()));
      Engine.run eng
    ]} *)

type t
(** An engine instance. Engines are independent; a process spawned on one
    engine must not interact with primitives of another. *)

type group
(** A process group (fault-injection kill switch).  Every process can
    carry a group tag; children and re-schedulings inherit it.  Killing
    a group silently discards all of its pending events, so the
    processes of a simulated node can be torn down atomically at a point
    in virtual time.  A killed group stays dead: create a fresh group to
    model the node restarting. *)

val make_group : string -> group
(** A fresh, alive group. *)

val kill : group -> unit
(** Tear the group down: none of its suspended or scheduled processes
    will ever run again.  State they left behind (locks, queue entries)
    is not cleaned up — exactly like a machine losing power. *)

val group_killed : group -> bool
val group_name : group -> string

exception Process_failure of string * exn
(** Raised out of {!run} when a process raises: carries the process name
    and the original exception. *)

val create : ?seed:int -> unit -> t
(** [create ()] is a fresh engine with the clock at 0. [seed] seeds the
    engine-level RNG stream (see {!rng}). *)

val rng : t -> Rng.t
(** Engine-level RNG; components should [Rng.split] their own stream. *)

val current_time : t -> Time.t
(** Clock value, readable from outside any process. *)

val events_executed : t -> int
(** Number of events this engine has executed (killed-group drops and
    deadline discards excluded).  Monotonic across [run] calls. *)

val global_events_executed : unit -> int
(** Process-wide event tally across all engines ever created — the
    basis for wall-clock events-per-second reporting in benchmarks.
    Maintained with [Atomic]: safe when engines run on several domains.
    Each {!run}/{!run_until} call adds its events when it returns, so
    read it between runs. *)

(** {1 Per-event-kind wall-clock profiling}

    Off by default (a single branch on the hot path).  When enabled,
    the engine measures the real time spent in each event and buckets
    it by event-name kind (the name with digit runs removed, so
    ["bench.client12"] and ["bench.client3"] share a bucket). *)

val profile_enable : bool -> unit
val profile_reset : unit -> unit

val profile_set_clock : (unit -> float) -> unit
(** Install the wall clock (e.g. [Unix.gettimeofday]); the default is
    [Sys.time].  The sim library itself takes no unix dependency. *)

val profile_snapshot : unit -> (string * int * float * float) list
(** [(kind, events, seconds, minor_words)] rows, hottest first. *)

val spawn_root : ?name:string -> ?group:group -> t -> (unit -> unit) -> unit
(** Schedule a top-level process to start at the current clock value.
    Usable from outside process context (before or between [run] calls). *)

val spawn_root_at :
  ?name:string -> ?group:group -> t -> at:Time.t -> (unit -> unit) -> unit
(** Like {!spawn_root} but at an explicit timestamp (clamped to the
    current clock if in the past).  Used by {!Sharded} to inject
    cross-shard message deliveries between synchronization windows. *)

val run : ?deadline:Time.t -> t -> unit
(** Execute events until the queue drains or the clock would pass
    [deadline].  When the deadline cuts the run short, pending events are
    discarded; the clock is left at [deadline]. *)

val stop : t -> unit
(** Request that {!run} return after the current event; pending events
    are kept (a subsequent [run] resumes them). Callable from processes. *)

val run_until : t -> bound:Time.t ref -> Time.t option
(** Execute every pending event with timestamp strictly below [!bound]
    and return the timestamp of the next pending event (or [None] when
    drained).  Events at or beyond the bound stay queued; a later
    [run_until] or {!run} resumes them.  [bound] is re-read before every
    event, so code run by the events (e.g. {!Sharded.send}) may tighten
    it mid-window; execution is time-ordered, so nothing already
    executed can lie beyond a bound lowered by the event that just ran.
    This is the per-window drain of the sharded runner ({!Sharded}). *)

val next_event_time : t -> Time.t option
(** Timestamp of the earliest pending event, if any. *)

val release_queue : t -> unit
(** If no event is pending, drop the event queue's storage, which can
    still reference events already executed (and everything their
    closures reach).  The next schedule allocates a fresh queue.  The
    sharded runner ({!Sharded}) calls this on a component's shards when
    the component finishes. *)

val fast_forward : t -> upto:Time.t -> unit
(** Advance the clock to [upto] without executing anything.  No effect
    if [upto] is in the past; clamped to the earliest pending event so
    no event is ever skipped.  The sharded runner ({!Sharded}) uses
    this to ratchet an idle shard's clock to its conservative bound —
    the null-message role in Chandy–Misra–Bryant — so the windows of
    downstream shards keep widening. *)

val current : unit -> t option
(** The engine currently executing on {e this domain} ([Some] for the
    duration of {!run}/{!run_until}, [None] outside).  Unlike the
    process-context operations below this never raises: wakers and
    library code can use it to find engine-local state ({!Local})
    without being inside the effect handler. *)

(** {1 Engine-local storage}

    Typed per-engine key/value slots, in the style of [Domain.DLS].
    This is how formerly process-global hooks (fault-injection hook,
    lease/oplog observers, robustness counters) become per-shard state
    in sharded runs: each shard's engine carries its own copy, written
    and read only while that engine runs, so no state is shared across
    domains. *)
module Local : sig
  type 'a key

  val key : unit -> 'a key
  (** A fresh key.  Allocate once at module init, not per use. *)

  val get : t -> 'a key -> 'a option
  val set : t -> 'a key -> 'a -> unit
  val remove : t -> 'a key -> unit
end

(** {1 Process-context operations}

    The following functions must be called from inside a process (i.e.
    under [run]); calling them elsewhere raises [Not_in_process]. *)

exception Not_in_process

val now : unit -> Time.t
(** Current simulated time. *)

val sleep : Time.t -> unit
(** Suspend the calling process for the given duration. *)

val yield : unit -> unit
(** Re-schedule the calling process at the current time, letting other
    ready processes run first. *)

val spawn : ?name:string -> ?group:group -> (unit -> unit) -> unit
(** Start a new process at the current time. The spawner continues
    immediately; the child runs when the spawner next suspends.
    [group] overrides the inherited group tag (see {!make_group}). *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process and calls
    [register waker].  Some other process (or timer) later calls
    [waker v]; the parked process then resumes with [v].  Calling the
    waker more than once is harmless: only the first call resumes. *)

val suspend_cancellable :
  (('a -> unit) -> unit) -> timeout:Time.t -> 'a option
(** Like {!suspend} but resumes with [None] if the waker has not fired
    within [timeout]. *)

val process_name : unit -> string
(** Name of the calling process (for diagnostics). *)
