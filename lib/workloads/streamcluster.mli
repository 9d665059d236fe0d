(** streamcluster stand-in (PARSEC): a CPU-bound, barrier-synchronised
    parallel job used as the co-running antagonist in §5.2/§5.3.

    Each iteration, every thread computes a fixed amount of work and
    all threads meet at a barrier; stragglers caused by DFS threads
    stealing cores therefore delay the whole program — the interference
    amplifier the paper describes (C1). *)

open Sim

val run :
  ?threads:int ->
  ?iterations:int ->
  ?work_per_iter:Time.t ->
  ?prio:Hw.Cpu.prio ->
  node:Hw.Node.t ->
  unit ->
  Time.t
(** Run to completion; returns elapsed time.  Defaults: one thread per
    host core, 30 iterations, 100 ms of work per thread-iteration. *)

type background

val start_background :
  ?threads:int -> ?work_per_iter:Time.t -> ?prio:Hw.Cpu.prio ->
  node:Hw.Node.t -> unit -> background
(** Run iterations in a loop until {!stop} — the "replicas busy"
    condition. *)

val stop : background -> unit
val iterations_done : background -> int
