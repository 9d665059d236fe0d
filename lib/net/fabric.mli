(** Node placement: where each node's engine is, decided once when a
    deployment is built.

    On a single engine nothing is placed and every send runs the local
    path.  A deployment partitioned per node over a {!Sim.Sharded}
    runner places node [i] — host plus SmartNIC plane — on shard
    [base + i]; from then on {!Rpc.post}, {!Rpc.write_post} and
    {!Rdma.ship} route any send between nodes on different shards
    through the runner, while the blocking primitives ({!Rdma.move},
    {!Rpc.call}) refuse such endpoints.  Callers never branch on
    shards. *)

val place : ?sharding:Sim.Sharded.t * int -> Hw.Node.t array -> unit
(** [place ~sharding:(sh, base) nodes] records node [i] on shard
    [base + i] and declares every edge between two of these nodes'
    shards with the fabric latency as lookahead.  No-op without
    [sharding].  Call before {!start}-ing the nodes. *)

val start : name:string -> Hw.Node.t -> (unit -> 'a) -> 'a
(** Run a constructor in process context on the node's engine and
    return its result.  Unplaced: called inline, from the caller's
    process.  Placed: called from outside any engine; the constructor
    runs as a t = 0 root process named [name] on the node's shard,
    which is run to completion of its t = 0 work before returning.
    @raise Failure if the constructor blocks past t = 0. *)

val run_on : from:Hw.Node.t -> name:string -> Hw.Node.t -> (unit -> unit) -> unit
(** From a process on [from]'s engine, run [f] on the node's engine:
    inline when both share one, otherwise as a root process named
    [name] on the node's shard at the edge lookahead (a modelled
    completion with no frame of its own). *)
