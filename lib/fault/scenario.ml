open Sim
module D = Linefs.Deployment
module Nicfs = Linefs.Nicfs
module Libfs = Linefs.Libfs
module Lease = Linefs.Lease
module Oplog = Storage.Oplog
module Data = Storage.Data

type spec = {
  seed : int;
  nodes : int;
  clients : int;
  ops_per_client : int;
  horizon : Time.t;
  plan : Plan.t;
}

type outcome = {
  completed : bool;
  violations : Invariant.violation list;
  fs_digest : int32;
  trace_events : int;
  ops_logged : int;
  drops : int;
  delays : int;
  dups : int;
  reorders : int;
  corrupts : int;
  scrubbed : int;
}

let failed o = (not o.completed) || o.violations <> []

let pp_spec fmt s =
  Format.fprintf fmt
    "seed=%d nodes=%d clients=%d ops/client=%d horizon=%a plan=%a" s.seed
    s.nodes s.clients s.ops_per_client Time.pp s.horizon Plan.pp s.plan

let pp_outcome fmt o =
  Format.fprintf fmt
    "%s: digest=%08lx trace=%d ops=%d drops=%d delays=%d dups=%d \
     reorders=%d corrupts=%d scrubbed=%d violations=%d"
    (if o.completed then "completed" else "WEDGED")
    o.fs_digest o.trace_events o.ops_logged o.drops o.delays o.dups
    o.reorders o.corrupts o.scrubbed
    (List.length o.violations);
  List.iter
    (fun v -> Format.fprintf fmt "@\n  %a" Invariant.pp_violation v)
    o.violations

let generate ~seed =
  let rng = Rng.create seed in
  let nodes = 3 in
  let horizon = Time.ms 20 in
  let clients = 1 + Rng.int rng 2 in
  let ops_per_client = 25 + Rng.int rng 40 in
  let plan = Plan.generate ~rng ~nodes ~horizon in
  { seed; nodes; clients; ops_per_client; horizon; plan }

(* Byzantine-fabric adversary: same workload shape, but the plan draws
   only duplication / reordering / corruption / storage faults at
   aggressive probabilities — the profile the CI adversary sweep runs
   against the idempotence, integrity and scrub machinery. *)
let generate_adversary ~seed =
  let rng = Rng.create seed in
  let nodes = 3 in
  let horizon = Time.ms 20 in
  let clients = 1 + Rng.int rng 2 in
  let ops_per_client = 25 + Rng.int rng 40 in
  let plan = Plan.generate_adversary ~rng ~nodes ~horizon in
  { seed; nodes; clients; ops_per_client; horizon; plan }

(* Explicit failover scenarios (not seed-generated: generated plans
   never touch node 0 and always heal).  These drive the degraded-mode
   machinery end to end: NIC-crash-to-host-fallback on the primary,
   a second crash landing mid-fail-back, permanent replica death with
   chain reconfiguration, and a concurrent crash + death. *)

let failover_base ~seed ~plan =
  { seed; nodes = 3; clients = 2; ops_per_client = 30;
    horizon = Time.ms 20; plan }

let failover_primary_crash ~seed =
  failover_base ~seed
    ~plan:
      [ Plan.Crash { node = 0; at = Time.ms 4; restart_after = Time.ms 8 } ]

let failover_crash_during_failback ~seed =
  failover_base ~seed
    ~plan:
      [
        Plan.Crash { node = 0; at = Time.ms 4; restart_after = Time.ms 5 };
        Plan.Crash { node = 0; at = Time.ms 10; restart_after = Time.ms 5 };
      ]

let failover_replica_death ~seed =
  failover_base ~seed
    ~plan:[ Plan.Node_death { node = 2; at = Time.ms 5 } ]

let failover_double_failure ~seed =
  failover_base ~seed
    ~plan:
      [
        Plan.Crash { node = 1; at = Time.ms 4; restart_after = Time.ms 8 };
        Plan.Node_death { node = 2; at = Time.ms 6 };
      ]

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

(* Set DST_DEBUG=1 to stream the fault/service-transition timeline of
   a scenario to stderr — the first tool to reach for when a seed
   wedges or crashes. *)
let dst_debug = Sys.getenv_opt "DST_DEBUG" <> None

let sleep_until at =
  let now = Engine.now () in
  if at > now then Engine.sleep (at - now)

(* One client process issuing a random stream of operations over a
   private namespace (/c<id>_f<n>).  Namespaces are disjoint across
   clients so every pair of cross-client operations commutes — replicas
   may interleave different clients' chunks differently, and the
   convergence check relies on commutativity.  Clients still contend on
   the shared root directory's write lease for every namespace op. *)
let client_proc ~rng ~spec ~cid (ops : Linefs.Dfs_intf.ops) =
  let file n = Printf.sprintf "/c%d_f%d" cid n in
  let nfiles = 4 in
  let gap_us =
    max 1 (Time.to_us_f spec.horizon /. float_of_int spec.ops_per_client
          |> int_of_float)
  in
  let payload () =
    let len = 64 + Rng.int rng 2048 in
    let b = Bytes.create len in
    Rng.fill_bytes rng b;
    Data.real b
  in
  let create_or_open path =
    try ops.Linefs.Dfs_intf.create path
    with Linefs.Dfs_intf.Fs_error _ -> ops.Linefs.Dfs_intf.open_file path
  in
  for _ = 1 to spec.ops_per_client do
    (try
       match Rng.int rng 10 with
       | 0 | 1 | 2 | 3 ->
           let fd = create_or_open (file (Rng.int rng nfiles)) in
           ops.Linefs.Dfs_intf.write fd ~pos:(Rng.int rng 4096) (payload ());
           ops.Linefs.Dfs_intf.close fd
       | 4 | 5 ->
           let fd = create_or_open (file (Rng.int rng nfiles)) in
           ops.Linefs.Dfs_intf.append fd (payload ());
           ops.Linefs.Dfs_intf.close fd
       | 6 ->
           let fd = create_or_open (file (Rng.int rng nfiles)) in
           ops.Linefs.Dfs_intf.write fd ~pos:0 (payload ());
           ops.Linefs.Dfs_intf.fsync fd;
           ops.Linefs.Dfs_intf.close fd
       | 7 ->
           ops.Linefs.Dfs_intf.rename
             (file (Rng.int rng nfiles))
             (file (Rng.int rng nfiles))
       | 8 -> ops.Linefs.Dfs_intf.unlink (file (Rng.int rng nfiles))
       | _ -> (
           match ops.Linefs.Dfs_intf.file_size (file (Rng.int rng nfiles)) with
           | Some sz when sz > 0 ->
               let fd = ops.Linefs.Dfs_intf.open_file (file 0) in
               ignore
                 (ops.Linefs.Dfs_intf.read fd ~pos:0 ~len:(min sz 512)
                   : Data.t);
               ops.Linefs.Dfs_intf.close fd
           | _ -> ())
     with Linefs.Dfs_intf.Fs_error _ -> ());
    Engine.sleep (Time.us (1 + Rng.int rng (2 * gap_us)))
  done

(* ------------------------------------------------------------------ *)
(* Fault drivers                                                       *)
(* ------------------------------------------------------------------ *)

let note trace fmt =
  Format.kasprintf
    (fun s ->
      if dst_debug then
        Printf.eprintf "[%s] %s\n%!" (Time.to_string (Engine.now ())) s;
      Trace.add trace (Trace.Fault s))
    fmt

let fault_proc trace net (dep : D.t) (f : Plan.fault) =
  match f with
  | Plan.Crash { node; at; restart_after } ->
      sleep_until at;
      note trace "crash node %d" node;
      Nicfs.crash (D.node dep node).D.nicfs;
      Engine.sleep restart_after;
      note trace "restart node %d" node;
      Nicfs.restart (D.node dep node).D.nicfs
  | Plan.Node_death { node; at } ->
      sleep_until at;
      note trace "node death %d" node;
      (* Host dies too: the kworker stops answering the manager's host
         probe (so the node classifies Down, not HostFallback) and the
         host-side fault domain is killed along with the NIC's. *)
      Linefs.Kworker.crash (D.node dep node).D.kworker;
      Nicfs.kill_node (D.node dep node).D.nicfs
  | Plan.Stall { node; at; duration } ->
      sleep_until at;
      note trace "stall node %d" node;
      Netfault.set_stall net ~node ~until:(Engine.now () + duration);
      Engine.sleep duration;
      note trace "stall over node %d" node;
      Netfault.clear_stall net ~node
  | Plan.Partition { a; b; at; heal_after } ->
      sleep_until at;
      note trace "partition %d<->%d" a b;
      Netfault.set_partition net ~a ~b true;
      Engine.sleep heal_after;
      note trace "heal %d<->%d" a b;
      Netfault.set_partition net ~a ~b false
  | Plan.Link_delay { a; b; at; duration; delay } ->
      sleep_until at;
      note trace "delay %d<->%d +%s" a b (Time.to_string delay);
      Netfault.set_delay net ~a ~b delay;
      Engine.sleep duration;
      note trace "delay over %d<->%d" a b;
      Netfault.set_delay net ~a ~b (Time.ns 0)
  | Plan.Link_drop { a; b; at; duration; p } ->
      sleep_until at;
      note trace "drop %d<->%d p=%.2f" a b p;
      Netfault.set_drop net ~a ~b p;
      Engine.sleep duration;
      note trace "drop over %d<->%d" a b;
      Netfault.set_drop net ~a ~b 0.0
  | Plan.Link_dup { a; b; at; duration; p } ->
      sleep_until at;
      note trace "dup %d<->%d p=%.2f" a b p;
      Netfault.set_dup net ~a ~b p;
      Engine.sleep duration;
      note trace "dup over %d<->%d" a b;
      Netfault.set_dup net ~a ~b 0.0
  | Plan.Link_reorder { a; b; at; duration; p; delay } ->
      sleep_until at;
      note trace "reorder %d<->%d p=%.2f +%s" a b p (Time.to_string delay);
      Netfault.set_reorder net ~a ~b ~p ~delay;
      Engine.sleep duration;
      note trace "reorder over %d<->%d" a b;
      Netfault.set_reorder net ~a ~b ~p:0.0 ~delay:(Time.ns 0)
  | Plan.Link_corrupt { a; b; at; duration; p } ->
      sleep_until at;
      note trace "corrupt %d<->%d p=%.2f" a b p;
      Netfault.set_corrupt net ~a ~b p;
      Engine.sleep duration;
      note trace "corrupt over %d<->%d" a b;
      Netfault.set_corrupt net ~a ~b 0.0
  | Plan.Torn_tail { node; at } ->
      sleep_until at;
      note trace "torn tail node %d" node;
      (* The next record the node's publication gate dequeues turns out
         torn: dropped unpublished, then re-fetched from its primary. *)
      Nicfs.mark_torn (D.node dep node).D.nicfs
  | Plan.Bit_rot { node; at; salt } ->
      sleep_until at;
      (match
         Storage.Fs_state.tamper (D.node dep node).D.fs ~salt
       with
      | Some inum -> note trace "bit rot node %d inum %d" node inum
      | None -> note trace "bit rot node %d (no file to damage)" node)

let drive_fault = fault_proc

let crashed_nodes plan =
  List.filter_map
    (function Plan.Crash { node; _ } -> Some node | _ -> None)
    plan
  |> List.sort_uniq compare

let dead_nodes plan =
  List.filter_map
    (function Plan.Node_death { node; _ } -> Some node | _ -> None)
    plan
  |> List.sort_uniq compare

let bitrot_nodes plan =
  List.filter_map
    (function Plan.Bit_rot { node; _ } -> Some node | _ -> None)
    plan
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Scenario execution                                                  *)
(* ------------------------------------------------------------------ *)

(* Deadline rationale: a correct system finishes well inside 30 virtual
   seconds; hitting it means the scenario wedged, which the checker
   reports.  A crash inside the simulation (a failwith in some daemon)
   is itself a finding, not a harness error — captured as a
   violation. *)
let scenario_deadline = Time.sec 30

(* The root process installs the fault hook and observers from inside
   the engine, so they are engine-local and die with it. *)
let run (spec : spec) =
  let eng = Engine.create ~seed:spec.seed () in
  Counters.reset ();
  let trace = Trace.create () in
  let histories : (int, Oplog.entry list ref) Hashtbl.t = Hashtbl.create 4 in
  let net = Netfault.create ~rng:(Rng.create (spec.seed lxor 0x6e6574)) in
  let completed = ref false in
  let dep_ref = ref None in
  Engine.spawn_root ~name:"dst-scenario" eng (fun () ->
      let params =
        {
          Linefs.Params.default with
          Linefs.Params.chunk_bytes = 32 * 1024;
          repl_retry_timeout = Time.ms 2;
        }
      in
      let dep =
        D.create ~params ~apply_on_publish:true ~nodes:spec.nodes ()
      in
      dep_ref := Some dep;
      let mgr =
        Cluster.Manager.create ~heartbeat_interval:(Time.ms 1) ()
      in
      let clients_ref = ref [] in
      for i = 0 to D.node_count dep - 1 do
        let rt = D.node dep i in
        Cluster.Manager.register mgr ~id:i
          ~ping:(fun () -> Nicfs.ping rt.D.nicfs)
          ~on_epoch:(fun e ->
            Trace.add trace (Trace.Epoch e);
            Nicfs.set_epoch rt.D.nicfs e)
          ~ping_host:(fun () -> Linefs.Kworker.alive rt.D.kworker)
          ~on_service:(fun svc ->
            (* Failover driver: the manager's service map is the one
               source of truth.  NIC-dead-host-alive brings the host
               fallback up, full recovery fails back, and every
               transition rewires the replication chain over the
               usable nodes and re-kicks the clients (kicks queued at
               a dead plane are lost). *)
            (match svc with
            | Cluster.Manager.Nic ->
                note trace "service node %d: nic" i;
                Nicfs.exit_fallback rt.D.nicfs
            | Cluster.Manager.HostFallback ->
                note trace "service node %d: host-fallback" i;
                Nicfs.enter_fallback rt.D.nicfs
            | Cluster.Manager.Down -> note trace "service node %d: down" i);
            D.rebuild_chain dep ~up:(fun j ->
                Cluster.Manager.service mgr j <> Cluster.Manager.Down);
            List.iter Libfs.note_service_change !clients_ref)
          ()
      done;
      Cluster.Manager.start mgr;
      Netfault.install net;
      Lease.set_observer (fun ev -> Trace.add trace (Trace.Lease ev));
      Libfs.set_entry_observer (fun ~client e ->
          let h =
            match Hashtbl.find_opt histories client with
            | Some h -> h
            | None ->
                let h = ref [] in
                Hashtbl.replace histories client h;
                h
          in
          h := e :: !h);
      let clients =
        List.init spec.clients (fun i -> D.add_client dep ~id:i)
      in
      clients_ref := clients;
      List.iter
        (fun f -> Engine.spawn ~name:"dst-fault" (fun () ->
             fault_proc trace net dep f))
        spec.plan;
      let done_ivs =
        List.mapi
          (fun i c ->
            let iv = Ivar.create () in
            let rng = Rng.create (spec.seed + (1000 * (i + 1))) in
            Engine.spawn ~name:(Printf.sprintf "dst-client%d" i) (fun () ->
                client_proc ~rng ~spec ~cid:i (Libfs.ops c);
                Ivar.fill iv ());
            iv)
          clients
      in
      List.iter Ivar.read done_ivs;
      (* Let the fault plan fully play out (restarts, heals). *)
      sleep_until (Plan.horizon spec.plan + Time.ms 1);
      (* Recover every node that crashed (not the permanently dead):
         re-register with the manager and pull missed inodes from the
         lowest-id usable peer — the primary itself may be the node
         recovering. *)
      List.iter
        (fun n ->
          let source_id =
            let rec go i =
              if i >= D.node_count dep then 0
              else if
                i <> n
                && Cluster.Manager.service mgr i <> Cluster.Manager.Down
              then i
              else go (i + 1)
            in
            go 0
          in
          let stats =
            Linefs.Recovery.run ~manager:mgr
              ~recovering:(D.node dep n).D.nicfs
              ~source:(D.node dep source_id).D.nicfs ()
          in
          note trace "recovered node %d (epochs %d->%d, %d inodes)" n
            stats.Linefs.Recovery.from_epoch stats.Linefs.Recovery.to_epoch
            stats.Linefs.Recovery.inodes_resynced)
        (crashed_nodes spec.plan);
      (* Drain all pipelines; retransmission pushes anything lost during
         the fault window through the healed chain. *)
      D.flush_all dep;
      (* Recovery-time integrity scrub of bit-rotted replicas: stream
         CRCs against the primary and re-fetch damaged inodes. *)
      List.iter
        (fun n ->
          if not (List.mem n (dead_nodes spec.plan)) then begin
            let repaired =
              Linefs.Recovery.scrub
                ~recovering:(D.node dep n).D.nicfs
                ~source:(D.primary dep).D.nicfs
            in
            note trace "scrubbed node %d (%d inodes repaired)" n repaired
          end)
        (bitrot_nodes spec.plan);
      Cluster.Manager.stop mgr;
      D.stop dep;
      completed := true);
  let sim_crash =
    match Engine.run ~deadline:scenario_deadline eng with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let histories =
    Hashtbl.fold (fun c h acc -> (c, List.rev !h) :: acc) histories []
    |> List.sort compare
  in
  let ops_logged =
    List.fold_left (fun acc (_, es) -> acc + List.length es) 0 histories
  in
  let violations, fs_digest =
    match !dep_ref with
    | None -> ([ { Invariant.name = "setup"; detail = "deployment never built" } ], 0l)
    | Some dep ->
        let prim = (D.primary dep).D.fs in
        let dead = dead_nodes spec.plan in
        (* Convergence is asserted over the surviving replica set: a
           permanently dead node keeps whatever prefix it had. *)
        let reps =
          List.filter_map
            (fun (rt : D.node_rt) ->
              let id = rt.D.node.Hw.Node.id in
              if List.mem id dead then None else Some (id, rt.D.fs))
            (D.replicas dep)
        in
        let journals =
          List.filter_map
            (fun (rt : D.node_rt) ->
              let id = rt.D.node.Hw.Node.id in
              if List.mem id dead then None
              else Some (id, Nicfs.apply_journal rt.D.nicfs))
            (D.replicas dep)
        in
        let vs =
          Invariant.check_prefix_consistency ~histories
          @ Invariant.check_single_writer trace
          @ Invariant.check_no_duplicate_apply ~journals
          @ (if !completed then Invariant.check_convergence ~primary:prim ~replicas:reps
             else [])
        in
        (vs, Storage.Fs_state.digest prim)
  in
  let violations =
    match sim_crash with
    | Some msg ->
        { Invariant.name = "sim-crash"; detail = msg } :: violations
    | None ->
        if !completed then violations
        else
          { Invariant.name = "wedged";
            detail = "scenario did not complete before the deadline" }
          :: violations
  in
  {
    completed = !completed;
    violations;
    fs_digest;
    trace_events = Trace.count trace;
    ops_logged;
    drops = Netfault.drops net;
    delays = Netfault.delays net;
    dups = Netfault.dups net;
    reorders = Netfault.reorders net;
    corrupts = Netfault.corrupts net;
    scrubbed =
      (* The daemons bumped their counters while running on [eng], so
         the evidence sits in that engine's local table. *)
      Counters.get_in eng "storage.scrub-refetch"
      + Counters.get_in eng "storage.bitrot-repair";
  }
