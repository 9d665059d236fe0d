open Sim
open Storage

type client_state = {
  cid : int;
  log : Oplog.Log.t;
  on_published : upto_seq:int -> unit;
  on_revoke : inum:int -> unit;
  grandfather : (int, int) Hashtbl.t;
      (* inum -> last log seq written under a since-revoked lease;
         validation accepts those entries (they were legal when
         logged, and revocation ordered after them). *)
  mutable fetched_seq : int; (* last seq already placed in a chunk *)
  mutable chunk_count : int;
  mutable replicated_seq : int; (* contiguous prefix acked by all replicas *)
  mutable published_seq : int;
  repl_progress : Cond.t;
  publish_progress : Cond.t;
  completed_repl : (int, int) Hashtbl.t; (* chunk idx -> last_seq *)
  mutable next_repl_idx : int;
  acks : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* chunk idx -> node ids that acked so far.  Per-node dedup
         matters under retransmission: a replica re-acks duplicate
         deliveries, and counting those would complete a chunk without
         every replica having persisted it. *)
  inflight : (int, Chunk.t) Hashtbl.t;
      (* chunk idx -> chunk, from submission until both replicated and
         published.  Chain reconfiguration needs the chunk back (its
         last_seq, for completing the ack set against the surviving
         replicas) after a dead node is dropped from the chain. *)
  mutable shared_pl : Chunk.t Pipeline.t option;
  mutable publish_pl : Chunk.t Pipeline.t option;
  mutable repl_pl : Chunk.t Pipeline.t option;
  mutable seq_pl : Chunk.t Pipeline.t option; (* NotParallel mode *)
}

(* Replica-side publication gate: chunks can arrive out of order or in
   duplicate under retransmission; publication (history recording and
   metadata application) must happen exactly once per chunk, in index
   order.  Progress is host-PM-backed — an acked chunk sits in the host
   log — so the gate survives NICFS crashes. *)
type gate = {
  mutable next_pub_idx : int;
  pub_buffered : (int, Chunk.t) Hashtbl.t;
}

type t = {
  params : Params.t;
  node : Hw.Node.t;
  fs : Fs_state.t;
  kworker : Kworker.t;
  lease : Lease.t;
  parallel : bool;
  apply_on_publish : bool;
  mutable coalescing : bool;
  mutable compression : bool;
  mutable next_hop : t option;
  clients : (int, client_state) Hashtbl.t;
  mutable kworker_ok : bool;
  mutable is_isolated : bool;
  mutable monitor_running : bool;
  flow : Cond.t;
  mutable flow_blocked : bool;
  mutable dserver : (dmsg, unit) Net.Rpc.t option;
  mutable cserver : (cmsg, cresp) Net.Rpc.t option;
  mutable repl_wire : int;
  mutable pub_bytes : int;
  mutable coalesced : int;
  ack_lat : Stats.Series.t;
  (* Recovery state (SS3.6): the cluster epoch this NICFS has persisted,
     and the replicated history bitmap of inode updates per epoch. *)
  mutable epoch : int;
  history : Cluster.History.t;
  (* Fault injection: the NICFS's processes run in [group]; [crash]
     kills it and [restart] brings the servers back in a fresh one.
     [host_group] is the node's host-side domain — pipeline workers,
     retransmitters, fsync waiters and lease persists live there, and
     it is never killed by a NIC crash (the host OS outlives a NIC
     reset; only a Node_death-style fault takes the whole node). *)
  mutable alive : bool;
  mutable group : Engine.group option;
  host_group : Engine.group;
  mutable incarnation : int;
  repl_gate : (int, gate) Hashtbl.t; (* client id -> publication gate *)
  (* Degraded mode (§3.6): with the NIC down but the host alive, the
     kernel worker hosts the NICFS planes on host cores.  [fb_*] are
     the host-side RPC servers standing in for the NIC ones. *)
  mutable fallback : bool;
  mutable fb_dserver : (dmsg, unit) Net.Rpc.t option;
  mutable fb_cserver : (cmsg, cresp) Net.Rpc.t option;
  mutable fb_episode : int;
  (* Replication-chain membership as of the last (re)configuration:
     the downstream node ids whose acks complete a chunk, or [None]
     for the legacy fixed-threshold behaviour (any [replicas - 1]
     ackers). *)
  mutable repl_targets : int list option;
  mutable required_acks : int;
  (* Byzantine-fabric hardening state (only exercised under fault
     injection).  [retired] is a bounded retention cache of recently
     retired chunks on the primary, so a replica's recovery scrub can
     re-fetch a record it found torn even after the ack set completed.
     [torn_pending] arms the next gate dequeue on this replica to
     discover its persisted record torn.  [apply_journal] records every
     (client, seq) applied via [apply_on_publish], newest first — the
     no-duplicate-apply invariant's evidence. *)
  retired : (int * int, Chunk.t) Hashtbl.t;
  retired_fifo : (int * int) Queue.t;
  mutable torn_pending : bool;
  mutable apply_journal : (int * int) list;
}

and dmsg =
  | Start of { client : int }
  | Repl_chunk of {
      chunk : Chunk.t;
      origin : t;
      wire : int;
      nic_mem : bool;
          (* The sender staged the wire form in our NIC DRAM.  False
             when we are in host fallback: the bytes were placed
             straight into host PM and there is nothing to free. *)
    }
  | Repl_direct of { chunk : Chunk.t; origin : t }
  | Repl_ack of {
      client : int;
      node : int; (* acker's node id, for per-replica ack dedup *)
      idx : int;
      last_seq : int;
      sent_at : Time.t;
    }
  | Refetch of { client : int; idx : int; requester : t }
      (* Recovery scrub: [requester] found its persisted copy of the
         chunk torn and asks the chunk's primary for a pristine one
         (from the in-flight table or the retired-chunk retention
         cache). *)

and cmsg =
  | C_fsync of { client : int; upto : int }
  | C_lease of { client : int; inum : int; lt : Lease.ltype }
  | C_open of { client : int; inum : int; write : bool }

and cresp =
  | R_done of unit Ivar.t
  | R_lease of [ `Granted | `Conflict ]
  | R_check of (unit, Fs_state.error) result

let node t = t.node
let lease_mgr t = t.lease
let nic_loc t = Net.Loc.Nic t.node
let nic_pool t = Hw.Smartnic.cpu t.node.Hw.Node.nic

(* The node's current NICFS compute plane: SmartNIC cores normally;
   in degraded mode the host cores, billed through the kernel worker's
   accounting hook so the host-CPU cost of fallback shows up in the
   §5.2.1-style interference numbers. *)
let nic_run t work =
  if t.fallback then Kworker.host_run t.kworker work
  else Hw.Cpu.run (nic_pool t) work

(* Where this NICFS's traffic originates from. *)
let src_loc t = if t.fallback then Net.Loc.Host t.node else nic_loc t

(* Work executed inline on the reserved busy-poll core: wall time is
   work scaled by NIC core speed, with no pool queueing.  The host
   fallback has no reserved spinning core — it charges the host pool. *)
let poll_core_work t work =
  if t.fallback then Kworker.host_run t.kworker work
  else
    Engine.sleep
      (int_of_float (float_of_int work /. Hw.Cpu.speed (nic_pool t)))

let is_last t = t.next_hop = None

let dserver t =
  match (if t.fallback then t.fb_dserver else t.dserver) with
  | Some s -> s
  | None -> failwith "nicfs: not started"

let client_state t cid =
  match Hashtbl.find_opt t.clients cid with
  | Some cs -> cs
  | None -> invalid_arg (Printf.sprintf "nicfs: unknown client %d" cid)

(* Mutation knobs for the conformance self-test: [chaos_no_dedup]
   bypasses the replica publication gate (every delivery publishes,
   so fabric duplicates double-apply) and [chaos_no_scrub] suppresses
   the torn-record re-fetch (the gate wedges and replicas diverge).
   Both planted bugs must be caught by the invariant layer. *)
let chaos_no_dedup = ref false
let chaos_no_scrub = ref false

(* End-to-end integrity trailer for the data plane: chunk-carrying
   messages get a CRC32 over their entries' wire bytes (streamed — the
   rope is never flattened), folded with each entry's own record CRC so
   both payload damage and record-trailer damage are caught.  Control
   messages carry no trailer; the modeled link-level FCS still discards
   tainted frames. *)
let dmsg_integrity = function
  | Repl_chunk { chunk; _ } | Repl_direct { chunk; _ } ->
      Some (List.fold_left Storage.Oplog.frame_crc 0l chunk.Chunk.entries)
  | Start _ | Repl_ack _ | Refetch _ -> None

(* Retired-chunk retention (primary side): bounded FIFO so scrub
   re-fetches stay answerable after ack-set completion without holding
   every chunk forever.  Only populated under fault injection. *)
let retired_cap = 256

let retain_chunk t ~client (c : Chunk.t) =
  if Net.Inject.active () then begin
    let k = (client, c.Chunk.idx) in
    if not (Hashtbl.mem t.retired k) then begin
      Hashtbl.replace t.retired k c;
      Queue.push k t.retired_fifo;
      if Queue.length t.retired_fifo > retired_cap then
        Hashtbl.remove t.retired (Queue.pop t.retired_fifo)
    end
  end

(* ------------------------------------------------------------------ *)
(* NIC memory flow control (§4 "Replication flow control")             *)
(* ------------------------------------------------------------------ *)

let nic_mem_acquire t bytes =
  if t.fallback then ()
    (* Host fallback stages chunks in host DRAM, which is not the
       constrained resource the watermark flow control protects. *)
  else begin
    let nic = t.node.Hw.Node.nic in
    let frac () = Hw.Smartnic.mem_frac nic in
    if frac () >= t.params.Params.hi_watermark then t.flow_blocked <- true;
    while t.flow_blocked && frac () > t.params.Params.lo_watermark do
      Cond.await t.flow
    done;
    t.flow_blocked <- false;
    Hw.Smartnic.alloc nic bytes
  end

let nic_mem_release t bytes =
  Hw.Smartnic.free t.node.Hw.Node.nic bytes;
  Cond.broadcast t.flow

let chunk_mem_unref t (c : Chunk.t) =
  c.Chunk.mem_refs <- c.Chunk.mem_refs - 1;
  if c.Chunk.mem_refs = 0 && c.Chunk.nic_resident then
    nic_mem_release t c.Chunk.bytes

(* ------------------------------------------------------------------ *)
(* Pipeline stages                                                     *)
(* ------------------------------------------------------------------ *)

(* Fetch: pull the chunk from the host PM log into NIC memory over
   PCIe (one-sided RDMA read).  Degraded mode reads the PM log with
   host cores instead — no PCIe hop, no NIC DRAM. *)
let fetch_work t (c : Chunk.t) =
  if t.fallback then begin
    c.Chunk.mem_refs <- 2;
    c.Chunk.nic_resident <- false;
    Hw.Pm.read t.node.Hw.Node.pm c.Chunk.bytes;
    Kworker.host_run t.kworker (Hw.Node.copy_work t.node c.Chunk.bytes)
  end
  else begin
    nic_mem_acquire t c.Chunk.bytes;
    c.Chunk.mem_refs <- 2;
    c.Chunk.nic_resident <- true;
    Net.Rdma.move ~src_medium:`Pm
      ~src:(Net.Loc.Host t.node)
      ~dst:(nic_loc t) c.Chunk.bytes
  end

(* Validation (+ coalescing, same core for cache locality). *)
let validate_work t (c : Chunk.t) =
  let p = t.params in
  let entries = Chunk.entry_count c in
  let scan_work =
    int_of_float
      (float_of_int c.Chunk.bytes /. p.Params.validate_byte_bps *. 1e9)
  in
  nic_run t ((entries * p.Params.validate_entry_cost) + scan_work);
  (* Real integrity + lease checks over the fetched entries. *)
  List.iter
    (fun (e : Oplog.entry) ->
      (match e.op with
      | Oplog.Write { data; _ } when Data.is_real data ->
          if not (Oplog.check e) then
            failwith "nicfs: corrupt log entry reached validation"
      | _ -> ());
      List.iter
        (fun inum ->
          let ok =
            Lease.check_access t.lease ~client:e.Oplog.client ~inum
              ~write:true
            ||
            match Hashtbl.find_opt t.clients e.Oplog.client with
            | Some owner -> (
                match Hashtbl.find_opt owner.grandfather inum with
                | Some limit -> e.Oplog.seq <= limit
                | None -> false)
            | None ->
                (* Forwarded chunk on a replica: the primary already
                   validated lease ownership. *)
                true
          in
          if not ok then
            failwith
              (Printf.sprintf
                 "nicfs: lease violation in validation (client=%d seq=%d \
                  inum=%d grandfather=%s)"
                 e.Oplog.client e.Oplog.seq inum
                 (match Hashtbl.find_opt t.clients e.Oplog.client with
                 | Some owner -> (
                     match Hashtbl.find_opt owner.grandfather inum with
                     | Some l -> string_of_int l
                     | None -> "none")
                 | None -> "n/a")))
        (Oplog.touches e.op))
    c.Chunk.entries;
  if t.coalescing then begin
    let survivors, removed = Coalesce.run c.Chunk.entries in
    if removed > 0 then begin
      ignore (survivors : Oplog.entry list);
      c.Chunk.coalesced_away <- removed;
      t.coalesced <- t.coalesced + removed
    end
  end

(* Bytes that actually need publication (coalesced entries skipped). *)
let publish_volume (c : Chunk.t) =
  if c.Chunk.coalesced_away = 0 then c.Chunk.bytes
  else begin
    let total = Chunk.entry_count c in
    let live = max 0 (total - c.Chunk.coalesced_away) in
    c.Chunk.bytes * live / max 1 total
  end

let isolated_publish t bytes =
  (* No kernel worker: NICFS itself moves log -> public PM across PCIe
     (read + write), still without host CPU. *)
  Hw.Pcie.transfer t.node.Hw.Node.pcie bytes;
  Hw.Pm.read t.node.Hw.Node.pm bytes;
  Hw.Pcie.transfer t.node.Hw.Node.pcie bytes;
  Hw.Pm.write t.node.Hw.Node.pm bytes

let publish_copy t ~bytes ~entries =
  if bytes > 0 then begin
    if t.kworker_ok && not t.is_isolated then begin
      match
        Kworker.submit t.kworker ~from:(src_loc t)
          { Kworker.total_bytes = bytes; list_entries = entries }
      with
      | `Ok -> ()
      | `Dead ->
          t.kworker_ok <- false;
          t.is_isolated <- true;
          isolated_publish t bytes
    end
    else isolated_publish t bytes
  end;
  t.pub_bytes <- t.pub_bytes + bytes

(* Publication: build the copy list on the NIC, hand it to the kernel
   worker (or do it over PCIe in isolated mode), then apply metadata. *)
let record_history t (c : Chunk.t) =
  List.iter
    (fun (e : Oplog.entry) ->
      List.iter
        (fun inum -> Cluster.History.record t.history ~epoch:t.epoch ~inum)
        (Oplog.touches e.Oplog.op))
    c.Chunk.entries

let publish_work t (c : Chunk.t) =
  let entries = Chunk.entry_count c in
  nic_run t (entries * t.params.Params.publish_entry_cost);
  publish_copy t ~bytes:(publish_volume c) ~entries;
  record_history t c
  (* No [apply_on_publish] replay here: this is the node that logged
     the entries, and its LibFS already applied them eagerly at append
     time.  Re-applying would resurrect unlinked inodes (a replayed
     Create of a since-freed inum adds a duplicate name binding) in the
     very state local clients validate against.  Only the replica
     delivery path replays entry semantics. *)

(* Drop a chunk from the in-flight table once nothing can still need
   it: published locally and off the ack table (fully replicated, or
   single-node).  Until then chain reconfiguration may need the chunk
   back to complete its ack set against the surviving replicas. *)
let retire_chunk t cs idx =
  match Hashtbl.find_opt cs.inflight idx with
  | Some c
    when Ivar.is_filled c.Chunk.published && not (Hashtbl.mem cs.acks idx)
    ->
      Hashtbl.remove cs.inflight idx;
      retain_chunk t ~client:cs.cid c
  | _ -> ()

(* The publication pipeline's sink: runs in order; acknowledge to
   LibFS so it can reclaim the log. *)
let publish_sink t cs (c : Chunk.t) =
  chunk_mem_unref t c;
  cs.published_seq <- c.Chunk.last_seq;
  let t0 = Engine.now () in
  (* ACK stage: small message back across PCIe to LibFS. *)
  Net.Rdma.move ~src:(src_loc t) ~dst:(Net.Loc.Host t.node) 64;
  Stats.Series.add t.ack_lat (Time.to_us_f (Engine.now () - t0));
  cs.on_published ~upto_seq:c.Chunk.last_seq;
  Ivar.fill c.Chunk.published ();
  retire_chunk t cs c.Chunk.idx;
  Cond.broadcast cs.publish_progress

(* Compression stage (optional, §3.3.2): real LZW over real payloads;
   synthetic payloads are treated as incompressible. The chunk is
   split across [compress_workers] SmartNIC threads so the stage never
   bottlenecks the pipeline (§5.4). *)
let compress_work t (c : Chunk.t) =
  (* Degraded mode skips compression entirely (§3.6): it exists to
     save NIC-side network bandwidth at the price of NIC cycles, and
     burning host cores on it would defeat the point of offload. *)
  if t.compression && not t.fallback then begin
    let total_work =
      int_of_float
        (float_of_int c.Chunk.bytes /. t.params.Params.compress_bps *. 1e9)
    in
    let k = max 1 t.params.Params.compress_workers in
    let seg = max 1 (total_work / k) in
    let live = ref k in
    let all = Ivar.create () in
    for _ = 1 to k do
      Engine.spawn ~name:"nicfs.compress-seg" (fun () ->
          nic_run t seg;
          decr live;
          if !live = 0 then Ivar.fill all ())
    done;
    Ivar.read all;
    let payloads =
      List.filter_map
        (fun (e : Oplog.entry) ->
          match e.op with
          | Oplog.Write { data; _ } when Data.is_real data -> Some data
          | _ -> None)
        c.Chunk.entries
    in
    let real_payload =
      List.fold_left (fun n d -> n + Data.length d) 0 payloads
    in
    if real_payload > 0 then begin
      (* Zero-copy sizing: the encoder streams the rope's slices and
         counts output codes — the joined chunk (up to 4 MB) is never
         materialized into a flat buffer just to measure its wire
         size. *)
      let joined = Data.concat payloads in
      let compressed_len = Compress.Lzw.encoded_length_data joined in
      let meta = c.Chunk.bytes - real_payload in
      c.Chunk.wire_bytes <- min c.Chunk.bytes (meta + compressed_len)
    end
  end

let mark_chunk_replicated t cs ~idx ~last_seq =
  Hashtbl.replace cs.completed_repl idx last_seq;
  let advanced = ref false in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt cs.completed_repl cs.next_repl_idx with
    | Some seq ->
        Hashtbl.remove cs.completed_repl cs.next_repl_idx;
        cs.replicated_seq <- seq;
        cs.next_repl_idx <- cs.next_repl_idx + 1;
        advanced := true
    | None -> continue := false
  done;
  ignore t;
  if !advanced then Cond.broadcast cs.repl_progress

(* Ship one chunk to the successor [nxt].  The penultimate node writes
   directly into the last replica's host PM log, saving a SmartNIC
   memory copy (§3.3.2, step 6').  A successor running in host
   fallback has no NIC DRAM to stage into: the wire form goes straight
   to its host PM and the message says so ([nic_mem = false]).  The
   NIC DRAM staging allocation is successor state, so it runs on the
   successor's side of the write. *)
let send_to_successor t nxt ~origin ~wire (c : Chunk.t) =
  let write ?at_dst ~dst ~medium msg =
    Net.Rpc.write_post ~from:(src_loc t) ~dst ~medium ?at_dst
      ~name:"nicfs.repl-ship" wire
      (fun () -> dserver nxt)
      msg
  in
  if nxt.fallback then
    write ~dst:(Net.Loc.Host nxt.node) ~medium:`Pm
      (Repl_chunk { chunk = c; origin; wire; nic_mem = false })
  else if is_last nxt && wire = c.Chunk.bytes then
    (* Uncompressed direct placement into the last host's PM log. *)
    write ~dst:(Net.Loc.Host nxt.node) ~medium:`Pm
      (Repl_direct { chunk = c; origin })
  else
    write
      ~at_dst:(fun () -> Hw.Smartnic.alloc nxt.node.Hw.Node.nic wire)
      ~dst:(Net.Loc.Nic nxt.node) ~medium:`Dram
      (Repl_chunk { chunk = c; origin; wire; nic_mem = true })

(* Transfer: ship the chunk to the chain successor. *)
let transfer_work t (c : Chunk.t) =
  (match t.next_hop with
  | None ->
      (* Single-node deployment: nothing to replicate. *)
      (match Hashtbl.find_opt t.clients c.Chunk.client with
      | Some cs ->
          Hashtbl.remove cs.acks c.Chunk.idx;
          mark_chunk_replicated t cs ~idx:c.Chunk.idx
            ~last_seq:c.Chunk.last_seq;
          retire_chunk t cs c.Chunk.idx
      | None -> ());
      if not (Ivar.is_filled c.Chunk.replicated) then
        Ivar.fill c.Chunk.replicated ()
  | Some nxt ->
      (* We are the chunk's primary: acks come back here. *)
      let origin = t in
      let wire = c.Chunk.wire_bytes in
      t.repl_wire <- t.repl_wire + wire;
      send_to_successor t nxt ~origin ~wire c;
      (* Under fault injection messages can be lost, so re-send until
         the ack set completes.  Replicas ack duplicate deliveries and
         re-forward them, which also heals downstream links.  The
         retransmitter re-reads [t.next_hop] every round: after a
         chain reconfiguration it redelivers the unacked suffix to the
         NEW successor, which is how re-replication after a replica
         death happens.  It also keeps running while this NICFS is
         down-but-degraded ([fallback]) and across a crash-restart —
         only a completed ack set (possibly completed by
         [reeval_acks] when the chain shrank) stops it.  On a perfect
         network (no hook installed) nothing is ever lost and the
         retransmitter is not spawned, keeping event schedules of
         fault-free runs unchanged. *)
      if Net.Inject.active () then
        Engine.spawn ~group:t.host_group ~name:"nicfs.retx" (fun () ->
            let unacked () =
              match Hashtbl.find_opt t.clients c.Chunk.client with
              | None -> false
              | Some cs -> Hashtbl.mem cs.acks c.Chunk.idx
            in
            (* Unified retry path: the same capped exponential ladder
               the control-plane retries use, seeded with the chunk
               retry timeout.  Early rounds recover fast from a lossy
               window; the cap keeps a long outage from starving the
               healed chain of retransmissions. *)
            let policy =
              Net.Backoff.make ~base:t.params.Params.repl_retry_timeout
                ~factor:2.0
                ~cap:(8 * t.params.Params.repl_retry_timeout)
                ()
            in
            let rec loop attempt =
              Engine.sleep (Net.Backoff.delay policy ~attempt);
              if unacked () then begin
                (if t.alive || t.fallback then
                   match t.next_hop with
                   | Some nxt ->
                       Counters.bump "net.retransmit";
                       t.repl_wire <- t.repl_wire + c.Chunk.wire_bytes;
                       send_to_successor t nxt ~origin
                         ~wire:c.Chunk.wire_bytes c
                   | None -> ());
                loop (attempt + 1)
              end
            in
            loop 0));
  chunk_mem_unref t c

(* ------------------------------------------------------------------ *)
(* Replica-side handling                                               *)
(* ------------------------------------------------------------------ *)

(* Local publication on a replica: replicas also digest the chunks they
   persisted (the kernel-worker load §5.2.1 measures on replicas).
   Delivery goes through the per-client gate so duplicates publish once
   and out-of-order arrivals publish in index order; the state-changing
   part (history, metadata apply) runs synchronously at dequeue for a
   deterministic order, only the hardware-time charges are async. *)
let replica_publish t (ready : Chunk.t) =
  record_history t ready;
  if t.apply_on_publish then
    List.iter
      (fun (e : Oplog.entry) ->
        t.apply_journal <- (e.Oplog.client, e.Oplog.seq) :: t.apply_journal;
        ignore (Fs_state.apply t.fs e.Oplog.op))
      ready.Chunk.entries;
  Engine.spawn ~name:"nicfs.replica-publish" (fun () ->
      let entries = Chunk.entry_count ready in
      nic_run t (entries * t.params.Params.publish_entry_cost);
      publish_copy t ~bytes:(publish_volume ready) ~entries)

let replica_deliver t ~(origin : t) (c : Chunk.t) =
  if !chaos_no_dedup && Net.Inject.active () then
    (* Planted bug: no publication gate — every delivery (duplicates
       and out-of-order arrivals included) publishes immediately.  The
       no-duplicate-apply invariant must flag the double application. *)
    replica_publish t c
  else begin
    let g =
      match Hashtbl.find_opt t.repl_gate c.Chunk.client with
      | Some g -> g
      | None ->
          let g = { next_pub_idx = 0; pub_buffered = Hashtbl.create 8 } in
          Hashtbl.replace t.repl_gate c.Chunk.client g;
          g
    in
    if
      c.Chunk.idx >= g.next_pub_idx
      && not (Hashtbl.mem g.pub_buffered c.Chunk.idx)
    then Hashtbl.replace g.pub_buffered c.Chunk.idx c;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt g.pub_buffered g.next_pub_idx with
      | None -> continue := false
      | Some ready ->
          Hashtbl.remove g.pub_buffered g.next_pub_idx;
          if t.torn_pending then begin
            (* The persisted record for this chunk turns out torn (a
               partial PM write discovered by its record CRC): truncate
               it — do NOT publish, do NOT advance — and re-fetch a
               pristine copy from the chunk's primary.  Re-delivery
               re-enters the gate at the same index. *)
            t.torn_pending <- false;
            Counters.bump "storage.torn-tail";
            if not !chaos_no_scrub then begin
              Counters.bump "storage.scrub-refetch";
              let client = ready.Chunk.client and idx = ready.Chunk.idx in
              (* Re-request until the gate moves past the torn index:
                 the Refetch or its Repl_chunk answer can itself be
                 corrupted or duplicated in flight. *)
              Engine.spawn ~group:t.host_group ~name:"nicfs.scrub-refetch"
                (fun () ->
                  let policy =
                    Net.Backoff.make
                      ~base:t.params.Params.repl_retry_timeout ~factor:2.0
                      ~cap:(8 * t.params.Params.repl_retry_timeout)
                      ()
                  in
                  let rec loop attempt =
                    Net.Rpc.post (dserver origin) ~from:(src_loc t)
                      (Refetch { client; idx; requester = t });
                    Engine.sleep (Net.Backoff.delay policy ~attempt);
                    let healed =
                      match Hashtbl.find_opt t.repl_gate client with
                      | Some g -> g.next_pub_idx > idx
                      | None -> false
                    in
                    if not healed then loop (attempt + 1)
                  in
                  loop 0)
            end;
            continue := false
          end
          else begin
            g.next_pub_idx <- g.next_pub_idx + 1;
            replica_publish t ready
          end
    done
  end

let send_ack t (origin : t) (c : Chunk.t) =
  (* [dserver origin] resolves the origin's CURRENT plane — after the
     primary fails over to its host, acks chase it there. *)
  let msg =
    Repl_ack
      {
        client = c.Chunk.client;
        node = t.node.Hw.Node.id;
        idx = c.Chunk.idx;
        last_seq = c.Chunk.last_seq;
        sent_at = Engine.now ();
      }
  in
  Net.Rpc.post (dserver origin) ~from:(src_loc t) ~name:"nicfs.repl-ack" msg

let handle_repl_chunk t ~chunk:(c : Chunk.t) ~origin ~wire ~nic_mem =
  (* Decompress if the wire form was compressed. *)
  if wire < c.Chunk.bytes then
    nic_run t
      (int_of_float
         (float_of_int c.Chunk.bytes
         /. (2.0 *. t.params.Params.compress_bps)
         *. 1e9));
  let refs = ref (match t.next_hop with Some _ -> 2 | None -> 1) in
  let release () =
    decr refs;
    if !refs = 0 && nic_mem then begin
      Hw.Smartnic.free t.node.Hw.Node.nic wire;
      Cond.broadcast t.flow
    end
  in
  (* Forward to the next replica and persist locally, in parallel
     (§3.3.2 steps 4 and 5 overlap). *)
  (match t.next_hop with
  | Some nxt ->
      Engine.spawn ~name:"nicfs.forward" (fun () ->
          send_to_successor t nxt ~origin ~wire c;
          t.repl_wire <- t.repl_wire + wire;
          release ())
  | None -> ());
  (* Persist to the local host PM log across PCIe, deliver to the
     publication gate, then ack.  The gate hand-off happens before the
     ack leaves: once persisted to host PM the chunk survives a NIC
     crash, so an acked chunk must also be guaranteed to publish —
     acking first would open a crash window where the primary stops
     retransmitting a chunk this replica never published. *)
  if nic_mem then begin
    Hw.Pcie.transfer t.node.Hw.Node.pcie c.Chunk.bytes;
    Hw.Pm.write t.node.Hw.Node.pm c.Chunk.bytes
  end
  else if wire < c.Chunk.bytes then
    (* Host-fallback delivery: the wire form already landed in host
       PM; only the decompressed full form still needs writing. *)
    Hw.Pm.write t.node.Hw.Node.pm c.Chunk.bytes;
  replica_deliver t ~origin c;
  send_ack t origin c;
  release ()

let handle_repl_direct t ~chunk:(c : Chunk.t) ~origin =
  (* Data was placed directly in our host PM log by the sender; it is
     already persistent. *)
  replica_deliver t ~origin c;
  send_ack t origin c

(* A chunk's ack set is complete when the configured replica set has
   acked.  [repl_targets = None] is the legacy fixed threshold: any
   [replicas - 1] distinct ackers.  With an explicit target list only
   members count — an ack from a node since dropped from the chain
   must not stand in for a surviving replica that never persisted. *)
let acked_enough t ackers =
  let counted =
    match t.repl_targets with
    | None -> Hashtbl.length ackers
    | Some targets ->
        List.fold_left
          (fun n id -> if Hashtbl.mem ackers id then n + 1 else n)
          0 targets
  in
  counted >= t.required_acks

let handle_ack t ~client ~node ~idx ~last_seq ~sent_at =
  Stats.Series.add t.ack_lat (Time.to_us_f (Engine.now () - sent_at));
  match Hashtbl.find_opt t.clients client with
  | None -> ()
  | Some cs -> (
      match Hashtbl.find_opt cs.acks idx with
      | None -> ()
      | Some ackers ->
          if not (Hashtbl.mem ackers node) then begin
            Hashtbl.replace ackers node ();
            if acked_enough t ackers then begin
              Hashtbl.remove cs.acks idx;
              mark_chunk_replicated t cs ~idx ~last_seq;
              retire_chunk t cs idx
            end
          end)

let set_repl_targets t ~targets =
  t.repl_targets <- Some targets;
  t.required_acks <- List.length targets

(* After a chain reconfiguration shrank the replica set, ack sets that
   were short only of dead nodes' acks are now complete.  Scan and
   finish them (sorted, for a deterministic completion order). *)
let reeval_acks t =
  let cids = Hashtbl.fold (fun cid _ acc -> cid :: acc) t.clients [] in
  List.iter
    (fun cid ->
      let cs = Hashtbl.find t.clients cid in
      let ready =
        Hashtbl.fold
          (fun idx ackers acc ->
            if acked_enough t ackers then idx :: acc else acc)
          cs.acks []
      in
      List.iter
        (fun idx ->
          Hashtbl.remove cs.acks idx;
          let last_seq =
            match Hashtbl.find_opt cs.inflight idx with
            | Some c -> c.Chunk.last_seq
            | None -> cs.replicated_seq
          in
          mark_chunk_replicated t cs ~idx ~last_seq;
          retire_chunk t cs idx)
        (List.sort compare ready))
    (List.sort compare cids)

(* ------------------------------------------------------------------ *)
(* Chunking and the pipelines                                          *)
(* ------------------------------------------------------------------ *)

let submit_chunk t cs (c : Chunk.t) =
  ignore t;
  Hashtbl.replace cs.acks c.Chunk.idx (Hashtbl.create 4);
  Hashtbl.replace cs.inflight c.Chunk.idx c;
  match (cs.seq_pl, cs.shared_pl) with
  | Some pl, _ -> Pipeline.submit pl c
  | None, Some pl -> Pipeline.submit pl c
  | None, None -> failwith "nicfs: client pipelines not built"

(* Group log entries beyond [fetched_seq] into chunks. Non-urgent
   submission only emits full chunks; urgent (fsync/flush) emits
   everything up to [upto]. *)
let submit_chunks t cs ~urgent ~upto =
  let continue = ref true in
  while !continue do
    let entries =
      Oplog.Log.entries_from cs.log ~seq:(cs.fetched_seq + 1)
        ~max_bytes:t.params.Params.chunk_bytes
    in
    let entries =
      match upto with
      | None -> entries
      | Some u -> List.filter (fun (e : Oplog.entry) -> e.Oplog.seq <= u) entries
    in
    match entries with
    | [] -> continue := false
    | _ ->
        let bytes =
          List.fold_left (fun n e -> n + Oplog.size e) 0 entries
        in
        let last_packed =
          (List.nth entries (List.length entries - 1)).Oplog.seq
        in
        (* A batch is a full chunk when it hit the byte budget or when
           more entries exist beyond it; a final partial batch waits
           for more updates unless urgent. *)
        let is_full =
          bytes >= t.params.Params.chunk_bytes
          || last_packed < Oplog.Log.last_seq cs.log
        in
        if (not urgent) && not is_full then continue := false
        else begin
          let c =
            Chunk.of_entries ~client:cs.cid ~idx:cs.chunk_count ~urgent
              entries
          in
          cs.chunk_count <- cs.chunk_count + 1;
          cs.fetched_seq <- c.Chunk.last_seq;
          submit_chunk t cs c
        end
  done

(* Pipeline workers live in the node's [host_group], not the NIC
   group: a worker is a logical stage executor whose compute charges
   follow [t.fallback] call by call, so a NIC crash must not kill it
   mid-item (which would wedge the in-order handoff forever) — the
   chunks it carries sit in host PM and survive the crash.  What a NIC
   crash does lose is the NIC RPC planes and their in-flight handlers;
   stranded work is redriven by client retries and the
   retransmitters. *)
let build_pipelines t cs =
  let group = t.host_group in
  if t.parallel then begin
    let scale_threshold = t.params.Params.scale_queue_threshold in
    let publish_pl =
      Pipeline.create ~scale_threshold ~group
        ~name:(Printf.sprintf "pub.c%d" cs.cid)
        ~stages:[ Pipeline.stage "publication" (publish_work t) ]
        ~sink:(publish_sink t cs) ()
    in
    let repl_stages =
      [
        Pipeline.stage ~initial_workers:1
          ~max_workers:t.params.Params.compress_workers "compression"
          (compress_work t);
        Pipeline.stage "transfer" (transfer_work t);
      ]
    in
    let repl_pl =
      Pipeline.create ~scale_threshold ~group
        ~name:(Printf.sprintf "repl.c%d" cs.cid)
        ~stages:repl_stages
        ~sink:(fun _ -> ())
        ()
    in
    let shared_pl =
      Pipeline.create ~scale_threshold ~group
        ~name:(Printf.sprintf "shared.c%d" cs.cid)
        ~stages:
          [
            Pipeline.stage ~max_workers:2 "fetching" (fetch_work t);
            Pipeline.stage ~max_workers:4 "validation" (validate_work t);
          ]
        ~sink:(fun c ->
          Pipeline.submit publish_pl c;
          Pipeline.submit repl_pl c)
        ()
    in
    cs.shared_pl <- Some shared_pl;
    cs.publish_pl <- Some publish_pl;
    cs.repl_pl <- Some repl_pl
  end
  else begin
    (* LineFS-NotParallel: one chunk at a time through all stages. *)
    let seq_pl =
      Pipeline.create ~group ~name:(Printf.sprintf "seq.c%d" cs.cid)
        ~stages:
          [
            Pipeline.stage "sequential" (fun c ->
                fetch_work t c;
                validate_work t c;
                publish_work t c;
                compress_work t c;
                transfer_work t c);
          ]
        ~sink:(publish_sink t cs) ()
    in
    cs.seq_pl <- Some seq_pl
  end

(* ------------------------------------------------------------------ *)
(* RPC planes                                                          *)
(* ------------------------------------------------------------------ *)

let handle_dmsg t = function
  | Start { client } ->
      let cs = client_state t client in
      submit_chunks t cs ~urgent:false ~upto:None
  | Repl_chunk { chunk; origin; wire; nic_mem } ->
      handle_repl_chunk t ~chunk ~origin ~wire ~nic_mem
  | Repl_direct { chunk; origin } -> handle_repl_direct t ~chunk ~origin
  | Repl_ack { client; node; idx; last_seq; sent_at } ->
      handle_ack t ~client ~node ~idx ~last_seq ~sent_at
  | Refetch { client; idx; requester } -> (
      (* Serve a scrub re-fetch from the in-flight table (not yet fully
         acked) or the retired-chunk retention cache.  Redelivery runs
         the normal replication path: the requester's gate and the
         per-node ack dedup make it idempotent. *)
      let c =
        match Hashtbl.find_opt t.clients client with
        | Some cs -> (
            match Hashtbl.find_opt cs.inflight idx with
            | Some c -> Some c
            | None -> Hashtbl.find_opt t.retired (client, idx))
        | None -> Hashtbl.find_opt t.retired (client, idx)
      in
      match c with
      | Some c ->
          Counters.bump "storage.scrub-serve";
          t.repl_wire <- t.repl_wire + c.Chunk.wire_bytes;
          send_to_successor t requester ~origin:t ~wire:c.Chunk.wire_bytes c
      | None -> ())

let handle_cmsg t = function
  | C_fsync { client; upto } ->
      let cs = client_state t client in
      poll_core_work t (Time.us 1);
      submit_chunks t cs ~urgent:true ~upto:(Some upto);
      let done_iv = Ivar.create () in
      (* The waiter lives in the host group: once the client holds the
         ivar, the fsync must complete even if the NIC plane that
         accepted it dies — replication progress is host-PM-backed
         state that a crash-restart (or the host fallback) resumes. *)
      Engine.spawn ~group:t.host_group ~name:"nicfs.fsync-wait" (fun () ->
          while cs.replicated_seq < upto do
            Cond.await cs.repl_progress
          done;
          (* Crash consistency: leases must be durable before fsync
             returns (§3.4). *)
          Lease.wait_persisted t.lease;
          Ivar.fill done_iv ());
      R_done done_iv
  | C_lease { client; inum; lt } ->
      poll_core_work t (Time.ns 500);
      let result =
        match Lease.acquire t.lease ~client ~inum lt with
        | `Granted -> `Granted
        | `Conflict ->
            (* Revoke conflicting holders: notify each (they drop their
               cached lease), release, and retry the grant. *)
            List.iter
              (fun holder ->
                if holder <> client then begin
                  Net.Rdma.move ~src:(src_loc t)
                    ~dst:(Net.Loc.Host t.node) 64;
                  (match Hashtbl.find_opt t.clients holder with
                  | Some hcs ->
                      (* on_revoke blocks until the holder's in-flight
                         append (if any) finishes, so the grandfather
                         limit below covers everything it logged under
                         the lease. *)
                      hcs.on_revoke ~inum;
                      Hashtbl.replace hcs.grandfather inum
                        (Oplog.Log.last_seq hcs.log)
                  | None -> ());
                  Lease.release t.lease ~client:holder ~inum
                end)
              (Lease.holders t.lease ~inum);
            Lease.acquire t.lease ~client ~inum lt
      in
      R_lease result
  | C_open { client = _; inum; write } ->
      poll_core_work t (Time.us 1);
      let check =
        if write then Fs_state.writable t.fs inum
        else Fs_state.readable t.fs inum
      in
      if not check then R_check (Error Fs_state.Eacces)
      else begin
        (* Ask the kernel worker to mmap the file pages read-only into
           the client (§3.6); costs a host RPC. *)
        (match
           Kworker.submit t.kworker ~from:(nic_loc t)
             { Kworker.total_bytes = 0; list_entries = 0 }
         with
        | `Ok | `Dead -> ());
        R_check (Ok ())
      end

let create ?(pipeline_parallelism = true) ?(coalescing = false)
    ?(compression = false) ?(apply_on_publish = false) ?group ~params ~node
    ~fs ~kworker () =
  (* The node's host-side fault domain; never killed by a NIC crash. *)
  let host_group =
    Engine.make_group (Printf.sprintf "host%d" node.Hw.Node.id)
  in
  let rec t =
    lazy
      {
        params;
        node;
        fs;
        kworker;
        lease =
          Lease.create ~params ~node ~group:host_group
            ~current_epoch:(fun () -> (Lazy.force t).epoch)
            ~replicate:(fun ~bytes -> lease_replicate (Lazy.force t) ~bytes)
            ();
        parallel = pipeline_parallelism;
        apply_on_publish;
        coalescing;
        compression;
        next_hop = None;
        clients = Hashtbl.create 8;
        kworker_ok = true;
        is_isolated = false;
        monitor_running = false;
        flow = Cond.create ();
        flow_blocked = false;
        dserver = None;
        cserver = None;
        repl_wire = 0;
        pub_bytes = 0;
        coalesced = 0;
        ack_lat = Stats.Series.create ();
        epoch = 1;
        history = Cluster.History.create ();
        alive = true;
        group;
        host_group;
        incarnation = 0;
        repl_gate = Hashtbl.create 8;
        fallback = false;
        fb_dserver = None;
        fb_cserver = None;
        fb_episode = 0;
        repl_targets = None;
        required_acks = max 0 (params.Params.replicas - 1);
        retired = Hashtbl.create 8;
        retired_fifo = Queue.create ();
        torn_pending = false;
        apply_journal = [];
      }
  and lease_replicate t ~bytes =
    (* Ship the lease record down the replication chain, hop by hop; a
       hop in host fallback receives it straight into host memory.
       Each hop persists and forwards on its own node. *)
    let rec go cur =
      match cur.next_hop with
      | None -> ()
      | Some nxt ->
          let dst =
            if nxt.fallback then Net.Loc.Host nxt.node
            else Net.Loc.Nic nxt.node
          in
          Net.Rdma.ship ~src:(src_loc cur) ~dst ~name:"nicfs.lease-repl" bytes
            (fun () ->
              Hw.Pm.write nxt.node.Hw.Node.pm bytes;
              go nxt)
    in
    go t
  in
  let t = Lazy.force t in
  t.dserver <-
    Some
      (Net.Rpc.create ?group
         ~name:(Printf.sprintf "nicfs%d.data" node.Hw.Node.id)
         ~loc:(nic_loc t) ~integrity:dmsg_integrity
         ~kind:(Net.Rpc.Event { workers = 4; prio = Hw.Cpu.prio_normal })
         ~handler:(fun m ->
           handle_dmsg t m)
         ());
  t.cserver <-
    Some
      (Net.Rpc.create ?group
         ~name:(Printf.sprintf "nicfs%d.ctrl" node.Hw.Node.id)
         ~loc:(nic_loc t) ~kind:Net.Rpc.Busy_poll
         ~handler:(fun m -> handle_cmsg t m)
         ());
  t

let set_next_hop t nxt = t.next_hop <- nxt
let set_compression t b = t.compression <- b
let isolated t = t.is_isolated
let ping t = t.alive
let alive t = t.alive

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.monitor_running <- false;
    t.flow_blocked <- false;
    match t.group with Some g -> Engine.kill g | None -> ()
  end

let restart t =
  if not t.alive then begin
    t.incarnation <- t.incarnation + 1;
    (* A fresh group: the old one stays killed so pre-crash
       continuations can never resurface. *)
    let g =
      Engine.make_group
        (Printf.sprintf "nicfs%d#%d" t.node.Hw.Node.id t.incarnation)
    in
    t.group <- Some g;
    (* NIC DRAM is volatile: in-flight chunks died with the crash.
       Host PM state (logs, publication gate progress) survives. *)
    Hw.Smartnic.reset_mem t.node.Hw.Node.nic;
    t.flow_blocked <- false;
    (match t.dserver with Some s -> Net.Rpc.restart ~group:g s | None -> ());
    (match t.cserver with Some s -> Net.Rpc.restart ~group:g s | None -> ());
    t.alive <- true
  end

(* ------------------------------------------------------------------ *)
(* Degraded mode: host fallback and whole-node death (§3.6)            *)
(* ------------------------------------------------------------------ *)

let in_fallback t = t.fallback

(* NIC dead, host alive: bring the NICFS planes up on host cores.
   Driven by the cluster manager's service map (NIC probe failing,
   host probe answering).  Clients and peers need no special casing —
   [dserver]/[cserver] resolve to the fallback planes and every
   compute/memory/endpoint decision consults [t.fallback]. *)
let enter_fallback t =
  if (not t.alive) && not t.fallback then begin
    t.fb_episode <- t.fb_episode + 1;
    let prio = Kworker.prio t.kworker in
    let loc = Net.Loc.Host t.node in
    let id = t.node.Hw.Node.id in
    (* Event dispatch (not busy-poll) for the control plane: degraded
       mode must not permanently steal a spinning host core. *)
    t.fb_dserver <-
      Some
        (Net.Rpc.create ~group:t.host_group
           ~name:(Printf.sprintf "nicfs%d.data.fb%d" id t.fb_episode)
           ~loc ~integrity:dmsg_integrity
           ~kind:(Net.Rpc.Event { workers = 4; prio })
           ~handler:(fun m -> handle_dmsg t m)
           ());
    t.fb_cserver <-
      Some
        (Net.Rpc.create ~group:t.host_group
           ~name:(Printf.sprintf "nicfs%d.ctrl.fb%d" id t.fb_episode)
           ~loc
           ~kind:(Net.Rpc.Event { workers = 1; prio })
           ~handler:(fun m -> handle_cmsg t m)
           ());
    t.fallback <- true
  end

(* Fail-back after the NIC restarts: flip traffic back to the NIC
   planes, migrate degraded-mode state across PCIe, then drain and
   retire the host planes.  Shutdown is graceful — requests already
   queued at the fallback servers are still served, by handlers that
   now charge the NIC again. *)
let exit_fallback t =
  if t.fallback && t.alive then begin
    t.fallback <- false;
    let ds = t.fb_dserver and cs = t.fb_cserver in
    t.fb_dserver <- None;
    t.fb_cserver <- None;
    Engine.spawn ~group:t.host_group ~name:"nicfs.failback" (fun () ->
        (* Ship cursors / ack tables / lease table back to NIC memory. *)
        Hw.Pcie.rpc_round_trip t.node.Hw.Node.pcie;
        (match ds with Some s -> Net.Rpc.shutdown s | None -> ());
        (match cs with Some s -> Net.Rpc.shutdown s | None -> ()))
  end

(* Whole-node failure (host included): beyond [crash], every host-side
   process dies too — pipelines, retransmitters, fallback planes.
   There is no matching un-kill; a dead node leaves the cluster. *)
let kill_node t =
  crash t;
  t.fallback <- false;
  t.fb_dserver <- None;
  t.fb_cserver <- None;
  Engine.kill t.host_group

let start_monitor t =
  if not t.monitor_running then begin
    t.monitor_running <- true;
    Engine.spawn ?group:t.group ~name:"nicfs.monitor" (fun () ->
        while t.monitor_running do
          Engine.sleep t.params.Params.hb_interval;
          if t.monitor_running then begin
            (* Probe the kernel worker across PCIe. *)
            Hw.Pcie.rpc_round_trip t.node.Hw.Node.pcie;
            let ok = Kworker.alive t.kworker in
            if (not ok) && t.kworker_ok then begin
              t.kworker_ok <- false;
              t.is_isolated <- true
            end
            else if ok && not t.kworker_ok then begin
              t.kworker_ok <- true;
              t.is_isolated <- false
            end
          end
        done)
  end

let stop_monitor t = t.monitor_running <- false

let register_client t ~id ~log ~on_published ~on_revoke =
  let cs =
    {
      cid = id;
      log;
      on_published;
      on_revoke;
      grandfather = Hashtbl.create 8;
      fetched_seq = 0;
      chunk_count = 0;
      replicated_seq = 0;
      published_seq = 0;
      repl_progress = Cond.create ();
      publish_progress = Cond.create ();
      completed_repl = Hashtbl.create 8;
      next_repl_idx = 0;
      acks = Hashtbl.create 8;
      inflight = Hashtbl.create 8;
      shared_pl = None;
      publish_pl = None;
      repl_pl = None;
      seq_pl = None;
    }
  in
  build_pipelines t cs;
  Hashtbl.replace t.clients id cs

let start_pipeline t ~from ~client =
  Net.Rpc.post (dserver t) ~from (Start { client })

let cserver t =
  match (if t.fallback then t.fb_cserver else t.cserver) with
  | Some s -> s
  | None -> failwith "nicfs: not started"

(* Control-plane call with timeout + capped exponential backoff.  The
   endpoint is re-resolved on EVERY attempt: after a NIC crash the
   service moves to the host-fallback plane, and a retry must chase it
   there instead of timing out against the dead NIC plane forever.
   The growing timeout doubles as the backoff interval.  All handlers
   are idempotent under re-execution (fsync re-submission dedups on
   [fetched_seq], a re-granted lease refreshes expiry, open re-checks).
   On a perfect network (no injection hook) this is the plain lossless
   call — zero added events, fingerprints unchanged. *)
let cserver_call t ~from req =
  if not (Net.Inject.active ()) then Net.Rpc.call (cserver t) ~from req
  else begin
    let policy = Net.Backoff.default in
    (* One sequence number for the whole logical request: every retry
       is a retransmission, so a server that already executed it (the
       reply was lost, not the request) replays the cached reply
       instead of re-executing the handler. *)
    let key = Net.Rpc.fresh_key ~from in
    let rec go attempt =
      match
        Net.Rpc.call_timeout (cserver t) ~from ~key
          ~timeout:(Net.Backoff.delay policy ~attempt)
          req
      with
      | Some r -> r
      | None ->
          Counters.bump "net.retransmit";
          go (attempt + 1)
    in
    go 0
  end

let fsync t ~from ~client ~upto_seq =
  match cserver_call t ~from (C_fsync { client; upto = upto_seq }) with
  | R_done iv ->
      Ivar.read iv;
      (* Completion notification back to LibFS. *)
      Net.Rdma.move ~src:(src_loc t) ~dst:from 64
  | R_lease _ | R_check _ -> failwith "nicfs: protocol mismatch"

let open_check t ~from ~client ~inum ~write =
  match cserver_call t ~from (C_open { client; inum; write }) with
  | R_check r -> r
  | R_done _ | R_lease _ -> failwith "nicfs: protocol mismatch"

let lease_acquire t ~from ~client ~inum lt =
  match cserver_call t ~from (C_lease { client; inum; lt }) with
  | R_lease r -> r
  | R_done _ | R_check _ -> failwith "nicfs: protocol mismatch"

let flush t ~client =
  let cs = client_state t client in
  let upto = Oplog.Log.last_seq cs.log in
  if upto > cs.fetched_seq then submit_chunks t cs ~urgent:true ~upto:None;
  while cs.replicated_seq < upto do
    Cond.await cs.repl_progress
  done;
  while cs.published_seq < upto do
    Cond.await cs.publish_progress
  done;
  Lease.wait_persisted t.lease

let replicated_wire_bytes t = t.repl_wire
let published_bytes t = t.pub_bytes
let coalesced_entries t = t.coalesced

let stage_series t ~client =
  let cs = client_state t client in
  match (cs.seq_pl, cs.shared_pl, cs.publish_pl, cs.repl_pl) with
  | Some pl, _, _, _ -> [ ("sequential", Pipeline.stage_latency pl ~stage:"sequential") ]
  | None, Some sh, Some pub, Some rep ->
      [
        ("fetching", Pipeline.stage_latency sh ~stage:"fetching");
        ("validation", Pipeline.stage_latency sh ~stage:"validation");
        ("publication", Pipeline.stage_latency pub ~stage:"publication");
        ("compression", Pipeline.stage_latency rep ~stage:"compression");
        ("transfer", Pipeline.stage_latency rep ~stage:"transfer");
      ]
  | _ -> []

let stage_mean_us t ~client =
  List.map (fun (n, s) -> (n, Stats.Series.mean s)) (stage_series t ~client)

let ack_latency t = t.ack_lat

(* ------------------------------------------------------------------ *)
(* Epoch / history (recovery support, SS3.6)                           *)
(* ------------------------------------------------------------------ *)

let epoch t = t.epoch

let set_epoch t e =
  if e <> t.epoch then begin
    (* An epoch bump is a cluster-wide lease revocation (§3.6).  Treat
       every current hold exactly like a conflict revocation: tell the
       holder to drop its cached lease (otherwise it would keep logging
       under a dead lease) and grandfather what it already logged so
       those entries still pass validation. *)
    let holds = ref [] in
    Lease.iter_holds t.lease ~f:(fun ~inum ~client ->
        holds := (inum, client) :: !holds);
    List.iter
      (fun (inum, client) ->
        (match Hashtbl.find_opt t.clients client with
        | Some hcs ->
            hcs.on_revoke ~inum;
            Hashtbl.replace hcs.grandfather inum
              (Oplog.Log.last_seq hcs.log)
        | None -> ());
        Lease.release t.lease ~client ~inum)
      (List.rev !holds);
    t.epoch <- e;
    (* Persist the epoch number to host PM. *)
    Hw.Pm.write t.node.Hw.Node.pm 8
  end

let history t = t.history
let fs t = t.fs

(* ------------------------------------------------------------------ *)
(* Storage-fault injection and scrub evidence                          *)
(* ------------------------------------------------------------------ *)

let mark_torn t = t.torn_pending <- true
let apply_journal t = List.rev t.apply_journal
