open Sim
open Storage
open Linefs

type variant = Pessimistic | Bg_repl | Hyperloop

let variant_name = function
  | Pessimistic -> "Assise"
  | Bg_repl -> "Assise-BgRepl"
  | Hyperloop -> "Assise+Hyperloop"

(* One replication batch travelling down the chain. *)
type repl_msg = {
  rbytes : int;
  hop : int; (* index of the receiving node *)
  acks : int ref;
  done_ : unit Ivar.t;
}

type node_rt = {
  node : Hw.Node.t;
  fs : Fs_state.t;
  acct : Stats.Busy.t;
  mutable server : (repl_msg, unit) Net.Rpc.t option;
}

type file = { fpath : string; inum : int; mutable append_pos : int }

type client = {
  sys : t;
  cid : int;
  lg : Oplog.Log.t;
  pending : (int, int Extent_map.t) Hashtbl.t;
  fds : (int, file) Hashtbl.t;
  mutable next_fd : int;
  mutable next_seq : int;
  mutable digested_seq : int;
  mutable replicated_seq : int;
  mutable bg_enqueued_seq : int;
  mutable bg_enqueued_bytes : int;
  mutable logged_bytes : int; (* cumulative bytes ever logged *)
  mutable digested_bytes : int; (* cumulative bytes digested *)
  mutable shipped_bytes : int; (* cumulative bytes replicated *)
  ship_lock : Semaphore.t;
  mutable bg_mark : int; (* logged_bytes already enqueued for bg repl *)
  repl_progress : Cond.t;
  log_space : Cond.t;
  digest_request : Cond.t;
  digest_done : Cond.t;
  bg_queue : (int * int * int) Mailbox.t; (* (first_seq, last_seq, bytes) *)
  completed_bg : (int, int) Hashtbl.t; (* first_seq -> last_seq *)
  mutable n_ops : int;
  mutable n_written : int;
  mutable n_read : int;
  mutable stopping : bool;
  wlock : Semaphore.t; (* serializes log appends across client threads *)
  tasks : (string, Hw.Cpu.task) Hashtbl.t; (* per-thread CPU contexts *)
}

and t = {
  prm : Params.t;
  var : variant;
  rts : node_rt array;
  prio : Hw.Cpu.prio;
  mutable cls : client list;
  (* Hyperloop verb-group pool, replenished by a host thread. *)
  mutable verbs : int;
  verb_cond : Cond.t;
  mutable n_verb_stalls : int;
  mutable replenisher : bool;
  mutable wire : int; (* bytes the primary shipped *)
}

let bg_threads = 3
let verb_group = 256
let verb_low_mark = 1 (* re-post only when exhausted: the paper's 99.9p stall *)
let verb_post_work = Time.us 50

let variant t = t.var
let node t i = t.rts.(i).node
let primary_fs t = t.rts.(0).fs
let dfs_host_cpu t ~node = t.rts.(node).acct
let verb_stalls t = t.n_verb_stalls
let replication_wire_bytes t = t.wire

let total_host_dfs_cpu t =
  Array.fold_left (fun acc rt -> acc + Stats.Busy.busy_time rt.acct) 0 t.rts

let cpu t rt work = Hw.Cpu.run ~prio:t.prio ~account:rt.acct rt.node.Hw.Node.host work

(* Busy-poll while [f] runs: a host core spins (in 100 us slices) until
   the blocking operation completes — how Assise waits for RDMA
   completions. *)
let busy_wait t rt f =
  let finished = ref false in
  Engine.spawn ~name:"assise.poller" (fun () ->
      let tk = Hw.Cpu.task ~prio:t.prio ~account:rt.acct rt.node.Hw.Node.host in
      while not !finished do
        Hw.Cpu.task_run tk (Time.us 100)
      done;
      Hw.Cpu.task_release tk);
  let r = f () in
  finished := true;
  r

(* ------------------------------------------------------------------ *)
(* Chain replication                                                   *)
(* ------------------------------------------------------------------ *)

let server rt =
  match rt.server with Some s -> s | None -> failwith "assise: not started"

(* Forward a batch from node [hop] to node [hop+1]: an RDMA WRITE into
   the successor's PM log plus the notification its SharedFS serves. *)
let forward t ~from_hop msg =
  let src = t.rts.(from_hop) and dst = t.rts.(from_hop + 1) in
  let sender_wait =
    match t.var with
    | Pessimistic | Bg_repl ->
        (* The sender's SharedFS posts the WRITE and polls completion. *)
        busy_wait t src
    | Hyperloop ->
        (* NIC-driven chained WRITE: no host CPU at either end. *)
        fun f -> f ()
  in
  if from_hop = 0 then t.wire <- t.wire + msg.rbytes;
  Net.Rpc.write_post ~from:(Net.Loc.Host src.node) ~dst:(Net.Loc.Host dst.node)
    ~medium:`Pm ~sender_wait ~name:"assise.repl-ship" msg.rbytes
    (fun () -> server dst)
    { msg with hop = from_hop + 1 }

(* Acknowledge one replica's persistence of [msg] on the primary, which
   owns the ack set and completion ivar.  The ack is an implicit
   hardware completion with no modelled frame: no wire is charged. *)
let ack_origin t ~hop msg =
  Net.Fabric.run_on ~from:t.rts.(hop).node ~name:"assise.repl-ack"
    t.rts.(0).node (fun () ->
      decr msg.acks;
      if !(msg.acks) <= 0 && not (Ivar.is_filled msg.done_) then
        Ivar.fill msg.done_ ())

(* Replica-side handling of an incoming batch. The data is already
   persistent in this node's PM log (the sender's RDMA WRITE targeted
   PM), so the ack can go out immediately; forwarding continues the
   chain; digestion into local public PM runs in the background with
   host cores (the replica CPU load §2.1 measures). *)
let handle_repl t rt msg =
  if msg.hop + 1 < Array.length t.rts then
    Engine.spawn ~name:"assise.forward" (fun () ->
        forward t ~from_hop:msg.hop msg);
  ack_origin t ~hop:msg.hop msg;
  match t.var with
  | Pessimistic | Bg_repl ->
      Engine.spawn ~name:"assise.replica-digest" (fun () ->
          cpu t rt (Hw.Node.copy_work rt.node msg.rbytes);
          Hw.Pm.read rt.node.Hw.Node.pm msg.rbytes;
          Hw.Pm.write rt.node.Hw.Node.pm msg.rbytes)
  | Hyperloop ->
      (* Hyperloop replicas are fully passive for replication; their
         SharedFS still digests in the background. *)
      Engine.spawn ~name:"assise.replica-digest" (fun () ->
          cpu t rt (Hw.Node.copy_work rt.node msg.rbytes);
          Hw.Pm.read rt.node.Hw.Node.pm msg.rbytes;
          Hw.Pm.write rt.node.Hw.Node.pm msg.rbytes)

(* Hyperloop verb accounting: consume one pre-posted verb group per
   batch; a host thread replenishes groups and can be starved by CPU
   contention. *)
let rec take_verb t =
  if t.verbs > 0 then t.verbs <- t.verbs - 1
  else begin
    t.n_verb_stalls <- t.n_verb_stalls + 1;
    Cond.await t.verb_cond;
    take_verb t
  end

let start_replenisher t =
  if not t.replenisher then begin
    t.replenisher <- true;
    Engine.spawn ~name:"hyperloop.post" (fun () ->
        while t.replenisher do
          if t.verbs < verb_low_mark then begin
            (* Posting verbs needs host CPU; contention delays it. *)
            cpu t t.rts.(0) verb_post_work;
            t.verbs <- t.verbs + verb_group;
            Cond.broadcast t.verb_cond
          end
          else ignore (Cond.await_timeout t.verb_cond (Time.ms 1) : bool)
        done)
  end

(* Ship [bytes] down the chain and wait for all acks. Runs in the
   caller's process. *)
let replicate_batch t ~bytes =
  let n_replicas = Array.length t.rts - 1 in
  if n_replicas > 0 && bytes > 0 then begin
    match t.var with
    | Pessimistic | Bg_repl ->
        let msg =
          {
            rbytes = bytes;
            hop = 0;
            acks = ref n_replicas;
            done_ = Ivar.create ();
          }
        in
        busy_wait t t.rts.(0) (fun () ->
            forward t ~from_hop:0 msg;
            Ivar.read msg.done_)
    | Hyperloop -> (
        (* NIC-chained WAIT/WRITE verbs: no host CPU anywhere on the
           chain. Each hop's WRITE lands directly in the next PM log
           and triggers the pre-posted forward. *)
        take_verb t;
        let completion = Ivar.create () in
        let rec hop_ship hop =
          let src = t.rts.(hop) and dst = t.rts.(hop + 1) in
          if hop = 0 then t.wire <- t.wire + bytes;
          Net.Rdma.ship ~dst_medium:`Pm ~src:(Net.Loc.Host src.node)
            ~dst:(Net.Loc.Host dst.node) ~name:"hyperloop.ship" bytes
            (fun () ->
              (* Replica SharedFS digests in the background as usual. *)
              Engine.spawn ~name:"hyperloop.replica-digest" (fun () ->
                  cpu t dst (Hw.Node.copy_work dst.node bytes);
                  Hw.Pm.read dst.node.Hw.Node.pm bytes;
                  Hw.Pm.write dst.node.Hw.Node.pm bytes);
              if hop + 1 < n_replicas then hop_ship (hop + 1)
              else
                (* Hardware ack back to the primary NIC. *)
                Net.Rdma.ship ~src:(Net.Loc.Host dst.node)
                  ~dst:(Net.Loc.Host t.rts.(0).node) ~name:"hyperloop.ack" 64
                  (fun () -> Ivar.fill completion ()))
        in
        hop_ship 0;
        Ivar.read completion;
        (* Completion wake-up: one dispatch on the (primary) host. *)
        cpu t t.rts.(0) (Time.us 5))
  end

(* ------------------------------------------------------------------ *)
(* SharedFS digestion (publication with host cores)                    *)
(* ------------------------------------------------------------------ *)

(* Assise reclaims log entries once they are digested into local
   public PM; replication at fsync ships from the digested state, so
   it does not pin the log. *)
let reclaim c =
  let safe = c.digested_seq in
  if safe > 0 then begin
    ignore (Oplog.Log.reclaim_upto c.lg ~seq:safe : int);
    Hashtbl.iter
      (fun _ m -> Extent_map.remove_if m (fun seq -> seq <= safe))
      c.pending;
    Cond.broadcast c.log_space
  end

(* Ship replication batches until the cumulative shipped counter
   reaches [target] bytes; serialized per client so the digester and
   fsync paths never double-ship. *)
let ship_bytes t c ~target =
  Semaphore.with_permit c.ship_lock (fun () ->
      while c.shipped_bytes < target do
        let batch =
          min t.prm.Params.chunk_bytes (target - c.shipped_bytes)
        in
        replicate_batch t ~bytes:batch;
        c.shipped_bytes <- c.shipped_bytes + batch
      done)

let digest_batch t c ~upto =
  let rt = t.rts.(0) in
  let entries =
    Oplog.Log.entries_from c.lg ~seq:(c.digested_seq + 1) ~max_bytes:max_int
  in
  let entries =
    List.filter (fun (e : Oplog.entry) -> e.Oplog.seq <= upto) entries
  in
  match entries with
  | [] -> ()
  | _ ->
      let bytes = List.fold_left (fun n e -> n + Oplog.size e) 0 entries in
      (* Host cores copy log -> public PM and rebuild indexes. *)
      cpu t rt (Hw.Node.copy_work rt.node bytes + List.length entries * Time.ns 300);
      Hw.Pm.read rt.node.Hw.Node.pm bytes;
      Hw.Pm.write rt.node.Hw.Node.pm bytes;
      c.digested_seq <- upto;
      c.digested_bytes <- c.digested_bytes + bytes;
      (* Digested data is safe in public PM: reclaim the log right
         away, then chain-ship the digested range (Bg_repl's dedicated
         threads handle shipping instead). *)
      reclaim c;
      Cond.broadcast c.digest_done;
      (match t.var with
      | Pessimistic | Hyperloop -> ship_bytes t c ~target:c.digested_bytes
      | Bg_repl -> ())

let digest_threshold = 4 (* digest when the log is 1/4 full *)

let start_digester t c =
  Engine.spawn ~name:(Printf.sprintf "assise.digest.c%d" c.cid) (fun () ->
      while not c.stopping do
        let used = Oplog.Log.used_bytes c.lg in
        let undigested = Oplog.Log.last_seq c.lg > c.digested_seq in
        if undigested && used >= Oplog.Log.capacity c.lg / digest_threshold
        then digest_batch t c ~upto:(Oplog.Log.last_seq c.lg)
        else
          (* Nothing (new) to digest: park until the next signal. *)
          Cond.await c.digest_request
      done)

(* ------------------------------------------------------------------ *)
(* Background replication (Assise-BgRepl)                              *)
(* ------------------------------------------------------------------ *)

let mark_bg_done c ~first ~last =
  Hashtbl.replace c.completed_bg first last;
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt c.completed_bg (c.replicated_seq + 1) with
    | Some upto ->
        Hashtbl.remove c.completed_bg (c.replicated_seq + 1);
        c.replicated_seq <- upto
    | None -> continue := false
  done;
  Cond.broadcast c.repl_progress

let start_bg_workers t c =
  for i = 1 to bg_threads do
    Engine.spawn ~name:(Printf.sprintf "assise.bg%d.c%d" i c.cid) (fun () ->
        let rec loop () =
          let first, last, bytes = Mailbox.recv c.bg_queue in
          if bytes > 0 then begin
            replicate_batch t ~bytes;
            c.shipped_bytes <- c.shipped_bytes + bytes;
            mark_bg_done c ~first ~last
          end;
          loop ()
        in
        loop ())
  done

let bg_enqueue c ~upto =
  if upto > c.bg_enqueued_seq then begin
    Mailbox.send c.bg_queue
      (c.bg_enqueued_seq + 1, upto, c.logged_bytes - c.bg_mark);
    c.bg_enqueued_seq <- upto;
    c.bg_mark <- c.logged_bytes;
    c.bg_enqueued_bytes <- 0
  end

(* ------------------------------------------------------------------ *)
(* Cluster construction                                                *)
(* ------------------------------------------------------------------ *)

let create ?(cfg = Hw.Config.testbed_25gbe) ?(params = Params.default)
    ?(variant = Pessimistic) ?(dfs_prio = Hw.Cpu.prio_normal) ?sharding
    ~nodes () =
  let topo = Hw.Topology.create ~cfg ~nodes () in
  let rts =
    Array.map
      (fun node ->
        {
          node;
          fs = Fs_state.create ();
          acct = Stats.Busy.create ();
          server = None;
        })
      topo.Hw.Topology.nodes
  in
  let t =
    {
      prm = params;
      var = variant;
      rts;
      prio = dfs_prio;
      cls = [];
      verbs = verb_group;
      verb_cond = Cond.create ();
      n_verb_stalls = 0;
      replenisher = false;
      wire = 0;
    }
  in
  let make_server i rt =
    Net.Rpc.create
      ~name:(Printf.sprintf "assise%d.repl" i)
      ~loc:(Net.Loc.Host rt.node)
      ~kind:(Net.Rpc.Event { workers = 4; prio = dfs_prio })
      ~handler:(fun msg -> handle_repl t rt msg)
      ()
  in
  Net.Fabric.place ?sharding topo.Hw.Topology.nodes;
  Array.iteri
    (fun i rt ->
      if i > 0 then
        rt.server <-
          Some
            (Net.Fabric.start ~name:"assise.boot" rt.node (fun () ->
                 make_server i rt)))
    rts;
  if variant = Hyperloop then
    Net.Fabric.start ~name:"assise.boot" rts.(0).node (fun () ->
        start_replenisher t);
  t

(* ------------------------------------------------------------------ *)
(* Client operations                                                   *)
(* ------------------------------------------------------------------ *)

let fail = Dfs_intf.fail
let prim c = c.sys.rts.(0)
let cfs c = (prim c).fs

(* The calling thread's sticky CPU context (see Libfs.ctask). *)
let ctask c =
  let name = Engine.process_name () in
  match Hashtbl.find_opt c.tasks name with
  | Some tk -> tk
  | None ->
      let rt = prim c in
      let tk =
        Hw.Cpu.task ~prio:c.sys.prio ~account:rt.acct rt.node.Hw.Node.host
      in
      Hashtbl.add c.tasks name tk;
      tk

let client_cpu c work = Hw.Cpu.task_run (ctask c) work
let client_cpu_release c = Hw.Cpu.task_release (ctask c)

let resolve_exn c path =
  match Fs_state.resolve (cfs c) path with
  | Ok i -> i
  | Error e -> fail e path

(* Synchronously replicate everything up to [upto] (the fsync path). *)
let ensure_replicated t c ~upto =
  match t.var with
  | Pessimistic | Hyperloop ->
      ship_bytes t c ~target:c.logged_bytes;
      c.replicated_seq <- max c.replicated_seq upto;
      reclaim c
  | Bg_repl ->
      if c.bg_mark < c.logged_bytes then begin
        Mailbox.send c.bg_queue
          (c.bg_enqueued_seq + 1, upto, c.logged_bytes - c.bg_mark);
        c.bg_enqueued_seq <- max c.bg_enqueued_seq upto;
        c.bg_mark <- c.logged_bytes
      end;
      while c.replicated_seq < upto do
        Cond.await c.repl_progress
      done

let append_op_locked c (op : Oplog.op) =
  let t = c.sys in
  (match Fs_state.validate (cfs c) op with
  | Ok () -> ()
  | Error e -> fail e (Format.asprintf "%a" Oplog.pp_op op));
  let entry = Oplog.make ~seq:c.next_seq ~client:c.cid op in
  c.next_seq <- c.next_seq + 1;
  let size = Oplog.size entry in
  client_cpu c (t.prm.Params.fs_op_cost + Hw.Node.copy_work (prim c).node size);
  Hw.Pm.write (prim c).node.Hw.Node.pm size;
  let rec persist () =
    match Oplog.Log.append c.lg entry with
    | Ok () -> ()
    | Error `Full ->
        (* Head-of-line blocking: digestion must free log space. *)
        Cond.signal c.digest_request;
        client_cpu_release c;
        Cond.await c.log_space;
        persist ()
  in
  persist ();
  c.logged_bytes <- c.logged_bytes + size;
  (match Fs_state.apply (cfs c) op with
  | Ok () -> ()
  | Error e -> fail e "apply after validate");
  (match op with
  | Oplog.Write { inum; offset; data } ->
      let m =
        match Hashtbl.find_opt c.pending inum with
        | Some m -> m
        | None ->
            let m = Extent_map.create () in
            Hashtbl.add c.pending inum m;
            m
      in
      Extent_map.insert m ~at:offset data entry.Oplog.seq
  | Oplog.Unlink { inum; _ } -> Hashtbl.remove c.pending inum
  | Oplog.Create _ | Oplog.Rename _ | Oplog.Truncate _ -> ());
  (* Wake digestion when the log fills up. *)
  if Oplog.Log.used_bytes c.lg >= Oplog.Log.capacity c.lg / digest_threshold
  then Cond.signal c.digest_request;
  (* BgRepl: proactively queue full chunks for replication. *)
  if t.var = Bg_repl then begin
    c.bg_enqueued_bytes <- c.bg_enqueued_bytes + size;
    if c.bg_enqueued_bytes >= t.prm.Params.chunk_bytes then
      bg_enqueue c ~upto:(c.next_seq - 1)
  end

let append_op c (op : Oplog.op) =
  if Semaphore.available c.wlock = 0 then client_cpu_release c;
  Semaphore.with_permit c.wlock (fun () -> append_op_locked c op)

let alloc_fd c file =
  let fd = c.next_fd in
  c.next_fd <- c.next_fd + 1;
  Hashtbl.replace c.fds fd file;
  fd

let the_file c fd =
  match Hashtbl.find_opt c.fds fd with
  | Some f -> f
  | None -> fail Fs_state.Einval (Printf.sprintf "fd %d" fd)

let do_create c path =
  c.n_ops <- c.n_ops + 1;
  client_cpu c c.sys.prm.Params.fs_op_cost;
  let parent_path, name = Dfs_intf.split_path path in
  let parent = resolve_exn c parent_path in
  let inum = Fs_state.alloc_inum (cfs c) in
  append_op c (Oplog.Create { parent; name; inum; dir = false });
  alloc_fd c { fpath = path; inum; append_pos = 0 }

let do_open c path =
  c.n_ops <- c.n_ops + 1;
  (* Host-local permission check: much cheaper than LineFS's NIC RPC. *)
  client_cpu c c.sys.prm.Params.fs_op_cost;
  let inum = resolve_exn c path in
  if not (Fs_state.writable (cfs c) inum || Fs_state.readable (cfs c) inum)
  then fail Fs_state.Eacces path;
  alloc_fd c { fpath = path; inum; append_pos = Fs_state.file_size (cfs c) inum }

let do_write c fd ~pos data =
  c.n_ops <- c.n_ops + 1;
  let f = the_file c fd in
  append_op c (Oplog.Write { inum = f.inum; offset = pos; data });
  let endpos = pos + Data.length data in
  if endpos > f.append_pos then f.append_pos <- endpos;
  c.n_written <- c.n_written + Data.length data

let do_read c fd ~pos ~len =
  c.n_ops <- c.n_ops + 1;
  let f = the_file c fd in
  let t = c.sys in
  client_cpu c t.prm.Params.fs_op_cost;
  let in_log =
    match Hashtbl.find_opt c.pending f.inum with
    | None -> false
    | Some m ->
        List.exists
          (function `Data _ -> true | `Hole _ -> false)
          (Extent_map.read_range m ~pos ~len)
  in
  if not in_log then begin
    let depth = max 1 (Fs_state.extent_depth (cfs c) f.inum) in
    client_cpu c (depth * t.prm.Params.read_index_cost)
  end;
  let actual = max 0 (min len (Fs_state.file_size (cfs c) f.inum - pos)) in
  Hw.Pm.read (prim c).node.Hw.Node.pm actual;
  client_cpu c (Hw.Node.copy_work (prim c).node actual);
  match Fs_state.read (cfs c) ~inum:f.inum ~pos ~len with
  | Ok d ->
      c.n_read <- c.n_read + Data.length d;
      d
  | Error e -> fail e f.fpath

let do_fsync c fd =
  c.n_ops <- c.n_ops + 1;
  (* Unknown fds are Einval everywhere (LineFS checks first). *)
  ignore (the_file c fd);
  let t = c.sys in
  client_cpu c t.prm.Params.fs_op_cost;
  let upto = c.next_seq - 1 in
  client_cpu_release c;
  if upto > 0 then ensure_replicated t c ~upto

let do_mkdir c path =
  c.n_ops <- c.n_ops + 1;
  client_cpu c c.sys.prm.Params.fs_op_cost;
  let parent_path, name = Dfs_intf.split_path path in
  let parent = resolve_exn c parent_path in
  let inum = Fs_state.alloc_inum (cfs c) in
  append_op c (Oplog.Create { parent; name; inum; dir = true })

let do_unlink c path =
  c.n_ops <- c.n_ops + 1;
  client_cpu c c.sys.prm.Params.fs_op_cost;
  let parent_path, name = Dfs_intf.split_path path in
  let parent = resolve_exn c parent_path in
  let inum = resolve_exn c path in
  append_op c (Oplog.Unlink { parent; name; inum })

let do_rename c src dst =
  c.n_ops <- c.n_ops + 1;
  client_cpu c c.sys.prm.Params.fs_op_cost;
  let src_parent_path, src_name = Dfs_intf.split_path src in
  let dst_parent_path, dst_name = Dfs_intf.split_path dst in
  let src_parent = resolve_exn c src_parent_path in
  let dst_parent = resolve_exn c dst_parent_path in
  let inum = resolve_exn c src in
  append_op c
    (Oplog.Rename { src_parent; src_name; dst_parent; dst_name; inum })

let ops c =
  {
    Dfs_intf.sysname = variant_name c.sys.var;
    create = do_create c;
    open_file = do_open c;
    close =
      (fun fd ->
        c.n_ops <- c.n_ops + 1;
        Hashtbl.remove c.fds fd;
        client_cpu_release c);
    write = (fun fd ~pos data -> do_write c fd ~pos data);
    append =
      (fun fd data ->
        let f = the_file c fd in
        do_write c fd ~pos:f.append_pos data);
    read = (fun fd ~pos ~len -> do_read c fd ~pos ~len);
    fsync = (fun fd -> do_fsync c fd);
    mkdir = do_mkdir c;
    unlink = do_unlink c;
    rename = do_rename c;
    file_size =
      (fun path ->
        match Fs_state.resolve (cfs c) path with
        | Ok inum -> Some (Fs_state.file_size (cfs c) inum)
        | Error _ -> None);
  }

let add_client t ~id =
  let c =
    {
      sys = t;
      cid = id;
      lg = Oplog.Log.create ~capacity:t.prm.Params.log_bytes ();
      pending = Hashtbl.create 16;
      fds = Hashtbl.create 16;
      next_fd = 3;
      next_seq = 1;
      digested_seq = 0;
      replicated_seq = 0;
      bg_enqueued_seq = 0;
      bg_enqueued_bytes = 0;
      logged_bytes = 0;
      digested_bytes = 0;
      shipped_bytes = 0;
      ship_lock = Semaphore.create 1;
      bg_mark = 0;
      repl_progress = Cond.create ();
      log_space = Cond.create ();
      digest_request = Cond.create ();
      digest_done = Cond.create ();
      bg_queue = Mailbox.create ();
      completed_bg = Hashtbl.create 8;
      n_ops = 0;
      n_written = 0;
      n_read = 0;
      stopping = false;
      wlock = Semaphore.create 1;
      tasks = Hashtbl.create 8;
    }
  in
  start_digester t c;
  if t.var = Bg_repl then start_bg_workers t c;
  t.cls <- c :: t.cls;
  c

let client_log c = c.lg

let flush_all t =
  List.iter
    (fun c ->
      let upto = Oplog.Log.last_seq c.lg in
      if upto > c.replicated_seq then ensure_replicated t c ~upto;
      if upto > c.digested_seq then digest_batch t c ~upto)
    t.cls

let stop t =
  t.replenisher <- false;
  List.iter
    (fun c ->
      c.stopping <- true;
      Cond.broadcast c.digest_request)
    t.cls
