open Sim
open Storage

type file = { fpath : string; inum : int; mutable append_pos : int }

type t = {
  cid : int;
  params : Params.t;
  node : Hw.Node.t;
  nicfs : Nicfs.t;
  fs : Fs_state.t;
  lg : Oplog.Log.t;
  mutable next_seq : int;
  pending : Log_index.t; (* unpublished writes *)
  fds : (int, file) Hashtbl.t;
  mutable next_fd : int;
  mutable unchunked : int; (* bytes logged since the last pipeline kick *)
  log_space : Cond.t;
  wlock : Semaphore.t; (* serializes log appends across client threads *)
  leases : (int, Time.t) Hashtbl.t; (* cached write leases *)
  revgen : (int, int) Hashtbl.t;
      (* inum -> revocations observed; detects revoke-during-grant *)
  prio : Hw.Cpu.prio;
  account : Stats.Busy.t option;
  tasks : (string, Hw.Cpu.task) Hashtbl.t;
      (* one sticky CPU context per calling thread (process name) *)
  mutable n_ops : int;
  mutable n_written : int;
  mutable n_read : int;
  mutable n_fsync : int;
  mutable n_lease_hit : int;
  mutable n_lease_miss : int;
}

let host_loc t = Net.Loc.Host t.node

(* The calling thread's sticky CPU context: LibFS work runs on the
   core the application thread already occupies. *)
let ctask t =
  let name = Engine.process_name () in
  match Hashtbl.find_opt t.tasks name with
  | Some tk -> tk
  | None ->
      let tk = Hw.Cpu.task ~prio:t.prio ?account:t.account t.node.Hw.Node.host in
      Hashtbl.add t.tasks name tk;
      tk

let cpu t work = Hw.Cpu.task_run (ctask t) work

(* Give the core up before a blocking wait (RPC, log space). *)
let cpu_release t = Hw.Cpu.task_release (ctask t)

let create ?(prio = Hw.Cpu.prio_normal) ?account ~params ~node ~nicfs ~fs ~id
    () =
  let t =
    {
      cid = id;
      params;
      node;
      nicfs;
      fs;
      lg = Oplog.Log.create ~capacity:params.Params.log_bytes ();
      next_seq = 1;
      pending = Log_index.create ();
      fds = Hashtbl.create 16;
      next_fd = 3;
      unchunked = 0;
      log_space = Cond.create ();
      wlock = Semaphore.create 1;
      leases = Hashtbl.create 16;
      revgen = Hashtbl.create 16;
      prio;
      account;
      tasks = Hashtbl.create 8;
      n_ops = 0;
      n_written = 0;
      n_read = 0;
      n_fsync = 0;
      n_lease_hit = 0;
      n_lease_miss = 0;
    }
  in
  Nicfs.register_client nicfs ~id ~log:t.lg
    ~on_published:(fun ~upto_seq ->
      ignore (Oplog.Log.reclaim_upto t.lg ~seq:upto_seq : int);
      Log_index.reclaim_upto t.pending ~seq:upto_seq;
      Cond.broadcast t.log_space)
    ~on_revoke:(fun ~inum ->
      (* Quiesce: wait out any in-flight logged operation before the
         lease disappears from the cache. *)
      Semaphore.with_permit t.wlock (fun () ->
          Hashtbl.remove t.leases inum;
          (* Mark the revocation so a [`Granted] response still in
             flight for this inode is recognized as stale: the server
             granted it BEFORE this revocation, so caching it would let
             us keep logging under a lease the server already gave
             away (or swept in an epoch bump). *)
          let g =
            match Hashtbl.find_opt t.revgen inum with
            | Some g -> g
            | None -> 0
          in
          Hashtbl.replace t.revgen inum (g + 1)));
  t

let id t = t.cid
let log t = t.lg
let last_seq t = t.next_seq - 1
let pending_bytes t = Oplog.Log.used_bytes t.lg

(* ------------------------------------------------------------------ *)
(* Leases                                                              *)
(* ------------------------------------------------------------------ *)

let lease_margin = Time.ms 100

let ensure_lease t inum =
  let now = Engine.now () in
  match Hashtbl.find_opt t.leases inum with
  | Some expiry when expiry - lease_margin > now -> t.n_lease_hit <- t.n_lease_hit + 1
  | _ ->
      t.n_lease_miss <- t.n_lease_miss + 1;
      cpu_release t;
      let gen () =
        match Hashtbl.find_opt t.revgen inum with Some g -> g | None -> 0
      in
      let rec acquire () =
        let g0 = gen () in
        match
          Nicfs.lease_acquire t.nicfs ~from:(host_loc t) ~client:t.cid ~inum
            Lease.Write
        with
        | `Granted when gen () = g0 ->
            Hashtbl.replace t.leases inum
              (Engine.now () + t.params.Params.lease_duration)
        | `Granted ->
            (* A revocation (conflict steal or epoch sweep) interleaved
               with the grant in flight: the lease is already gone
               server-side.  Caching it would be a single-writer
               violation; go around again. *)
            acquire ()
        | `Conflict ->
            Engine.sleep (Time.us 100);
            acquire ()
      in
      acquire ()

(* ------------------------------------------------------------------ *)
(* Logging                                                             *)
(* ------------------------------------------------------------------ *)

let kick_pipeline t =
  Nicfs.start_pipeline t.nicfs ~from:(host_loc t) ~client:t.cid;
  t.unchunked <- 0

(* The NICFS service level changed (crash-to-fallback, fail-back).
   The endpoint itself retargets transparently — [start_pipeline]
   always resolves the current plane — but kicks posted to a plane
   that died with the old epoch are gone, so fire a fresh one: the
   NICFS re-scans the log from its host-PM cursor and chunks whatever
   the lost kicks covered. *)
let note_service_change t = kick_pipeline t

(* Observer hook: test harnesses capture every persisted entry here,
   at append time, before asynchronous publication can reclaim it from
   the log (the DST prefix-consistency check replays this record).
   Engine-local when installed from inside a simulation process, with a
   process-global fallback — same discipline as [Net.Inject]. *)
let entry_observer : (client:int -> Oplog.entry -> unit) option ref =
  ref None

let local_entry_observer : (client:int -> Oplog.entry -> unit) Engine.Local.key
    =
  Engine.Local.key ()

let set_entry_observer f =
  match Engine.current () with
  | Some eng -> Engine.Local.set eng local_entry_observer f
  | None -> entry_observer := Some f

let clear_entry_observer () =
  (match Engine.current () with
  | Some eng -> Engine.Local.remove eng local_entry_observer
  | None -> ());
  entry_observer := None

let entry_observer_hook () =
  match Engine.current () with
  | Some eng -> (
      match Engine.Local.get eng local_entry_observer with
      | Some _ as f -> f
      | None -> !entry_observer)
  | None -> !entry_observer

(* Validate locally, persist to the private log (blocking on log space
   — the head-of-line case §3.3.1 motivates), update caches. The log
   lock keeps appends in sequence order across the process's threads. *)
let append_op_locked t (op : Oplog.op) =
  (match Fs_state.validate t.fs op with
  | Ok () -> ()
  | Error e -> Dfs_intf.fail e (Format.asprintf "%a" Oplog.pp_op op));
  let entry = Oplog.make ~seq:t.next_seq ~client:t.cid op in
  t.next_seq <- t.next_seq + 1;
  let size = Oplog.size entry in
  (* Host CPU: syscall interception + log-header work + data copy. *)
  cpu t (t.params.Params.fs_op_cost + Hw.Node.copy_work t.node size);
  (* PM device time for the persisted entry. *)
  Hw.Pm.write t.node.Hw.Node.pm size;
  let rec persist () =
    match Oplog.Log.append t.lg entry with
    | Ok () -> ()
    | Error `Full ->
        (* Make sure the publisher is working on our backlog, then
           wait for reclamation. *)
        kick_pipeline t;
        cpu_release t;
        Cond.await t.log_space;
        persist ()
  in
  persist ();
  (match entry_observer_hook () with
  | Some f -> f ~client:t.cid entry
  | None -> ());
  (match Fs_state.apply t.fs op with
  | Ok () -> ()
  | Error e -> Dfs_intf.fail e "apply after successful validate");
  Log_index.note t.pending entry;
  t.unchunked <- t.unchunked + size;
  if t.unchunked >= t.params.Params.chunk_bytes then kick_pipeline t

let append_op t (op : Oplog.op) =
  (* Do not pin a core while queueing behind another thread's append. *)
  if Semaphore.available t.wlock = 0 then cpu_release t;
  Semaphore.with_permit t.wlock (fun () -> append_op_locked t op)

(* ------------------------------------------------------------------ *)
(* The POSIX-ish operations                                            *)
(* ------------------------------------------------------------------ *)

let resolve_exn t path =
  match Fs_state.resolve t.fs path with
  | Ok i -> i
  | Error e -> Dfs_intf.fail e path

let alloc_fd t file =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Hashtbl.replace t.fds fd file;
  fd

let the_file t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some f -> f
  | None -> Dfs_intf.fail Fs_state.Einval (Printf.sprintf "fd %d" fd)

let do_create t path =
  t.n_ops <- t.n_ops + 1;
  cpu t t.params.Params.fs_op_cost;
  let parent_path, name = Dfs_intf.split_path path in
  let parent = resolve_exn t parent_path in
  ensure_lease t parent;
  let inum = Fs_state.alloc_inum t.fs in
  append_op t (Oplog.Create { parent; name; inum; dir = false });
  ensure_lease t inum;
  alloc_fd t { fpath = path; inum; append_pos = 0 }

let do_open t path =
  t.n_ops <- t.n_ops + 1;
  cpu t t.params.Params.fs_op_cost;
  let inum = resolve_exn t path in
  (* Open permission check runs on the NICFS (and asks the kernel
     worker to mmap public pages) — the Varmail-visible cost (§5.3). *)
  cpu_release t;
  (match
     Nicfs.open_check t.nicfs ~from:(host_loc t) ~client:t.cid ~inum
       ~write:true
   with
  | Ok () -> ()
  | Error e -> Dfs_intf.fail e path);
  ensure_lease t inum;
  alloc_fd t
    { fpath = path; inum; append_pos = Fs_state.file_size t.fs inum }

let do_close t fd =
  t.n_ops <- t.n_ops + 1;
  Hashtbl.remove t.fds fd;
  (* Natural park point: do not pin a core while the file is closed. *)
  cpu_release t

let do_write t fd ~pos data =
  t.n_ops <- t.n_ops + 1;
  let f = the_file t fd in
  ensure_lease t f.inum;
  append_op t (Oplog.Write { inum = f.inum; offset = pos; data });
  let endpos = pos + Data.length data in
  if endpos > f.append_pos then f.append_pos <- endpos;
  t.n_written <- t.n_written + Data.length data

let do_append t fd data =
  let f = the_file t fd in
  do_write t fd ~pos:f.append_pos data

let do_read t fd ~pos ~len =
  t.n_ops <- t.n_ops + 1;
  let f = the_file t fd in
  cpu t t.params.Params.fs_op_cost;
  if not (Log_index.covers t.pending ~inum:f.inum ~pos ~len) then begin
    (* Public PM path: walk the per-file extent tree. *)
    let depth = max 1 (Fs_state.extent_depth t.fs f.inum) in
    cpu t (depth * t.params.Params.read_index_cost)
  end;
  let actual = max 0 (min len (Fs_state.file_size t.fs f.inum - pos)) in
  (* Device time + the copy into the application buffer. *)
  Hw.Pm.read t.node.Hw.Node.pm actual;
  cpu t (Hw.Node.copy_work t.node actual);
  match Fs_state.read t.fs ~inum:f.inum ~pos ~len with
  | Ok d ->
      t.n_read <- t.n_read + Data.length d;
      d
  | Error e -> Dfs_intf.fail e f.fpath

let do_fsync t fd =
  t.n_ops <- t.n_ops + 1;
  t.n_fsync <- t.n_fsync + 1;
  let _f = the_file t fd in
  cpu t t.params.Params.fs_op_cost;
  let upto = t.next_seq - 1 in
  cpu_release t;
  if upto > 0 then
    Nicfs.fsync t.nicfs ~from:(host_loc t) ~client:t.cid ~upto_seq:upto

let do_mkdir t path =
  t.n_ops <- t.n_ops + 1;
  cpu t t.params.Params.fs_op_cost;
  let parent_path, name = Dfs_intf.split_path path in
  let parent = resolve_exn t parent_path in
  ensure_lease t parent;
  let inum = Fs_state.alloc_inum t.fs in
  append_op t (Oplog.Create { parent; name; inum; dir = true })

let do_unlink t path =
  t.n_ops <- t.n_ops + 1;
  cpu t t.params.Params.fs_op_cost;
  let parent_path, name = Dfs_intf.split_path path in
  let parent = resolve_exn t parent_path in
  ensure_lease t parent;
  let inum = resolve_exn t path in
  append_op t (Oplog.Unlink { parent; name; inum })

let do_rename t src dst =
  t.n_ops <- t.n_ops + 1;
  cpu t t.params.Params.fs_op_cost;
  let src_parent_path, src_name = Dfs_intf.split_path src in
  let dst_parent_path, dst_name = Dfs_intf.split_path dst in
  let src_parent = resolve_exn t src_parent_path in
  let dst_parent = resolve_exn t dst_parent_path in
  ensure_lease t src_parent;
  if dst_parent <> src_parent then ensure_lease t dst_parent;
  let inum = resolve_exn t src in
  append_op t
    (Oplog.Rename { src_parent; src_name; dst_parent; dst_name; inum })

let do_file_size t path =
  match Fs_state.resolve t.fs path with
  | Ok inum -> Some (Fs_state.file_size t.fs inum)
  | Error _ -> None

let ops t =
  {
    Dfs_intf.sysname = "LineFS";
    create = (fun path -> do_create t path);
    open_file = (fun path -> do_open t path);
    close = (fun fd -> do_close t fd);
    write = (fun fd ~pos data -> do_write t fd ~pos data);
    append = (fun fd data -> do_append t fd data);
    read = (fun fd ~pos ~len -> do_read t fd ~pos ~len);
    fsync = (fun fd -> do_fsync t fd);
    mkdir = (fun path -> do_mkdir t path);
    unlink = (fun path -> do_unlink t path);
    rename = (fun src dst -> do_rename t src dst);
    file_size = (fun path -> do_file_size t path);
  }

let ops_issued t = t.n_ops
let bytes_written t = t.n_written
let bytes_read t = t.n_read
let fsync_count t = t.n_fsync
let lease_hits t = t.n_lease_hit
let lease_misses t = t.n_lease_miss
