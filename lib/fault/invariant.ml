open Sim
module Fs_state = Storage.Fs_state
module Oplog = Storage.Oplog

type violation = { name : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.name v.detail

let v name fmt = Format.kasprintf (fun detail -> { name; detail }) fmt

(* ------------------------------------------------------------------ *)
(* Prefix crash consistency                                            *)
(* ------------------------------------------------------------------ *)

(* Every prefix of a client's persisted operation history must be a
   consistent file-system image: sequence numbers contiguous from 1 and
   every operation applicable to the state built by its predecessors.
   Replaying once and checking each step covers all prefixes at once. *)
let check_prefix_consistency ~(histories : (int * Oplog.entry list) list) =
  List.concat_map
    (fun (client, entries) ->
      let fs = Fs_state.create () in
      let bad = ref [] in
      let expect = ref 1 in
      List.iter
        (fun (e : Oplog.entry) ->
          if e.Oplog.seq <> !expect then
            bad :=
              v "log-gap" "client %d: entry seq %d where %d expected" client
                e.Oplog.seq !expect
              :: !bad;
          expect := e.Oplog.seq + 1;
          if not (Oplog.check e) then
            bad :=
              v "log-crc" "client %d: entry seq %d fails its checksum" client
                e.Oplog.seq
              :: !bad;
          match Fs_state.apply fs e.Oplog.op with
          | Ok () -> ()
          | Error err ->
              bad :=
                v "prefix-replay"
                  "client %d: entry seq %d (%s) does not apply: %s" client
                  e.Oplog.seq
                  (Format.asprintf "%a" Oplog.pp_op e.Oplog.op)
                  (Fs_state.error_to_string err)
                :: !bad)
        entries;
      List.rev !bad)
    histories

(* ------------------------------------------------------------------ *)
(* Lease single-writer safety                                          *)
(* ------------------------------------------------------------------ *)

type hold = {
  h_ltype : Linefs.Lease.ltype;
  h_epoch : int;
  h_expires : Time.t;
}

(* Replay the scenario's lease trace and flag overlapping grants.  A
   hold opens at its Granted record and closes at the matching
   Released, at wall-clock expiry, or when the cluster epoch
   moves past its grant epoch (the epoch bump is a cluster-wide
   revocation, §3.6). *)
let check_single_writer (trace : Trace.t) =
  let holds : (int * int, (int, hold) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let epoch = ref 1 in
  let bad = ref [] in
  let table node inum =
    let k = (node, inum) in
    match Hashtbl.find_opt holds k with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace holds k h;
        h
  in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Trace.Epoch e -> epoch := max !epoch e
      | Trace.Fault _ | Trace.Note _ -> ()
      | Trace.Lease (Linefs.Lease.Released { node; client; inum }) ->
          Hashtbl.remove (table node inum) client
      | Trace.Lease
          (Linefs.Lease.Granted { node; client; inum; ltype; epoch = ge; expires })
        ->
          let tbl = table node inum in
          (* Retire holds that died silently: past expiry or from a
             pre-bump epoch. *)
          Hashtbl.iter
            (fun c (h : hold) ->
              if h.h_expires <= r.Trace.time || h.h_epoch < !epoch then
                Hashtbl.remove tbl c)
            (Hashtbl.copy tbl);
          Hashtbl.iter
            (fun c (h : hold) ->
              if c <> client && (ltype = Linefs.Lease.Write || h.h_ltype = Linefs.Lease.Write)
              then
                bad :=
                  v "lease-overlap"
                    "trace #%d: node %d inum %d: client %d granted %s while \
                     client %d still holds %s (epoch %d, expires %s)"
                    r.Trace.index node inum client
                    (match ltype with
                    | Linefs.Lease.Write -> "Write"
                    | Linefs.Lease.Read -> "Read")
                    c
                    (match h.h_ltype with
                    | Linefs.Lease.Write -> "Write"
                    | Linefs.Lease.Read -> "Read")
                    h.h_epoch
                    (Time.to_string h.h_expires)
                  :: !bad)
            tbl;
          Hashtbl.replace tbl client
            { h_ltype = ltype; h_epoch = ge; h_expires = expires })
    (Trace.events trace);
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* Idempotent application                                              *)
(* ------------------------------------------------------------------ *)

(* Every accepted operation applies exactly once per replica: a
   duplicated (client, seq) pair in a node's application journal means
   a fabric duplicate or a retransmission slipped past both dedup
   layers (RPC cache and publication gate).  State-level idempotence
   can mask that — [Fs_state.apply] tolerates Write replays — so the
   journal, not the digest, is the evidence. *)
let check_no_duplicate_apply ~(journals : (int * (int * int) list) list) =
  List.concat_map
    (fun (node, entries) ->
      let seen = Hashtbl.create 64 in
      let bad = ref [] in
      List.iter
        (fun (client, seq) ->
          if Hashtbl.mem seen (client, seq) then begin
            if not (Hashtbl.find seen (client, seq)) then begin
              Hashtbl.replace seen (client, seq) true;
              bad :=
                v "dup-apply"
                  "node %d: op (client=%d, seq=%d) applied more than once"
                  node client seq
                :: !bad
            end
          end
          else Hashtbl.replace seen (client, seq) false)
        entries;
      List.rev !bad)
    journals

(* ------------------------------------------------------------------ *)
(* Replica convergence                                                 *)
(* ------------------------------------------------------------------ *)

(* After the fault horizon has passed, recovery has run and pipelines
   are drained, every replica must present a byte-identical file system
   to the primary's. *)
let check_convergence ~primary ~(replicas : (int * Fs_state.t) list) =
  let want = Fs_state.digest primary in
  List.filter_map
    (fun (node, fs) ->
      let got = Fs_state.digest fs in
      if got <> want then
        Some
          (v "divergence"
             "node %d digest %08lx != primary digest %08lx (inodes %d vs %d)"
             node got want
             (Fs_state.live_inodes fs)
             (Fs_state.live_inodes primary))
      else None)
    replicas
