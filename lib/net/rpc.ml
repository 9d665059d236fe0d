open Sim

type kind =
  | Busy_poll
  | Event of { workers : int; prio : Hw.Cpu.prio }

(* [key] is the per-caller sequence number stamped on requests while
   fault injection is active: fabric duplicates and caller retries of
   one logical request share a key, so the server-side dedup cache can
   execute it once and replay the reply.  [tainted] models in-flight
   bit corruption ((offset, xor) from the [Corrupt] verdict); [crc] is
   the end-to-end integrity trailer computed by the sender.  All three
   are absent on the fault-free path, which therefore schedules
   byte-identically to the pre-hardening code. *)
type ('req, 'resp) msg =
  | Req of {
      req : 'req;
      iv : 'resp Ivar.t option;
      key : (int * int) option;
      tainted : (int * int) option;
      crc : int32 option;
    }
  | Stop

type 'resp dedup_state = Running | Done of 'resp

type ('req, 'resp) t = {
  name : string;
  loc : Loc.t;
  inbox : ('req, 'resp) msg Mailbox.t;
  kind : kind;
  handler : 'req -> 'resp;
  integrity : ('req -> int32 option) option;
  dispatch_cost : Time.t;
  poll_overhead : Time.t;
  n_workers : int;
  mutable group : Engine.group option;
  (* Bounded FIFO dedup cache: key -> execution state. *)
  dedup : (int * int, 'resp dedup_state) Hashtbl.t;
  dedup_fifo : (int * int) Queue.t;
}

let dedup_cap = 512

(* Mutation knob for the conformance self-test: with the cache disabled
   every delivery executes the handler, so duplicated requests must be
   caught by the invariant layer (proving the cache is load-bearing). *)
let disable_dedup = ref false

let pool_of loc =
  match loc with
  | Loc.Host n -> n.Hw.Node.host
  | Loc.Nic n -> Hw.Smartnic.cpu n.Hw.Node.nic

let answer iv_opt resp =
  match iv_opt with Some iv -> Ivar.fill iv resp | None -> ()

(* Guarded reply fill: replays and late duplicate executions must not
   double-fill the caller's reply slot. *)
let answer_once iv_opt resp =
  match iv_opt with
  | Some iv when not (Ivar.is_filled iv) -> Ivar.fill iv resp
  | _ -> ()

(* ---- per-caller sequence numbers ---------------------------------- *)

let caller_id from =
  (2 * (Loc.node from).Hw.Node.id) + if Loc.is_host from then 0 else 1

(* Domain-local: simulations sharded across domains each advance their
   own counter table instead of racing on a shared Hashtbl.  Sequence
   numbers only need to be fresh per (caller, server) — they carry no
   timing information — so per-domain numbering leaves simulation
   results identical for any shard-to-domain layout. *)
let caller_seqs_key : (int, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let fresh_key ~from =
  let caller_seqs = Domain.DLS.get caller_seqs_key in
  let c = caller_id from in
  let n = match Hashtbl.find_opt caller_seqs c with Some n -> n | None -> 0 in
  Hashtbl.replace caller_seqs c (n + 1);
  (c, n)

(* ---- end-to-end integrity trailer --------------------------------- *)

let sender_crc t req =
  if Inject.active () then
    match t.integrity with Some f -> f req | None -> None
  else None

(* Model of wire damage to the frame: the byte at [offset] was XORed
   with [xor], so the CRC the receiver computes over the damaged frame
   differs from the sender's trailer by a nonzero perturbation. *)
let damaged_crc crc (offset, xor) =
  Int32.logxor crc
    (Int32.of_int ((((xor land 0xFF) lsl (offset land 15)) lor 1) land 0x7FFFFFFF))

let frame_ok t ~tainted ~crc req =
  match (crc, tainted) with
  | None, None -> true
  | None, Some _ ->
      (* No end-to-end trailer on this message class: the link-level
         FCS still catches the damage and discards the frame. *)
      false
  | Some sent, _ -> (
      let received =
        match tainted with None -> sent | Some dmg -> damaged_crc sent dmg
      in
      match t.integrity with
      | Some f -> (
          match f req with
          | Some recomputed -> Int32.equal recomputed received
          | None -> tainted = None)
      | None -> tainted = None)

(* ---- server-side dedup --------------------------------------------- *)

let dedup_begin t key =
  if !disable_dedup then `Execute
  else
    match Hashtbl.find_opt t.dedup key with
    | Some Running -> `Suppress
    | Some (Done resp) -> `Replay resp
    | None ->
        if Queue.length t.dedup_fifo >= dedup_cap then begin
          let oldest = Queue.pop t.dedup_fifo in
          Hashtbl.remove t.dedup oldest
        end;
        Queue.push key t.dedup_fifo;
        Hashtbl.replace t.dedup key Running;
        `Execute

let dedup_done t key resp =
  if (not !disable_dedup) && Hashtbl.mem t.dedup key then
    Hashtbl.replace t.dedup key (Done resp)

(* One delivered request, after the worker paid its wake-up cost. *)
let serve t ~req ~iv ~key ~tainted ~crc =
  if not (frame_ok t ~tainted ~crc req) then
    (* NACK: the frame is discarded without touching the handler; the
       sender's retry/retransmission path will resend it. *)
    Counters.bump "net.corrupt-frame"
  else
    match key with
    | None -> answer iv (t.handler req)
    | Some k -> (
        match dedup_begin t k with
        | `Replay resp ->
            Counters.bump "rpc.dedup-hit";
            Counters.bump "rpc.reply-replayed";
            answer_once iv resp
        | `Suppress -> Counters.bump "rpc.dedup-hit"
        | `Execute ->
            let resp = t.handler req in
            dedup_done t k resp;
            answer_once iv resp)

let busy_poll_worker t pool =
  let rec loop () =
    match Mailbox.recv t.inbox with
    | Stop -> Hw.Cpu.unreserve_core pool
    | Req { req; iv; key; tainted; crc } ->
        (* Poll granularity: the spinner notices the request almost
           immediately; no scheduler involvement. *)
        Engine.sleep t.poll_overhead;
        serve t ~req ~iv ~key ~tainted ~crc;
        loop ()
  in
  loop ()

let event_worker t pool prio =
  let rec loop () =
    match Mailbox.recv t.inbox with
    | Stop -> ()
    | Req { req; iv; key; tainted; crc } ->
        (* Wake-up: the worker must get CPU time to even look at the
           request; under contention this queues. *)
        Hw.Cpu.run ~prio pool t.dispatch_cost;
        serve t ~req ~iv ~key ~tainted ~crc;
        loop ()
  in
  loop ()

let spawn_workers t =
  let pool = pool_of t.loc in
  match t.kind with
  | Busy_poll ->
      Engine.spawn ?group:t.group ~name:(t.name ^ ".poll") (fun () ->
          busy_poll_worker t pool)
  | Event { workers; prio } ->
      for i = 1 to workers do
        Engine.spawn ?group:t.group
          ~name:(Printf.sprintf "%s.worker%d" t.name i)
          (fun () -> event_worker t pool prio)
      done

let create ?(dispatch_cost = Time.us 5) ?(poll_overhead = Time.ns 200) ?group
    ?integrity ~name ~loc ~kind ~handler () =
  let n_workers =
    match kind with Busy_poll -> 1 | Event { workers; _ } -> workers
  in
  let t =
    {
      name;
      loc;
      inbox = Mailbox.create ();
      kind;
      handler;
      integrity;
      dispatch_cost;
      poll_overhead;
      n_workers;
      group;
      dedup = Hashtbl.create 64;
      dedup_fifo = Queue.create ();
    }
  in
  (match kind with
  | Busy_poll -> Hw.Cpu.reserve_core (pool_of loc)
  | Event _ -> ());
  spawn_workers t;
  t

let restart ?group t =
  (* The previous workers are assumed dead (their group was killed), so
     their reserved core stays reserved: a busy-poll restart reuses it
     rather than reserving a second one.  In-flight requests are lost
     with the crash, and the DRAM dedup cache is lost too — survivors'
     retransmissions may re-execute, which handlers tolerate. *)
  (match group with Some _ -> t.group <- group | None -> ());
  Mailbox.clear t.inbox;
  Hashtbl.reset t.dedup;
  Queue.clear t.dedup_fifo;
  spawn_workers t

let loc t = t.loc
let msg_bytes = 64

let send_req t ~iv ~key ~tainted ~crc req =
  Mailbox.send t.inbox (Req { req; iv; key; tainted; crc })

(* The request half shared by {!call} and {!call_timeout}, for every
   verdict that lets the request through: the injected delay, the
   transfer, the sequence key and CRC trailer, and the copies the
   verdict puts on the wire.  Returns the reply slot. *)
let request t ~from ~bytes ?key verdict req =
  (match verdict with
  | Inject.Delay d | Inject.Reorder d -> Engine.sleep d
  | Inject.Pass | Inject.Duplicate | Inject.Corrupt _ | Inject.Drop -> ());
  Rdma.move ~src:from ~dst:t.loc bytes;
  let key =
    match key with
    | Some _ -> key
    | None -> if Inject.active () then Some (fresh_key ~from) else None
  in
  let crc = sender_crc t req in
  let iv = Ivar.create () in
  let send tainted = send_req t ~iv:(Some iv) ~key ~tainted ~crc req in
  (match verdict with
  | Inject.Corrupt { offset; xor } -> send (Some (offset, xor))
  | Inject.Duplicate ->
      (* The fabric retransmits the frame: wire paid twice, the
         server sees two copies of the same sequence number. *)
      Rdma.move ~src:from ~dst:t.loc bytes;
      send None;
      send None
  | Inject.Pass | Inject.Delay _ | Inject.Reorder _ | Inject.Drop -> send None);
  iv

let call t ~from ?(bytes = msg_bytes) req =
  Wire.check_local "Rpc.call" ~src:from ~dst:t.loc;
  match Inject.consult ~point:Inject.Rpc_call ~src:from ~dst:t.loc ~bytes with
  | Inject.Drop ->
      (* The request is lost and the caller has no timeout: it waits
         forever, like a thread blocked on a dead peer.  Use
         {!call_timeout} or {!call_retry} on paths that must survive
         message loss. *)
      Rdma.move ~src:from ~dst:t.loc bytes;
      Engine.suspend (fun (_ : 'resp -> unit) -> ())
  | (Inject.Pass | Inject.Delay _ | Inject.Reorder _ | Inject.Duplicate
    | Inject.Corrupt _) as v ->
      let resp = Ivar.read (request t ~from ~bytes v req) in
      Rdma.move ~src:t.loc ~dst:from msg_bytes;
      resp

let call_timeout t ~from ?(bytes = msg_bytes) ?key ~timeout req =
  Wire.check_local "Rpc.call_timeout" ~src:from ~dst:t.loc;
  match Inject.consult ~point:Inject.Rpc_call ~src:from ~dst:t.loc ~bytes with
  | Inject.Drop ->
      Rdma.move ~src:from ~dst:t.loc bytes;
      Engine.sleep timeout;
      None
  | (Inject.Pass | Inject.Delay _ | Inject.Reorder _ | Inject.Duplicate
    | Inject.Corrupt _) as v -> (
      match Ivar.read_timeout (request t ~from ~bytes ?key v req) timeout with
      | None -> None
      | Some resp ->
          Rdma.move ~src:t.loc ~dst:from msg_bytes;
          Some resp)

let call_retry t ~from ?(bytes = msg_bytes) ?(policy = Backoff.default)
    ?(attempts = max_int) req =
  if not (Inject.active ()) then
    (* Perfect network: a plain call always completes, and skipping the
       timeout machinery keeps fault-free event schedules byte-identical
       to the pre-retry behaviour. *)
    Some (call t ~from ~bytes req)
  else begin
    (* One key for the whole logical request: every retry is a
       retransmission, so a server that already executed it replays the
       cached reply instead of re-executing. *)
    let key = fresh_key ~from in
    let rec go attempt =
      if attempt >= attempts then None
      else
        let timeout = Backoff.delay policy ~attempt in
        match call_timeout t ~from ~bytes ~key ~timeout req with
        | Some _ as r -> r
        | None ->
            Counters.bump "net.retransmit";
            (* The per-attempt timeout ladder is itself the backoff: the
               failed attempt already waited [timeout], and the next one
               waits longer. *)
            go (attempt + 1)
    in
    go 0
  end

(* ---- one-way messages ---------------------------------------------- *)

(* The injection verdict for one posted frame, drawn on the sending
   engine and applied the same way on both fabric paths: [carry enqueue]
   transmits one copy whose arrival runs [enqueue], [lose ()] pays the
   transmission of a copy the fabric discards. *)
let emit t ~from ~bytes ~carry ~lose req =
  let verdict =
    Inject.consult ~point:Inject.Rpc_post ~src:from ~dst:t.loc ~bytes
  in
  let key = if Inject.active () then Some (fresh_key ~from) else None in
  let crc = sender_crc t req in
  let deliver ~tainted () =
    carry (fun () -> send_req t ~iv:None ~key ~tainted ~crc req)
  in
  match verdict with
  | Inject.Pass -> deliver ~tainted:None ()
  | Inject.Delay d ->
      Engine.sleep d;
      deliver ~tainted:None ()
  | Inject.Drop -> (* transmitted, lost in the fabric *) lose ()
  | Inject.Duplicate ->
      deliver ~tainted:None ();
      deliver ~tainted:None ()
  | Inject.Corrupt { offset; xor } -> deliver ~tainted:(Some (offset, xor)) ()
  | Inject.Reorder d ->
      (* True reordering: the sender continues immediately while this
         frame is held back, so later posts overtake it. *)
      Engine.spawn ~name:(t.name ^ ".reorder") (fun () ->
          Engine.sleep d;
          deliver ~tainted:None ())

(* One frame to [t].  Locally it crosses the fabric with one blocking
   move.  Routed, the sender half is paid here and the frame lands on
   the server's shard after [flight] (at least its own flight), where
   [landing] runs first — the landing of a payload written ahead of it. *)
let send_frame t ~from ~bytes ~name ?(landing = ignore) ?(flight = 0) req =
  match Wire.route ~src:from ~dst:t.loc with
  | None ->
      let move () = Rdma.move ~src:from ~dst:t.loc bytes in
      emit t ~from ~bytes req ~lose:move ~carry:(fun enqueue ->
          move ();
          enqueue ())
  | Some r ->
      let send () = Wire.send_src ~src:from bytes in
      let flight = max flight (Wire.flight ~dst:t.loc) in
      emit t ~from ~bytes req ~lose:send ~carry:(fun enqueue ->
          send ();
          Wire.send r ~delay:flight ~name (fun () ->
              landing ();
              Wire.land_dst ~dst:t.loc bytes;
              enqueue ()))

let post t ~from ?(bytes = msg_bytes) ?(name = t.name) req =
  send_frame t ~from ~bytes ~name req

let write_post ~from ~dst ?(medium = `Dram) ?(at_dst = ignore)
    ?(sender_wait = fun f -> f ()) ~name n server req =
  match Wire.route ~src:from ~dst with
  | None ->
      at_dst ();
      sender_wait (fun () -> Rdma.move ~dst_medium:medium ~src:from ~dst n);
      post (server ()) ~from ~name req
  | Some _ ->
      (* One combined flight: the payload lands with the first copy of
         the notification to arrive (a dropped notification loses it). *)
      let landed = ref false in
      let landing () =
        if not !landed then begin
          landed := true;
          at_dst ();
          Wire.land_dst ~dst_medium:medium ~dst n
        end
      in
      sender_wait (fun () ->
          Wire.send_src ~src:from n;
          let t = server () in
          send_frame t ~from ~bytes:msg_bytes ~name ~landing
            ~flight:(Wire.flight ~dst) req)

let queue_length t = Mailbox.length t.inbox

let shutdown t =
  for _ = 1 to t.n_workers do
    Mailbox.send t.inbox Stop
  done
