open Hw

(* The injection verdict for one transfer.  A reordered one-sided
   transfer lands late: at this layer that is indistinguishable from
   extra fabric latency, so [Delay] and [Reorder] are paid up front. *)
let consult ~src ~dst n =
  let verdict = Inject.consult ~point:Inject.Rdma_move ~src ~dst ~bytes:n in
  (match verdict with
  | Inject.Delay d | Inject.Reorder d -> Sim.Engine.sleep d
  | Inject.Pass | Inject.Drop | Inject.Duplicate | Inject.Corrupt _ -> ());
  verdict

(* A dropped transfer was transmitted (sender-side costs paid, wire
   occupied) but discarded before landing at the receiver.  Corrupt
   payloads land — detection is the job of the end-to-end CRC trailer
   checked by the message layer above. *)
let lands = function
  | Inject.Drop -> false
  | Inject.Pass | Inject.Delay _ | Inject.Duplicate | Inject.Reorder _
  | Inject.Corrupt _ ->
      true

let move ?(src_medium = `Dram) ?(dst_medium = `Dram) ~src ~dst n =
  Wire.check_local "Rdma.move" ~src ~dst;
  let src_node = Loc.node src and dst_node = Loc.node dst in
  let verdict = consult ~src ~dst n in
  let transfer () =
    Wire.pm_charge src_medium src_node ~write:false n;
    if Loc.same_node src dst then begin
      match (src, dst) with
      | Loc.Host _, Loc.Nic _ | Loc.Nic _, Loc.Host _ ->
          Pcie.transfer src_node.pcie n
      | Loc.Host _, Loc.Host _ | Loc.Nic _, Loc.Nic _ ->
          (* Same memory domain: the copy engine (CPU/DMA) is modelled by
             the caller; RDMA adds nothing. *)
          ()
    end
    else begin
      (* Crossing host PCIe adds latency but its bandwidth (8 GB/s) never
         binds behind the 2.2 GB/s port, so only latency is charged. *)
      if Loc.is_host src then Sim.Engine.sleep (Pcie.latency src_node.pcie);
      Netlink.send ~src:src_node.port ~dst:dst_node.port n;
      if Loc.is_host dst then Sim.Engine.sleep (Pcie.latency dst_node.pcie)
    end
  in
  transfer ();
  (* A duplicated transfer occupies the wire twice; one-sided RDMA
     writes are idempotent, so the second landing is harmless. *)
  (match verdict with Inject.Duplicate -> transfer () | _ -> ());
  if lands verdict then Wire.pm_charge dst_medium dst_node ~write:true n

let ship ?(dst_medium = `Dram) ~src ~dst ~name n k =
  match Wire.route ~src ~dst with
  | None ->
      move ~dst_medium ~src ~dst n;
      k ()
  | Some r ->
      let verdict = consult ~src ~dst n in
      Wire.send_src ~src n;
      (match verdict with Inject.Duplicate -> Wire.send_src ~src n | _ -> ());
      let dst_medium = if lands verdict then dst_medium else `Dram in
      Wire.send r ~delay:(Wire.flight ~dst) ~name (fun () ->
          Wire.land_dst ~dst_medium ~dst n;
          k ())

let move_time_estimate ~src ~dst n =
  let src_node = Loc.node src and dst_node = Loc.node dst in
  if Loc.same_node src dst then begin
    match (src, dst) with
    | Loc.Host _, Loc.Nic _ | Loc.Nic _, Loc.Host _ ->
        Pcie.transfer_time src_node.pcie n
    | _ -> 0
  end
  else begin
    let pcie_hops =
      (if Loc.is_host src then Pcie.latency src_node.pcie else 0)
      + if Loc.is_host dst then Pcie.latency dst_node.pcie else 0
    in
    pcie_hops
    + Bandwidth.time_for (Netlink.egress src_node.port) n
    + src_node.cfg.Config.net_latency
  end
