let place ?sharding nodes =
  match sharding with
  | None -> ()
  | Some (sh, base) ->
      let n = Array.length nodes in
      Array.iteri (fun i node -> node.Hw.Node.shard <- Some (sh, base + i)) nodes;
      (* Every cross-node exchange (chunk ship, ack, lease record, flush
         round trip) crosses at least one switch, so the fabric latency
         is each edge's lookahead and windows stay as wide as the
         physics allows.  The destination PCIe hop is part of each
         message's flight, not the floor: NIC-terminated traffic must
         still be deliverable at switch latency alone. *)
      let lookahead = nodes.(0).Hw.Node.cfg.Hw.Config.net_latency in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            Sim.Sharded.connect ~lookahead sh ~src:(base + i) ~dst:(base + j)
        done
      done

let start ~name (node : Hw.Node.t) f =
  match node.shard with
  | None -> f ()
  | Some (sh, shard) -> (
      let out = ref None in
      Sim.Sharded.spawn_root ~name sh ~shard (fun () -> out := Some (f ()));
      ignore
        (Sim.Engine.run_until (Sim.Sharded.engine sh shard) ~bound:(ref 1)
          : Sim.Time.t option);
      match !out with
      | Some v -> v
      | None -> failwith (name ^ ": boot blocked past t = 0"))

let run_on ~from ~name (node : Hw.Node.t) f =
  match Wire.route ~src:(Loc.Host from) ~dst:(Loc.Host node) with
  | None -> f ()
  | Some r -> Wire.send r ~delay:0 ~name f
