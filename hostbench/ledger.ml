(* Absolute per-layer costs: each probe times one public function on
   inputs shaped like the workload that leans on it, and reports host
   nanoseconds per unit of work. *)

open Sim

(* How long each probe repeats its call; the smoke test shortens it. *)
let min_s = ref 0.25

(* Seconds per call of [f], repeated until [min_s] has elapsed. *)
let per_call f =
  f ();
  let t0 = Unix.gettimeofday () in
  let n = ref 0 and dt = ref 0.0 in
  while !dt < !min_s do
    f ();
    incr n;
    dt := Unix.gettimeofday () -. t0
  done;
  !dt /. float_of_int !n

let ns_per ~units f = per_call f /. float_of_int units *. 1e9

(* A replication chunk's shape: real, synthetic and zero pieces. *)
let mixed_pieces ~piece ~count =
  List.init count (fun i ->
      match i mod 3 with
      | 0 ->
          Storage.Data.real
            (Bytes.init piece (fun j -> Char.unsafe_chr ((i + (j * 7)) land 0xFF)))
      | 1 -> Storage.Data.synthetic ~seed:(i + 1) ~len:piece
      | _ -> Storage.Data.zero ~len:piece)

let in_engine body =
  let eng = Engine.create () in
  Engine.spawn_root eng body;
  Engine.run eng

let engine_events = 100_000

let engine () =
  ns_per ~units:engine_events (fun () ->
      in_engine (fun () ->
          for _ = 1 to engine_events do
            Engine.sleep 10
          done))

let heap () =
  let n = 10_000 in
  ns_per ~units:(2 * n) (fun () ->
      let h = Heap.create () in
      for i = 0 to n - 1 do
        Heap.push h ~key:(i * 7919 mod n) ~seq:i i
      done;
      while not (Heap.is_empty h) do
        ignore (Heap.pop_top h : int)
      done)

let chunk_bytes = 64 * 16384

let crc32 () =
  let chunk = Storage.Data.concat (mixed_pieces ~piece:16384 ~count:64) in
  ns_per ~units:chunk_bytes (fun () -> ignore (Storage.Crc32.data chunk : int32))

let lzw () =
  let rng = Rng.create 7 in
  let d =
    Storage.Data.concat
      (List.init 4 (fun _ ->
           Storage.Data.fill_ratio (Storage.Data.zero ~len:65536) ~zeros:0.6 ~rng))
  in
  ns_per ~units:(Storage.Data.length d) (fun () ->
      ignore (Compress.Lzw.encoded_length_data d : int))

let rope () =
  let pieces = mixed_pieces ~piece:16384 ~count:64 in
  let dst = Bytes.create chunk_bytes in
  ns_per ~units:chunk_bytes (fun () ->
      let d = Storage.Data.concat pieces in
      Storage.Data.blit_to d ~src_pos:0 ~dst ~dst_pos:0 ~len:(Storage.Data.length d))

let hops = 5_000

let two_nodes () =
  let topo = Hw.Topology.create ~nodes:2 () in
  (Hw.Topology.node topo 0, Hw.Topology.node topo 1)

let rpc () =
  ns_per ~units:hops (fun () ->
      in_engine (fun () ->
          let n0, _ = two_nodes () in
          let srv =
            Net.Rpc.create ~name:"ledger" ~loc:(Net.Loc.Nic n0)
              ~kind:Net.Rpc.Busy_poll ~handler:(fun x -> x + 1) ()
          in
          for i = 1 to hops do
            ignore (Net.Rpc.call srv ~from:(Net.Loc.Host n0) i : int)
          done;
          Net.Rpc.shutdown srv))

let rdma () =
  ns_per ~units:hops (fun () ->
      in_engine (fun () ->
          let n0, n1 = two_nodes () in
          for _ = 1 to hops do
            Net.Rdma.move ~src:(Net.Loc.Host n0) ~dst:(Net.Loc.Host n1) 16384
          done))

let pipeline () =
  ns_per ~units:hops (fun () ->
      in_engine (fun () ->
          let done_ = Ivar.create () in
          let sunk = ref 0 in
          let pl =
            Linefs.Pipeline.create ~name:"ledger"
              ~stages:
                [
                  Linefs.Pipeline.stage "a" (fun _ -> Engine.sleep 1);
                  Linefs.Pipeline.stage "b" (fun _ -> Engine.sleep 1);
                ]
              ~sink:(fun _ ->
                incr sunk;
                if !sunk = hops then Ivar.fill done_ ())
              ()
          in
          for i = 1 to hops do
            Linefs.Pipeline.submit pl i
          done;
          Ivar.read done_))

let entries = 10_000

let oplog () =
  let payload = Storage.Data.synthetic ~seed:3 ~len:4096 in
  ns_per ~units:entries (fun () ->
      let log = Storage.Oplog.Log.create ~capacity:(64 * 1024 * 1024) () in
      for seq = 1 to entries do
        let e =
          Storage.Oplog.make ~seq ~client:1
            (Storage.Oplog.Write { inum = 2; offset = seq * 4096; data = payload })
        in
        (match Storage.Oplog.Log.append log e with
        | Ok () -> ()
        | Error `Full -> failwith "ledger: oplog full");
        if seq mod 1000 = 0 then ignore (Storage.Oplog.Log.reclaim_upto log ~seq : int)
      done)

(* Metadata-shaped applies: create a file, write 512 bytes, rename it
   into place (what a Metastorm cycle publishes). *)
let fs_state () =
  let files = 1000 in
  let payload = Storage.Data.synthetic ~seed:5 ~len:512 in
  ns_per ~units:(3 * files) (fun () ->
      let module F = Storage.Fs_state in
      let fs = F.create () in
      for i = 1 to files do
        let inum = F.alloc_inum fs in
        let ok = function Ok () -> () | Error e -> failwith (F.error_to_string e) in
        ok
          (F.apply fs
             (Storage.Oplog.Create
                { parent = F.root_inum; name = Printf.sprintf "t%d" i; inum; dir = false }));
        ok (F.apply fs (Storage.Oplog.Write { inum; offset = 0; data = payload }));
        ok
          (F.apply fs
             (Storage.Oplog.Rename
                {
                  src_parent = F.root_inum;
                  src_name = Printf.sprintf "t%d" i;
                  dst_parent = F.root_inum;
                  dst_name = Printf.sprintf "f%d" i;
                  inum;
                }))
      done)

let extent_map () =
  let n = 10_000 in
  let piece = Storage.Data.zero ~len:16384 in
  ns_per ~units:n (fun () ->
      let m = Storage.Extent_map.create () in
      for i = 0 to n - 1 do
        Storage.Extent_map.insert m ~at:(i * 16384) piece i
      done)

(* Two shards bouncing a message: every bounce closes a window. *)
let sharded () =
  let bounces = 2_000 in
  let windows = ref 0 in
  let secs =
    per_call (fun () ->
        let sh = Sharded.create ~shards:2 () in
        Sharded.connect sh ~src:0 ~dst:1 ~lookahead:(Time.us 1);
        Sharded.connect sh ~src:1 ~dst:0 ~lookahead:(Time.us 1);
        let rec bounce src n () =
          if n > 0 then
            Sharded.send sh ~src ~dst:(1 - src) ~name:"ledger.bounce"
              (bounce (1 - src) (n - 1))
        in
        Sharded.spawn_root sh ~shard:0 (bounce 0 bounces);
        Sharded.run sh;
        windows := Sharded.windows_run sh)
  in
  secs /. float_of_int (max 1 !windows) *. 1e9

let probes =
  [
    ("ledger.engine_ns_per_event", engine);
    ("ledger.heap_ns_per_op", heap);
    ("ledger.crc32_ns_per_byte", crc32);
    ("ledger.lzw_ns_per_byte", lzw);
    ("ledger.rope_ns_per_byte", rope);
    ("ledger.rpc_ns_per_call", rpc);
    ("ledger.rdma_ns_per_move", rdma);
    ("ledger.pipeline_ns_per_item", pipeline);
    ("ledger.oplog_ns_per_entry", oplog);
    ("ledger.fs_state_ns_per_apply", fs_state);
    ("ledger.extent_map_ns_per_insert", extent_map);
    ("ledger.sharded_ns_per_window", sharded);
  ]
