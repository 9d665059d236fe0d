(* Bechamel micro-benchmarks of the core data structures and codecs —
   the real-CPU building blocks underneath the simulated datapath.
   Only kernels with no counterpart among hostbench's [ledger.*] probes
   live here; the ledger times engine dispatch, the heap, rope CRC32
   and LZW, rope concat and extent-map inserts. *)

open Bechamel
open Toolkit

let extent_map_lookup =
  let m = Storage.Extent_map.create () in
  let () =
    for i = 0 to 9999 do
      Storage.Extent_map.insert m ~at:(i * 64) (Storage.Data.zero ~len:64) i
    done
  in
  Test.make ~name:"extent_map.find-10k"
    (Staged.stage (fun () ->
         for i = 0 to 99 do
           ignore (Storage.Extent_map.find m (i * 640) : _ option)
         done))

let crc32_4k =
  let buf = Bytes.create 4096 in
  Test.make ~name:"crc32.4KiB"
    (Staged.stage (fun () -> ignore (Storage.Crc32.bytes buf : int32)))

let lzw_encode_64k =
  let rng = Sim.Rng.create 3 in
  let data =
    Storage.Data.to_bytes
      (Storage.Data.fill_ratio (Storage.Data.zero ~len:65536) ~zeros:0.6 ~rng)
  in
  Test.make ~name:"lzw.encode-64KiB-60%zero"
    (Staged.stage (fun () -> ignore (Compress.Lzw.encode data : Bytes.t)))

let oplog_roundtrip =
  let entry =
    Storage.Oplog.make ~seq:1 ~client:0
      (Storage.Oplog.Write
         { inum = 2; offset = 0; data = Storage.Data.real (Bytes.create 4096) })
  in
  Test.make ~name:"oplog.serialize+deserialize-4KiB"
    (Staged.stage (fun () ->
         match Storage.Oplog.deserialize (Storage.Oplog.serialize entry) with
         | Ok _ -> ()
         | Error e -> failwith e))

let lzw_decode_256k =
  let rng = Sim.Rng.create 9 in
  let enc =
    Compress.Lzw.encode
      (Storage.Data.to_bytes
         (Storage.Data.fill_ratio
            (Storage.Data.zero ~len:262144)
            ~zeros:0.6 ~rng))
  in
  Test.make ~name:"lzw.decode-256KiB"
    (Staged.stage (fun () -> ignore (Compress.Lzw.decode enc : Bytes.t)))

let all_tests =
  [
    extent_map_lookup;
    crc32_4k;
    lzw_encode_64k;
    oplog_roundtrip;
    lzw_decode_256k;
  ]

let run () =
  Common.heading "Bechamel micro-benchmarks (real CPU time of substrates)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results' =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-40s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n%!" name)
        results')
    all_tests
