(* Tests for the storage substrate: payloads, CRC, extent maps, the
   operational log, the unpublished-write index and the public FS
   state. *)

open Storage

let data_bytes = Alcotest.testable Data.pp Data.equal

(* ------------------------------------------------------------------ *)
(* Data                                                                *)
(* ------------------------------------------------------------------ *)

let test_data_real_roundtrip () =
  let d = Data.of_string "hello world" in
  Alcotest.(check int) "length" 11 (Data.length d);
  Alcotest.(check string) "content" "hello world"
    (Bytes.to_string (Data.to_bytes d))

let test_data_sub_content () =
  let d = Data.of_string "abcdefgh" in
  let s = Data.sub d ~pos:2 ~len:3 in
  Alcotest.(check string) "slice" "cde" (Bytes.to_string (Data.to_bytes s))

let test_data_synthetic_stable_slicing () =
  (* A slice of synthetic data equals the same range of the parent. *)
  let d = Data.synthetic ~seed:7 ~len:1000 in
  let s = Data.sub d ~pos:123 ~len:100 in
  let full = Data.to_bytes d in
  Alcotest.(check string)
    "slice matches parent range"
    (Bytes.sub_string full 123 100)
    (Bytes.to_string (Data.to_bytes s))

let test_data_synthetic_deterministic () =
  let a = Data.synthetic ~seed:9 ~len:64 in
  let b = Data.synthetic ~seed:9 ~len:64 in
  Alcotest.check data_bytes "same seed same content" a b;
  let c = Data.synthetic ~seed:10 ~len:64 in
  Alcotest.(check bool) "different seed differs" false (Data.equal a c)

let test_data_zero () =
  let z = Data.zero ~len:16 in
  Alcotest.(check string) "all zeros"
    (String.make 16 '\000')
    (Bytes.to_string (Data.to_bytes z));
  Alcotest.(check char) "get" '\000' (Data.get z 5)

let test_data_concat_rejoins_synth () =
  let d = Data.synthetic ~seed:3 ~len:100 in
  let a = Data.sub d ~pos:0 ~len:40 in
  let b = Data.sub d ~pos:40 ~len:60 in
  let joined = Data.concat [ a; b ] in
  Alcotest.(check bool) "rejoined without materializing" false
    (Data.is_real joined);
  Alcotest.check data_bytes "content preserved" d joined

let test_data_concat_mixed () =
  let joined =
    Data.concat [ Data.of_string "ab"; Data.zero ~len:2; Data.of_string "cd" ]
  in
  Alcotest.(check string) "mixed concat" "ab\000\000cd"
    (Bytes.to_string (Data.to_bytes joined))

let test_data_sub_out_of_bounds () =
  let d = Data.of_string "xyz" in
  match Data.sub d ~pos:2 ~len:5 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_data_fill_ratio () =
  let rng = Sim.Rng.create 11 in
  let d = Data.fill_ratio (Data.zero ~len:100_000) ~zeros:0.8 ~rng in
  let b = Data.to_bytes d in
  let zeros = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr zeros) b;
  let frac = float_of_int !zeros /. 100_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "zero fraction ~0.8 (got %.3f)" frac)
    true
    (frac > 0.78 && frac < 0.82)

let prop_data_sub_of_sub =
  QCheck.Test.make ~name:"nested slices compose" ~count:200
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let total = a + b + c + 10 in
      let d = Data.synthetic ~seed:1 ~len:total in
      let s1 = Data.sub d ~pos:a ~len:(b + c + 10) in
      let s2 = Data.sub s1 ~pos:b ~len:c in
      let direct = Data.sub d ~pos:(a + b) ~len:c in
      Data.equal s2 direct)

(* -- rope model properties: random payload trees vs flat bytes -------- *)

(* Generator for arbitrary payloads alongside a naive flat-bytes
   reference: leaves are Real/Synth/Zero, inner nodes concatenate, and
   every subtree may be wrapped in a random [sub]. *)
let gen_data_model =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        ( 3,
          map
            (fun s -> (Data.of_string s, Bytes.of_string s))
            (string_size ~gen:printable (0 -- 40)) );
        ( 3,
          map2
            (fun seed len ->
              let d = Data.synthetic ~seed ~len in
              (d, Data.to_bytes d))
            (1 -- 1000) (0 -- 64) );
        (2, map (fun len -> (Data.zero ~len, Bytes.make len '\000')) (0 -- 64));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            list_size (0 -- 4) (node (depth - 1)) >>= fun parts ->
            let d = Data.concat (List.map fst parts) in
            let b = Bytes.concat Bytes.empty (List.map snd parts) in
            return (d, b) );
          ( 1,
            node (depth - 1) >>= fun (d, b) ->
            let n = Data.length d in
            0 -- n >>= fun pos ->
            0 -- (n - pos) >>= fun len ->
            return (Data.sub d ~pos ~len, Bytes.sub b pos len) );
        ]
  in
  node 3

let arb_data_model =
  QCheck.make gen_data_model ~print:(fun (d, b) ->
      Format.asprintf "%a (ref %d bytes)" Data.pp d (Bytes.length b))

let prop_rope_matches_bytes_model =
  QCheck.Test.make ~name:"rope to_bytes/get/length match flat model" ~count:300
    arb_data_model (fun (d, b) ->
      Data.length d = Bytes.length b
      && Data.to_bytes d = b
      && (Bytes.length b = 0
         || Data.get d (Bytes.length b / 2) = Bytes.get b (Bytes.length b / 2)))

let prop_rope_iter_slices_covers =
  QCheck.Test.make ~name:"iter_slices reassembles the payload in order"
    ~count:300 arb_data_model (fun (d, b) ->
      let buf = Buffer.create 64 in
      Data.iter_slices d (fun s ->
          let n = Data.slice_length s in
          let tmp = Bytes.create n in
          Data.blit_slice s ~src_pos:0 ~dst:tmp ~dst_pos:0 ~len:n;
          Buffer.add_bytes buf tmp);
      Buffer.to_bytes buf = b)

let prop_rope_blit_to =
  QCheck.Test.make ~name:"blit_to writes exactly the requested range"
    ~count:300
    QCheck.(pair arb_data_model (pair small_nat small_nat))
    (fun ((d, b), (p, l)) ->
      let n = Bytes.length b in
      let src_pos = if n = 0 then 0 else p mod (n + 1) in
      let len = min l (n - src_pos) in
      let dst = Bytes.make (len + 8) '\xAA' in
      Data.blit_to d ~src_pos ~dst ~dst_pos:4 ~len;
      Bytes.sub dst 4 len = Bytes.sub b src_pos len
      && Bytes.sub_string dst 0 4 = "\xAA\xAA\xAA\xAA"
      && Bytes.sub_string dst (4 + len) 4 = "\xAA\xAA\xAA\xAA")

let prop_rope_sub_matches_model =
  QCheck.Test.make ~name:"rope sub matches flat model sub" ~count:300
    QCheck.(pair arb_data_model (pair small_nat small_nat))
    (fun ((d, b), (p, l)) ->
      let n = Bytes.length b in
      let pos = if n = 0 then 0 else p mod (n + 1) in
      let len = min l (n - pos) in
      Data.to_bytes (Data.sub d ~pos ~len) = Bytes.sub b pos len)

let prop_rope_equal_agrees_with_model =
  QCheck.Test.make ~name:"Data.equal agrees with flat-bytes equality"
    ~count:300
    QCheck.(pair arb_data_model arb_data_model)
    (fun ((d1, b1), (d2, b2)) -> Data.equal d1 d2 = (b1 = b2))

let prop_rope_concat_is_flat =
  QCheck.Test.make ~name:"concat never nests Cat nodes" ~count:200
    QCheck.(list_of_size Gen.(0 -- 6) arb_data_model)
    (fun parts ->
      let d = Data.concat (List.map fst parts) in
      (* leaf_count counts leaves; a flat rope's slice walk emits
         exactly that many slices (0 for empty). *)
      let slices = ref 0 in
      Data.iter_slices d (fun _ -> incr slices);
      !slices = Data.leaf_count d
      || (Data.length d = 0 && !slices = 0))

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32_known_vector () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.string "123456789")

let test_crc32_empty () =
  Alcotest.(check int32) "empty" 0l (Crc32.string "")

let test_crc32_incremental_composes () =
  let whole = Crc32.string "hello world" in
  let part1 = Crc32.update 0l (Bytes.of_string "hello ") ~pos:0 ~len:6 in
  let combined = Crc32.update part1 (Bytes.of_string "world") ~pos:0 ~len:5 in
  Alcotest.(check int32) "streaming equals whole" whole combined

let prop_crc32_detects_flip =
  QCheck.Test.make ~name:"crc32 detects single byte flips" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 100)) small_nat)
    (fun (s, i) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s in
      let orig = Crc32.string s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x42));
      Crc32.bytes b <> orig)

(* Reference oracle: the pre-streaming [Crc32.data] walked the payload
   in 8 KB sub+to_bytes chunks.  Kept here verbatim so the slice-aware
   path is checked against the historical behaviour. *)
let legacy_crc_data d =
  let chunk = 8192 in
  let len = Data.length d in
  let crc = ref 0l in
  let pos = ref 0 in
  while !pos < len do
    let n = min chunk (len - !pos) in
    let b = Data.to_bytes (Data.sub d ~pos:!pos ~len:n) in
    crc := Crc32.update !crc b ~pos:0 ~len:n;
    pos := !pos + n
  done;
  !crc

let prop_crc32_data_matches_legacy =
  QCheck.Test.make ~name:"slice-aware Crc32.data matches chunked legacy oracle"
    ~count:300 arb_data_model (fun (d, b) ->
      let streamed = Crc32.data d in
      streamed = legacy_crc_data d && streamed = Crc32.bytes b)

let prop_crc32_combine_law =
  QCheck.Test.make ~name:"combine (crc a) (crc b) |b| = crc (a ++ b)"
    ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (string_of_size Gen.(0 -- 80)))
    (fun (a, b) ->
      Crc32.combine (Crc32.string a) (Crc32.string b) (String.length b)
      = Crc32.string (a ^ b))

let prop_crc32_combine_zero_run =
  (* Same law where B is a zero run, across the table-loop/matrix
     threshold and up into multi-megabyte runs. *)
  QCheck.Test.make ~name:"combine law holds for zero runs (update_zeros)"
    ~count:60
    QCheck.(pair (string_of_size Gen.(0 -- 40)) (int_bound 21))
    (fun (a, log_n) ->
      let n = (1 lsl log_n) + (log_n mod 3) in
      let ca = Crc32.string a in
      let via_update = Crc32.update_zeros ca n in
      let via_combine = Crc32.combine ca (Crc32.update_zeros 0l n) n in
      let reference =
        Crc32.update ca (Bytes.make n '\000') ~pos:0 ~len:n
      in
      via_update = reference && via_combine = reference)

let prop_crc32_update_synth =
  QCheck.Test.make ~name:"update_synth equals materialized synthetic crc"
    ~count:200
    QCheck.(triple (int_range 1 500) (int_bound 50) (int_bound 200))
    (fun (seed, off, len) ->
      let materialized = Bytes.create len in
      Data.synth_blit ~seed ~off materialized ~pos:0 ~len;
      Crc32.update_synth 0xDEADBEEFl ~seed ~off ~len
      = Crc32.update 0xDEADBEEFl materialized ~pos:0 ~len)

(* ------------------------------------------------------------------ *)
(* Extent_map                                                          *)
(* ------------------------------------------------------------------ *)

let read_string m ~pos ~len =
  Extent_map.read_range m ~pos ~len
  |> List.map (function
       | `Data d -> Bytes.to_string (Data.to_bytes d)
       | `Hole n -> String.make n '.')
  |> String.concat ""

let test_extent_insert_and_read () =
  let m = Extent_map.create () in
  Extent_map.insert m ~at:0 (Data.of_string "aaaa") 1;
  Extent_map.insert m ~at:8 (Data.of_string "bbbb") 2;
  Alcotest.(check string) "with hole" "aaaa....bbbb" (read_string m ~pos:0 ~len:12)

let test_extent_overwrite_splits () =
  let m = Extent_map.create () in
  Extent_map.insert m ~at:0 (Data.of_string "aaaaaaaaaa") 1;
  Extent_map.insert m ~at:3 (Data.of_string "BBBB") 2;
  Alcotest.(check string) "middle overwrite" "aaaBBBBaaa"
    (read_string m ~pos:0 ~len:10);
  Alcotest.(check int) "three segments" 3 (Extent_map.cardinal m)

let test_extent_overwrite_exact () =
  let m = Extent_map.create () in
  Extent_map.insert m ~at:0 (Data.of_string "xxxx") 1;
  Extent_map.insert m ~at:0 (Data.of_string "yyyy") 2;
  Alcotest.(check string) "replaced" "yyyy" (read_string m ~pos:0 ~len:4);
  Alcotest.(check int) "one segment" 1 (Extent_map.cardinal m)

let test_extent_overwrite_spanning () =
  let m = Extent_map.create () in
  Extent_map.insert m ~at:0 (Data.of_string "aaa") 1;
  Extent_map.insert m ~at:3 (Data.of_string "bbb") 2;
  Extent_map.insert m ~at:6 (Data.of_string "ccc") 3;
  Extent_map.insert m ~at:2 (Data.of_string "ZZZZZ") 4;
  Alcotest.(check string) "spanning overwrite" "aaZZZZZcc"
    (read_string m ~pos:0 ~len:9)

let test_extent_find () =
  let m = Extent_map.create () in
  Extent_map.insert m ~at:10 (Data.of_string "hello") 42;
  (match Extent_map.find m 12 with
  | Some seg ->
      Alcotest.(check int) "segment start" 10 seg.Extent_map.start;
      Alcotest.(check int) "tag" 42 seg.Extent_map.tag
  | None -> Alcotest.fail "expected a segment");
  Alcotest.(check bool) "miss before" true (Extent_map.find m 9 = None);
  Alcotest.(check bool) "miss after" true (Extent_map.find m 15 = None)

let test_extent_remove_range () =
  let m = Extent_map.create () in
  Extent_map.insert m ~at:0 (Data.of_string "abcdefgh") 1;
  Extent_map.remove_range m ~pos:2 ~len:4;
  Alcotest.(check string) "carved" "ab....gh" (read_string m ~pos:0 ~len:8)

let test_extent_remove_if () =
  let m = Extent_map.create () in
  Extent_map.insert m ~at:0 (Data.of_string "aa") 1;
  Extent_map.insert m ~at:2 (Data.of_string "bb") 2;
  Extent_map.insert m ~at:4 (Data.of_string "cc") 3;
  Extent_map.remove_if m (fun tag -> tag <= 2);
  Alcotest.(check string) "only tag 3 left" "....cc" (read_string m ~pos:0 ~len:6)

let test_extent_accounting () =
  let m = Extent_map.create () in
  Extent_map.insert m ~at:0 (Data.of_string "aaaa") 1;
  Extent_map.insert m ~at:2 (Data.of_string "bb") 2;
  Alcotest.(check int) "mapped bytes" 4 (Extent_map.mapped_bytes m);
  Alcotest.(check int) "end offset" 4 (Extent_map.end_offset m)

(* Model-based property: an extent map behaves like a byte array with
   last-writer-wins semantics. *)
let prop_extent_model =
  let gen =
    QCheck.(
      list_of_size
        Gen.(1 -- 30)
        (pair (int_bound 200) (int_range 1 50)))
  in
  QCheck.Test.make ~name:"extent map matches flat-array model" ~count:300 gen
    (fun writes ->
      let size = 300 in
      let model = Bytes.make size '.' in
      let m = Extent_map.create () in
      List.iteri
        (fun i (at, len) ->
          let ch = Char.chr (Char.code 'a' + (i mod 26)) in
          let content = String.make len ch in
          if at + len <= size then begin
            Bytes.blit_string content 0 model at len;
            Extent_map.insert m ~at (Data.of_string content) i
          end)
        writes;
      read_string m ~pos:0 ~len:size = Bytes.to_string model)

(* Stronger model property: random inserts, range removals and
   per-offset lookups against a naive per-byte model.  Checks both the
   content (read_range) and the ownership tags (find), i.e. that
   segment splitting never mixes up which write owns which byte. *)
let prop_extent_model_ops =
  let gen =
    QCheck.(
      list_of_size
        Gen.(1 -- 40)
        (triple bool (int_bound 200) (int_range 1 50)))
  in
  QCheck.Test.make ~name:"extent map insert/remove/find matches model"
    ~count:300 gen (fun ops ->
      let size = 300 in
      let model = Array.make size None in
      let m = Extent_map.create () in
      List.iteri
        (fun i (ins, at, len) ->
          if at + len <= size then
            if ins then begin
              let ch = Char.chr (Char.code 'a' + (i mod 26)) in
              Extent_map.insert m ~at (Data.of_string (String.make len ch)) i;
              for j = at to at + len - 1 do
                model.(j) <- Some (ch, i)
              done
            end
            else begin
              Extent_map.remove_range m ~pos:at ~len;
              for j = at to at + len - 1 do
                model.(j) <- None
              done
            end)
        ops;
      let content_ok =
        read_string m ~pos:0 ~len:size
        = String.init size (fun j ->
              match model.(j) with Some (c, _) -> c | None -> '.')
      in
      let finds_ok = ref true in
      for j = 0 to size - 1 do
        match (Extent_map.find m j, model.(j)) with
        | Some seg, Some (_, tag) ->
            if seg.Extent_map.tag <> tag then finds_ok := false
        | None, None -> ()
        | _ -> finds_ok := false
      done;
      content_ok && !finds_ok)

(* ------------------------------------------------------------------ *)
(* Oplog                                                               *)
(* ------------------------------------------------------------------ *)

let sample_ops =
  [
    Oplog.Create { parent = 1; name = "f"; inum = 2; dir = false };
    Oplog.Create { parent = 1; name = "d"; inum = 3; dir = true };
    Oplog.Write { inum = 2; offset = 0; data = Data.of_string "payload" };
    Oplog.Unlink { parent = 1; name = "f"; inum = 2 };
    Oplog.Rename
      {
        src_parent = 1;
        src_name = "d";
        dst_parent = 1;
        dst_name = "e";
        inum = 3;
      };
    Oplog.Truncate { inum = 2; size = 3 };
  ]

let test_oplog_serialize_roundtrip () =
  List.iteri
    (fun i op ->
      let e = Oplog.make ~seq:(i + 1) ~client:5 op in
      match Oplog.deserialize (Oplog.serialize e) with
      | Ok e' ->
          Alcotest.(check int) "seq" e.Oplog.seq e'.Oplog.seq;
          Alcotest.(check int) "client" 5 e'.Oplog.client;
          Alcotest.(check string) "op"
            (Format.asprintf "%a" Oplog.pp_op e.Oplog.op)
            (Format.asprintf "%a" Oplog.pp_op e'.Oplog.op)
      | Error msg -> Alcotest.failf "roundtrip failed: %s" msg)
    sample_ops

let test_oplog_crc_detects_corruption () =
  let e =
    Oplog.make ~seq:1 ~client:0
      (Oplog.Write { inum = 2; offset = 0; data = Data.of_string "secret" })
  in
  let buf = Oplog.serialize e in
  (* Flip a byte inside the payload (the tail before the trailing crc). *)
  let pos = Bytes.length buf - 6 in
  Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0xFF));
  match Oplog.deserialize buf with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption not detected"

let test_oplog_check () =
  let e =
    Oplog.make ~seq:1 ~client:0
      (Oplog.Create { parent = 1; name = "a"; inum = 9; dir = false })
  in
  Alcotest.(check bool) "fresh entry validates" true (Oplog.check e);
  let tampered = { e with Oplog.seq = 99 } in
  Alcotest.(check bool) "tampered entry fails" false (Oplog.check tampered)

let test_oplog_sizes () =
  let meta = Oplog.make ~seq:1 ~client:0
      (Oplog.Create { parent = 1; name = "a"; inum = 2; dir = false })
  in
  let data =
    Oplog.make ~seq:2 ~client:0
      (Oplog.Write { inum = 2; offset = 0; data = Data.zero ~len:4096 })
  in
  Alcotest.(check bool) "metadata entries are small" true (Oplog.size meta < 100);
  Alcotest.(check bool) "write entries carry payload" true
    (Oplog.size data > 4096);
  Alcotest.(check int) "payload size" 4096 (Oplog.payload_size data.Oplog.op);
  Alcotest.(check bool) "is_metadata" true (Oplog.is_metadata meta.Oplog.op);
  Alcotest.(check bool) "write not metadata" false
    (Oplog.is_metadata data.Oplog.op)

let test_oplog_touches () =
  Alcotest.(check (list int))
    "create touches parent+inum" [ 1; 2 ]
    (Oplog.touches (Oplog.Create { parent = 1; name = "x"; inum = 2; dir = false }));
  Alcotest.(check (list int))
    "cross-dir rename touches three" [ 4; 5; 6 ]
    (Oplog.touches
       (Oplog.Rename
          { src_parent = 4; src_name = "a"; dst_parent = 5; dst_name = "b"; inum = 6 }))

let mklog ?(capacity = 1 lsl 20) () = Oplog.Log.create ~capacity ()

let append_writes log ~client ~n ~len =
  for i = 1 to n do
    let e =
      Oplog.make ~seq:i ~client
        (Oplog.Write { inum = 2; offset = (i - 1) * len; data = Data.zero ~len })
    in
    match Oplog.Log.append log e with
    | Ok () -> ()
    | Error `Full -> Alcotest.failf "log full at %d" i
  done

let test_log_append_and_cursors () =
  let log = mklog () in
  Alcotest.(check int) "empty last" 0 (Oplog.Log.last_seq log);
  Alcotest.(check int) "empty head" 1 (Oplog.Log.head_seq log);
  append_writes log ~client:0 ~n:10 ~len:100;
  Alcotest.(check int) "last" 10 (Oplog.Log.last_seq log);
  Alcotest.(check int) "head" 1 (Oplog.Log.head_seq log)

let test_log_capacity_enforced () =
  let log = mklog ~capacity:1000 () in
  let big =
    Oplog.make ~seq:1 ~client:0
      (Oplog.Write { inum = 2; offset = 0; data = Data.zero ~len:2000 })
  in
  match Oplog.Log.append log big with
  | Error `Full -> ()
  | Ok () -> Alcotest.fail "expected `Full"

let test_log_seq_monotonic () =
  let log = mklog () in
  let e = Oplog.make ~seq:5 ~client:0 (Oplog.Truncate { inum = 2; size = 0 }) in
  match Oplog.Log.append log e with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for seq gap"

let test_log_entries_from_respects_budget () =
  let log = mklog () in
  append_writes log ~client:0 ~n:10 ~len:1000;
  let batch = Oplog.Log.entries_from log ~seq:1 ~max_bytes:3500 in
  Alcotest.(check int) "three entries fit" 3 (List.length batch);
  (* Always returns at least one entry even if it exceeds the budget. *)
  let one = Oplog.Log.entries_from log ~seq:1 ~max_bytes:10 in
  Alcotest.(check int) "at least one" 1 (List.length one)

let test_log_reclaim () =
  let log = mklog () in
  append_writes log ~client:0 ~n:10 ~len:1000;
  let used_before = Oplog.Log.used_bytes log in
  let freed = Oplog.Log.reclaim_upto log ~seq:4 in
  Alcotest.(check bool) "freed bytes" true (freed > 0);
  Alcotest.(check int) "used shrank" (used_before - freed)
    (Oplog.Log.used_bytes log);
  Alcotest.(check int) "head moved" 5 (Oplog.Log.head_seq log);
  Alcotest.(check bool) "old entry gone" true
    (Oplog.Log.find log ~seq:3 = None);
  Alcotest.(check bool) "kept entry present" true
    (Oplog.Log.find log ~seq:7 <> None)

let prop_log_reclaim_conserves_bytes =
  QCheck.Test.make ~name:"log reclaim conserves byte accounting" ~count:100
    QCheck.(pair (int_range 1 50) (int_range 0 50))
    (fun (n, k) ->
      let log = mklog () in
      append_writes log ~client:0 ~n ~len:64;
      let before = Oplog.Log.used_bytes log in
      let freed = Oplog.Log.reclaim_upto log ~seq:(min n k) in
      Oplog.Log.used_bytes log + freed = before)

(* ------------------------------------------------------------------ *)
(* Log_index                                                           *)
(* ------------------------------------------------------------------ *)

(* Metastorm's write-temp-then-rename cycle: each update writes a fresh
   inode and renames it over the old one, so no [Unlink] ever drops the
   replaced inode.  Publication trails the append by one cycle, so only
   the inode it has not reached yet may stay indexed. *)
let test_log_index_rename_churn () =
  let idx = Log_index.create () in
  let seq = ref 0 in
  let log op =
    incr seq;
    Log_index.note idx (Oplog.make ~seq:!seq ~client:0 op);
    !seq
  in
  let cycles = 1000 in
  let published = ref 0 in
  for i = 1 to cycles do
    let inum = 100 + i in
    ignore
      (log (Oplog.Create { parent = 1; name = "tmp"; inum; dir = false })
        : int);
    let w =
      log
        (Oplog.Write
           { inum; offset = 0; data = Data.synthetic ~seed:i ~len:512 })
    in
    ignore
      (log
         (Oplog.Rename
            {
              src_parent = 1;
              src_name = "tmp";
              dst_parent = 1;
              dst_name = "f";
              inum;
            })
        : int);
    Log_index.reclaim_upto idx ~seq:!published;
    if Log_index.inodes idx > 1 then
      Alcotest.failf "cycle %d: %d inodes indexed" i (Log_index.inodes idx);
    published := w
  done;
  let last = 100 + cycles in
  Alcotest.(check bool) "unpublished write covered" true
    (Log_index.covers idx ~inum:last ~pos:0 ~len:512);
  Log_index.reclaim_upto idx ~seq:!published;
  Alcotest.(check int) "no inode left" 0 (Log_index.inodes idx);
  Alcotest.(check bool) "published write not covered" false
    (Log_index.covers idx ~inum:last ~pos:0 ~len:512)

type index_step =
  | Iwrite of int * int * int (* inum, pos, len *)
  | Iunlink of int
  | Ireclaim of int (* how far the mark advances *)

let index_inodes = 4
let index_bytes = 80

let print_index_step = function
  | Iwrite (i, pos, len) -> Printf.sprintf "write %d [%d,+%d)" i pos len
  | Iunlink i -> Printf.sprintf "unlink %d" i
  | Ireclaim k -> Printf.sprintf "reclaim +%d" k

let arb_index_steps =
  let open QCheck.Gen in
  let inum = int_bound (index_inodes - 1) in
  let step =
    frequency
      [
        ( 6,
          map3
            (fun i pos len -> Iwrite (i, pos, len))
            inum (int_bound 60) (int_range 1 20) );
        (1, map (fun i -> Iunlink i) inum);
        (2, map (fun k -> Ireclaim k) (int_bound 6));
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(list print_index_step)
    ~shrink:QCheck.Shrink.list
    (list_size (1 -- 40) step)

(* Model: per inode and byte, the seq of its latest write since the
   inode's last unlink (0 for none).  A byte is in the log iff that seq
   is above the reclaim mark.  [covers] must agree on every byte and on
   the whole range after every step, and right after each reclaim the
   index must hold exactly the inodes with such a byte. *)
let prop_log_index_model =
  QCheck.Test.make ~name:"log index covers and inodes match per-byte model"
    ~count:300 arb_index_steps (fun steps ->
      let idx = Log_index.create () in
      let model = Array.init index_inodes (fun _ -> Array.make index_bytes 0) in
      let seq = ref 0 and mark = ref 0 and ok = ref true in
      let log op =
        incr seq;
        Log_index.note idx (Oplog.make ~seq:!seq ~client:0 op)
      in
      let in_log i ~pos ~len =
        let r = ref false in
        for j = pos to pos + len - 1 do
          if model.(i).(j) > !mark then r := true
        done;
        !r
      in
      let agrees i ~pos ~len =
        Log_index.covers idx ~inum:i ~pos ~len = in_log i ~pos ~len
      in
      List.iter
        (fun step ->
          (match step with
          | Iwrite (i, pos, len) ->
              let data = Data.synthetic ~seed:i ~len in
              log (Oplog.Write { inum = i; offset = pos; data });
              Array.fill model.(i) pos len !seq
          | Iunlink i ->
              log (Oplog.Unlink { parent = 1; name = "f"; inum = i });
              Array.fill model.(i) 0 index_bytes 0
          | Ireclaim k ->
              mark := min !seq (!mark + k);
              Log_index.reclaim_upto idx ~seq:!mark;
              let live = ref 0 in
              for i = 0 to index_inodes - 1 do
                if in_log i ~pos:0 ~len:index_bytes then incr live
              done;
              if Log_index.inodes idx <> !live then ok := false);
          for i = 0 to index_inodes - 1 do
            if not (agrees i ~pos:0 ~len:index_bytes) then ok := false;
            for pos = 0 to index_bytes - 1 do
              if not (agrees i ~pos ~len:1) then ok := false
            done
          done)
        steps;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fs_state                                                            *)
(* ------------------------------------------------------------------ *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Fs_state.error_to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s" (Fs_state.error_to_string expected)
  | Error e ->
      Alcotest.(check string)
        "error code"
        (Fs_state.error_to_string expected)
        (Fs_state.error_to_string e)

let create_file fs ~parent ~name =
  let inum = Fs_state.alloc_inum fs in
  ok (Fs_state.apply fs (Oplog.Create { parent; name; inum; dir = false }));
  inum

let create_dir fs ~parent ~name =
  let inum = Fs_state.alloc_inum fs in
  ok (Fs_state.apply fs (Oplog.Create { parent; name; inum; dir = true }));
  inum

let test_fs_create_and_resolve () =
  let fs = Fs_state.create () in
  let d = create_dir fs ~parent:Fs_state.root_inum ~name:"dir" in
  let f = create_file fs ~parent:d ~name:"file" in
  Alcotest.(check int) "resolve" f (ok (Fs_state.resolve fs "/dir/file"));
  expect_err Fs_state.Enoent (Fs_state.resolve fs "/dir/nope")

let test_fs_create_duplicate () =
  let fs = Fs_state.create () in
  let _ = create_file fs ~parent:Fs_state.root_inum ~name:"x" in
  let inum = Fs_state.alloc_inum fs in
  expect_err Fs_state.Eexist
    (Fs_state.apply fs
       (Oplog.Create { parent = Fs_state.root_inum; name = "x"; inum; dir = false }))

let test_fs_write_read_roundtrip () =
  let fs = Fs_state.create () in
  let f = create_file fs ~parent:Fs_state.root_inum ~name:"f" in
  ok
    (Fs_state.apply fs
       (Oplog.Write { inum = f; offset = 0; data = Data.of_string "hello" }));
  ok
    (Fs_state.apply fs
       (Oplog.Write { inum = f; offset = 5; data = Data.of_string " world" }));
  let d = ok (Fs_state.read fs ~inum:f ~pos:0 ~len:100) in
  Alcotest.(check string) "content" "hello world"
    (Bytes.to_string (Data.to_bytes d));
  Alcotest.(check int) "size" 11 (Fs_state.file_size fs f)

let test_fs_sparse_read_zeros () =
  let fs = Fs_state.create () in
  let f = create_file fs ~parent:Fs_state.root_inum ~name:"f" in
  ok
    (Fs_state.apply fs
       (Oplog.Write { inum = f; offset = 4; data = Data.of_string "data" }));
  let d = ok (Fs_state.read fs ~inum:f ~pos:0 ~len:8) in
  Alcotest.(check string) "hole reads zero" "\000\000\000\000data"
    (Bytes.to_string (Data.to_bytes d))

let test_fs_truncate () =
  let fs = Fs_state.create () in
  let f = create_file fs ~parent:Fs_state.root_inum ~name:"f" in
  ok
    (Fs_state.apply fs
       (Oplog.Write { inum = f; offset = 0; data = Data.of_string "abcdef" }));
  ok (Fs_state.apply fs (Oplog.Truncate { inum = f; size = 3 }));
  Alcotest.(check int) "size" 3 (Fs_state.file_size fs f);
  let d = ok (Fs_state.read fs ~inum:f ~pos:0 ~len:100) in
  Alcotest.(check string) "clipped" "abc" (Bytes.to_string (Data.to_bytes d))

let test_fs_unlink () =
  let fs = Fs_state.create () in
  let f = create_file fs ~parent:Fs_state.root_inum ~name:"f" in
  ok
    (Fs_state.apply fs
       (Oplog.Unlink { parent = Fs_state.root_inum; name = "f"; inum = f }));
  expect_err Fs_state.Enoent (Fs_state.resolve fs "/f");
  expect_err Fs_state.Enoent (Fs_state.stat fs f)

let test_fs_unlink_nonempty_dir () =
  let fs = Fs_state.create () in
  let d = create_dir fs ~parent:Fs_state.root_inum ~name:"d" in
  let _ = create_file fs ~parent:d ~name:"f" in
  expect_err Fs_state.Enotempty
    (Fs_state.apply fs
       (Oplog.Unlink { parent = Fs_state.root_inum; name = "d"; inum = d }))

let test_fs_rename_basic () =
  let fs = Fs_state.create () in
  let f = create_file fs ~parent:Fs_state.root_inum ~name:"old" in
  ok
    (Fs_state.apply fs
       (Oplog.Rename
          {
            src_parent = Fs_state.root_inum;
            src_name = "old";
            dst_parent = Fs_state.root_inum;
            dst_name = "new";
            inum = f;
          }));
  Alcotest.(check int) "new path" f (ok (Fs_state.resolve fs "/new"));
  expect_err Fs_state.Enoent (Fs_state.resolve fs "/old")

let test_fs_rename_overwrites_file () =
  let fs = Fs_state.create () in
  let a = create_file fs ~parent:Fs_state.root_inum ~name:"a" in
  let b = create_file fs ~parent:Fs_state.root_inum ~name:"b" in
  ok
    (Fs_state.apply fs
       (Oplog.Rename
          {
            src_parent = Fs_state.root_inum;
            src_name = "a";
            dst_parent = Fs_state.root_inum;
            dst_name = "b";
            inum = a;
          }));
  Alcotest.(check int) "b now is a" a (ok (Fs_state.resolve fs "/b"));
  expect_err Fs_state.Enoent (Fs_state.stat fs b)

let test_fs_rename_cycle_prevented () =
  (* Moving a directory into its own subtree must fail: this is exactly
     the namespace validation the NICFS validation stage performs. *)
  let fs = Fs_state.create () in
  let a = create_dir fs ~parent:Fs_state.root_inum ~name:"a" in
  let b = create_dir fs ~parent:a ~name:"b" in
  expect_err Fs_state.Ecycle
    (Fs_state.apply fs
       (Oplog.Rename
          {
            src_parent = Fs_state.root_inum;
            src_name = "a";
            dst_parent = b;
            dst_name = "evil";
            inum = a;
          }))

let test_fs_validate_does_not_mutate () =
  let fs = Fs_state.create () in
  let inum = Fs_state.alloc_inum fs in
  let op = Oplog.Create { parent = Fs_state.root_inum; name = "v"; inum; dir = false } in
  ok (Fs_state.validate fs op);
  (* validate must not have created anything *)
  expect_err Fs_state.Enoent (Fs_state.resolve fs "/v");
  ok (Fs_state.apply fs op);
  Alcotest.(check int) "apply later works" inum (ok (Fs_state.resolve fs "/v"))

let test_fs_permissions () =
  let fs = Fs_state.create () in
  let f = create_file fs ~parent:Fs_state.root_inum ~name:"f" in
  ok (Fs_state.chmod fs f ~mode:0o4);
  (* read-only *)
  expect_err Fs_state.Eacces
    (Fs_state.validate fs
       (Oplog.Write { inum = f; offset = 0; data = Data.of_string "x" }));
  Alcotest.(check bool) "readable" true (Fs_state.readable fs f);
  Alcotest.(check bool) "not writable" false (Fs_state.writable fs f);
  ok (Fs_state.chmod fs f ~mode:0o0);
  expect_err Fs_state.Eacces (Fs_state.read fs ~inum:f ~pos:0 ~len:1)

let test_fs_write_idempotent () =
  (* Re-publication after a crash must be harmless (§3.5). *)
  let fs = Fs_state.create () in
  let f = create_file fs ~parent:Fs_state.root_inum ~name:"f" in
  let w = Oplog.Write { inum = f; offset = 0; data = Data.of_string "same" } in
  ok (Fs_state.apply fs w);
  ok (Fs_state.apply fs w);
  let d = ok (Fs_state.read fs ~inum:f ~pos:0 ~len:10) in
  Alcotest.(check string) "content intact" "same"
    (Bytes.to_string (Data.to_bytes d))

let test_fs_live_inode_accounting () =
  let fs = Fs_state.create () in
  Alcotest.(check int) "just root" 1 (Fs_state.live_inodes fs);
  let f = create_file fs ~parent:Fs_state.root_inum ~name:"f" in
  Alcotest.(check int) "two" 2 (Fs_state.live_inodes fs);
  ok
    (Fs_state.apply fs
       (Oplog.Unlink { parent = Fs_state.root_inum; name = "f"; inum = f }));
  Alcotest.(check int) "back to one" 1 (Fs_state.live_inodes fs)

(* Property: applying a random sequence of valid ops keeps the namespace
   a tree (resolvable from root, no orphan cycles). *)
let prop_fs_random_ops_keep_tree =
  QCheck.Test.make ~name:"random namespace ops keep a consistent tree"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 5) (int_bound 10)))
    (fun cmds ->
      let fs = Fs_state.create () in
      let dirs = ref [ Fs_state.root_inum ] in
      let pick lst n = List.nth lst (n mod List.length lst) in
      List.iteri
        (fun i (cmd, sel) ->
          let parent = pick !dirs sel in
          let name = Printf.sprintf "n%d" i in
          match cmd with
          | 0 | 1 ->
              let inum = Fs_state.alloc_inum fs in
              (match
                 Fs_state.apply fs
                   (Oplog.Create { parent; name; inum; dir = cmd = 1 })
               with
              | Ok () when cmd = 1 -> dirs := inum :: !dirs
              | _ -> ())
          | 2 -> (
              (* unlink an arbitrary child if any *)
              match Fs_state.list_dir fs parent with
              | Ok (child :: _) -> (
                  match Fs_state.lookup fs parent child with
                  | Ok inum ->
                      (match
                         Fs_state.apply fs
                           (Oplog.Unlink { parent; name = child; inum })
                       with
                      | Ok () -> dirs := List.filter (fun d -> d <> inum) !dirs
                      | Error _ -> ())
                  | Error _ -> ())
              | _ -> ())
          | _ -> (
              (* rename a child into another directory *)
              let dst_parent = pick !dirs (sel + 1) in
              match Fs_state.list_dir fs parent with
              | Ok (child :: _) -> (
                  match Fs_state.lookup fs parent child with
                  | Ok inum ->
                      ignore
                        (Fs_state.apply fs
                           (Oplog.Rename
                              {
                                src_parent = parent;
                                src_name = child;
                                dst_parent;
                                dst_name = name ^ "r";
                                inum;
                              }))
                  | Error _ -> ())
              | _ -> ()))
        cmds;
      (* Consistency: every live directory is reachable from the root by
         walking children. *)
      let reachable = Hashtbl.create 16 in
      let rec walk inum =
        if not (Hashtbl.mem reachable inum) then begin
          Hashtbl.add reachable inum ();
          match Fs_state.list_dir fs inum with
          | Ok names ->
              List.iter
                (fun n ->
                  match Fs_state.lookup fs inum n with
                  | Ok child -> (
                      match Fs_state.stat fs child with
                      | Ok s when s.Fs_state.st_kind = Fs_state.Dir -> walk child
                      | _ -> Hashtbl.replace reachable child ())
                  | Error _ -> ())
              names
          | Error _ -> ()
        end
      in
      walk Fs_state.root_inum;
      Hashtbl.length reachable = Fs_state.live_inodes fs)

let () =
  let tc = Alcotest.test_case in
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "data",
        [
          tc "real roundtrip" `Quick test_data_real_roundtrip;
          tc "sub content" `Quick test_data_sub_content;
          tc "synthetic stable slicing" `Quick test_data_synthetic_stable_slicing;
          tc "synthetic deterministic" `Quick test_data_synthetic_deterministic;
          tc "zero" `Quick test_data_zero;
          tc "concat rejoins synth" `Quick test_data_concat_rejoins_synth;
          tc "concat mixed" `Quick test_data_concat_mixed;
          tc "sub out of bounds" `Quick test_data_sub_out_of_bounds;
          tc "fill ratio" `Quick test_data_fill_ratio;
          qt prop_data_sub_of_sub;
          qt prop_rope_matches_bytes_model;
          qt prop_rope_iter_slices_covers;
          qt prop_rope_blit_to;
          qt prop_rope_sub_matches_model;
          qt prop_rope_equal_agrees_with_model;
          qt prop_rope_concat_is_flat;
        ] );
      ( "crc32",
        [
          tc "known vector" `Quick test_crc32_known_vector;
          tc "empty" `Quick test_crc32_empty;
          tc "incremental composes" `Quick test_crc32_incremental_composes;
          qt prop_crc32_detects_flip;
          qt prop_crc32_data_matches_legacy;
          qt prop_crc32_combine_law;
          qt prop_crc32_combine_zero_run;
          qt prop_crc32_update_synth;
        ] );
      ( "extent-map",
        [
          tc "insert and read" `Quick test_extent_insert_and_read;
          tc "overwrite splits" `Quick test_extent_overwrite_splits;
          tc "overwrite exact" `Quick test_extent_overwrite_exact;
          tc "overwrite spanning" `Quick test_extent_overwrite_spanning;
          tc "find" `Quick test_extent_find;
          tc "remove range" `Quick test_extent_remove_range;
          tc "remove if" `Quick test_extent_remove_if;
          tc "accounting" `Quick test_extent_accounting;
          qt prop_extent_model;
          qt prop_extent_model_ops;
        ] );
      ( "oplog",
        [
          tc "serialize roundtrip" `Quick test_oplog_serialize_roundtrip;
          tc "crc detects corruption" `Quick test_oplog_crc_detects_corruption;
          tc "check" `Quick test_oplog_check;
          tc "sizes" `Quick test_oplog_sizes;
          tc "touches" `Quick test_oplog_touches;
          tc "log cursors" `Quick test_log_append_and_cursors;
          tc "log capacity" `Quick test_log_capacity_enforced;
          tc "log seq monotonic" `Quick test_log_seq_monotonic;
          tc "log chunking budget" `Quick test_log_entries_from_respects_budget;
          tc "log reclaim" `Quick test_log_reclaim;
          qt prop_log_reclaim_conserves_bytes;
        ] );
      ( "log-index",
        [
          tc "rename churn keeps only live inodes" `Quick
            test_log_index_rename_churn;
          qt prop_log_index_model;
        ] );
      ( "fs-state",
        [
          tc "create and resolve" `Quick test_fs_create_and_resolve;
          tc "create duplicate" `Quick test_fs_create_duplicate;
          tc "write/read roundtrip" `Quick test_fs_write_read_roundtrip;
          tc "sparse read zeros" `Quick test_fs_sparse_read_zeros;
          tc "truncate" `Quick test_fs_truncate;
          tc "unlink" `Quick test_fs_unlink;
          tc "unlink nonempty dir" `Quick test_fs_unlink_nonempty_dir;
          tc "rename basic" `Quick test_fs_rename_basic;
          tc "rename overwrites file" `Quick test_fs_rename_overwrites_file;
          tc "rename cycle prevented" `Quick test_fs_rename_cycle_prevented;
          tc "validate does not mutate" `Quick test_fs_validate_does_not_mutate;
          tc "permissions" `Quick test_fs_permissions;
          tc "write idempotent" `Quick test_fs_write_idempotent;
          tc "live inode accounting" `Quick test_fs_live_inode_accounting;
          qt prop_fs_random_ops_keep_tree;
        ] );
    ]
