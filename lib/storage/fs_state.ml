type error =
  | Enoent
  | Eexist
  | Enotdir
  | Eisdir
  | Enotempty
  | Eacces
  | Einval
  | Ecycle

let error_to_string = function
  | Enoent -> "ENOENT"
  | Eexist -> "EEXIST"
  | Enotdir -> "ENOTDIR"
  | Eisdir -> "EISDIR"
  | Enotempty -> "ENOTEMPTY"
  | Eacces -> "EACCES"
  | Einval -> "EINVAL"
  | Ecycle -> "ECYCLE"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

type kind = File | Dir

type stat = {
  st_inum : int;
  st_kind : kind;
  st_size : int;
  st_nlink : int;
  st_mode : int;
}

type inode = {
  inum : int;
  kind : kind;
  mutable size : int;
  mutable nlink : int;
  mutable mode : int;
  extents : int Extent_map.t; (* files: tag is the publishing seq *)
  children : (string, int) Hashtbl.t; (* dirs *)
  mutable parent : int; (* dirs: for cycle checks *)
}

type t = { inodes : (int, inode) Hashtbl.t; mutable next_inum : int }

let root_inum = 1
let default_mode = 0o6 (* rw *)

let new_inode ~inum ~kind ~parent =
  {
    inum;
    kind;
    size = 0;
    nlink = 1;
    mode = default_mode;
    extents = Extent_map.create ();
    children = Hashtbl.create 8;
    parent;
  }

let create () =
  let t = { inodes = Hashtbl.create 64; next_inum = root_inum + 1 } in
  Hashtbl.add t.inodes root_inum
    (new_inode ~inum:root_inum ~kind:Dir ~parent:root_inum);
  t

let alloc_inum t =
  let i = t.next_inum in
  t.next_inum <- t.next_inum + 1;
  i

let inode t inum = Hashtbl.find_opt t.inodes inum

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let get_inode t inum =
  match inode t inum with Some i -> Ok i | None -> Error Enoent

let get_dir t inum =
  let* i = get_inode t inum in
  if i.kind <> Dir then Error Enotdir else Ok i

let get_file t inum =
  let* i = get_inode t inum in
  if i.kind <> File then Error Eisdir else Ok i

(* True iff [anc] is [inum] or an ancestor of [inum]: used to refuse
   renaming a directory under its own subtree. *)
let is_ancestor t ~anc ~inum =
  let rec climb inum fuel =
    if fuel = 0 then true (* corrupt parent chain: be conservative *)
    else if inum = anc then true
    else if inum = root_inum then false
    else
      match inode t inum with
      | Some i -> climb i.parent (fuel - 1)
      | None -> false
  in
  climb inum 4096

let check_writable i = if i.mode land 0o2 = 0 then Error Eacces else Ok ()
let check_readable i = if i.mode land 0o4 = 0 then Error Eacces else Ok ()

(* Shared pre-condition checks for apply and validate. *)
let precheck t (op : Oplog.op) =
  match op with
  | Create { parent; name; inum; dir = _ } ->
      let* p = get_dir t parent in
      let* () = check_writable p in
      if name = "" || String.contains name '/' then Error Einval
      else if Hashtbl.mem p.children name then Error Eexist
      else if Hashtbl.mem t.inodes inum then Error Eexist
      else Ok ()
  | Unlink { parent; name; inum } -> (
      let* p = get_dir t parent in
      let* () = check_writable p in
      match Hashtbl.find_opt p.children name with
      | None -> Error Enoent
      | Some child_inum when child_inum <> inum -> Error Einval
      | Some child_inum ->
          let* c = get_inode t child_inum in
          if c.kind = Dir && Hashtbl.length c.children > 0 then
            Error Enotempty
          else Ok ())
  | Rename { src_parent; src_name; dst_parent; dst_name; inum } -> (
      let* sp = get_dir t src_parent in
      let* dp = get_dir t dst_parent in
      let* () = check_writable sp in
      let* () = check_writable dp in
      if dst_name = "" || String.contains dst_name '/' then Error Einval
      else
        match Hashtbl.find_opt sp.children src_name with
        | None -> Error Enoent
        | Some moved when moved <> inum -> Error Einval
        | Some moved -> (
            let* m = get_inode t moved in
            (* Directory-cycle prevention: the destination directory
               must not live inside the moved subtree. *)
            if m.kind = Dir && is_ancestor t ~anc:moved ~inum:dst_parent then
              Error Ecycle
            else
              match Hashtbl.find_opt dp.children dst_name with
              | None -> Ok ()
              | Some existing when existing = moved -> Ok ()
              | Some existing ->
                  let* e = get_inode t existing in
                  (* Overwrite target: must match kind; dirs must be
                     empty. *)
                  if e.kind <> m.kind then
                    Error (if e.kind = Dir then Eisdir else Enotdir)
                  else if e.kind = Dir && Hashtbl.length e.children > 0 then
                    Error Enotempty
                  else Ok ()))
  | Write { inum; offset; data = _ } ->
      let* f = get_file t inum in
      let* () = check_writable f in
      if offset < 0 then Error Einval else Ok ()
  | Truncate { inum; size } ->
      let* f = get_file t inum in
      let* () = check_writable f in
      if size < 0 then Error Einval else Ok ()

let validate = precheck

let drop_inode t (i : inode) =
  i.nlink <- i.nlink - 1;
  if i.nlink <= 0 then begin
    Extent_map.clear i.extents;
    Hashtbl.remove t.inodes i.inum
  end

let apply t (op : Oplog.op) =
  let* () = precheck t op in
  (match op with
  | Create { parent; name; inum; dir } ->
      let p = Hashtbl.find t.inodes parent in
      Hashtbl.add p.children name inum;
      Hashtbl.add t.inodes inum
        (new_inode ~inum ~kind:(if dir then Dir else File) ~parent);
      if inum >= t.next_inum then t.next_inum <- inum + 1
  | Unlink { parent; name; inum } ->
      let p = Hashtbl.find t.inodes parent in
      Hashtbl.remove p.children name;
      let c = Hashtbl.find t.inodes inum in
      drop_inode t c
  | Rename { src_parent; src_name; dst_parent; dst_name; inum } ->
      let sp = Hashtbl.find t.inodes src_parent in
      let dp = Hashtbl.find t.inodes dst_parent in
      Hashtbl.remove sp.children src_name;
      (match Hashtbl.find_opt dp.children dst_name with
      | Some existing when existing <> inum ->
          let e = Hashtbl.find t.inodes existing in
          Hashtbl.remove dp.children dst_name;
          drop_inode t e
      | _ -> ());
      Hashtbl.replace dp.children dst_name inum;
      let m = Hashtbl.find t.inodes inum in
      if m.kind = Dir then m.parent <- dst_parent
  | Write { inum; offset; data } ->
      let f = Hashtbl.find t.inodes inum in
      Extent_map.insert f.extents ~at:offset data 0;
      if offset + Data.length data > f.size then
        f.size <- offset + Data.length data
  | Truncate { inum; size } ->
      let f = Hashtbl.find t.inodes inum in
      if size < f.size then
        Extent_map.remove_range f.extents ~pos:size ~len:(f.size - size);
      f.size <- size);
  Ok ()

let lookup t dir name =
  let* d = get_dir t dir in
  match Hashtbl.find_opt d.children name with
  | Some i -> Ok i
  | None -> Error Enoent

let resolve t path =
  if path = "" || path.[0] <> '/' then Error Einval
  else begin
    let parts =
      List.filter (fun s -> s <> "") (String.split_on_char '/' path)
    in
    List.fold_left
      (fun acc name ->
        let* dir = acc in
        lookup t dir name)
      (Ok root_inum) parts
  end

let stat t inum =
  let* i = get_inode t inum in
  Ok
    {
      st_inum = i.inum;
      st_kind = i.kind;
      st_size = i.size;
      st_nlink = i.nlink;
      st_mode = i.mode;
    }

let read t ~inum ~pos ~len =
  let* f = get_file t inum in
  let* () = check_readable f in
  if pos < 0 || len < 0 then Error Einval
  else begin
    let len = max 0 (min len (f.size - pos)) in
    let pieces =
      List.map
        (function `Data d -> d | `Hole n -> Data.zero ~len:n)
        (Extent_map.read_range f.extents ~pos ~len)
    in
    Ok (Data.concat pieces)
  end

let file_size t inum =
  match inode t inum with Some i -> i.size | None -> 0

let extent_depth t inum =
  match inode t inum with
  | Some i -> Extent_map.depth i.extents
  | None -> 0

let list_dir t inum =
  let* d = get_dir t inum in
  Ok (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) d.children []))

let chmod t inum ~mode =
  let* i = get_inode t inum in
  i.mode <- mode;
  Ok ()

let readable t inum =
  match inode t inum with Some i -> i.mode land 0o4 <> 0 | None -> false

let writable t inum =
  match inode t inum with Some i -> i.mode land 0o2 <> 0 | None -> false

(* Deterministic summary of the reachable tree — paths, kinds, sizes
   and full file contents — for byte-exact replica comparison.  Only
   root-reachable inodes count; orphans awaiting reclamation don't
   affect what clients can observe. *)
let digest t =
  (* Streams the exact byte sequence the historical Buffer-based walk
     produced straight into the CRC register, so digests are unchanged
     while file contents (including holes) never materialize. *)
  let crc = ref 0l in
  let str s = crc := Crc32.update_string !crc s in
  let rec walk path inum =
    match inode t inum with
    | None -> ()
    | Some i -> (
        str path;
        str "|";
        str (match i.kind with Dir -> "d" | File -> "f");
        str (string_of_int i.size);
        str ";";
        match i.kind with
        | File ->
            List.iter
              (function
                | `Data d -> crc := Crc32.update_data !crc d
                | `Hole n -> crc := Crc32.update_zeros !crc n)
              (Extent_map.read_range i.extents ~pos:0 ~len:i.size)
        | Dir ->
            let names =
              List.sort compare
                (Hashtbl.fold (fun k _ acc -> k :: acc) i.children [])
            in
            List.iter
              (fun name ->
                match Hashtbl.find_opt i.children name with
                | Some child -> walk (path ^ "/" ^ name) child
                | None -> ())
              names)
  in
  walk "" root_inum;
  !crc

let live_inodes t = Hashtbl.length t.inodes

(* ---- bit-rot injection and scrub support ---------------------------- *)

let file_crc t inum =
  match inode t inum with
  | Some i when i.kind = File ->
      let crc = ref 0l in
      List.iter
        (function
          | `Data d -> crc := Crc32.update_data !crc d
          | `Hole n -> crc := Crc32.update_zeros !crc n)
        (Extent_map.read_range i.extents ~pos:0 ~len:i.size);
      Some !crc
  | _ -> None

let scrub_candidates t =
  List.sort compare
    (Hashtbl.fold
       (fun k i acc -> if i.kind = File && i.size > 0 then k :: acc else acc)
       t.inodes [])

let tamper t ~salt =
  match scrub_candidates t with
  | [] -> None
  | files ->
      let salt = abs salt in
      let inum = List.nth files (salt mod List.length files) in
      let i = Hashtbl.find t.inodes inum in
      let pos = salt / 7 mod i.size in
      let byte =
        match Extent_map.read_range i.extents ~pos ~len:1 with
        | [ `Data d ] ->
            let b = Bytes.create 1 in
            Data.blit_to d ~src_pos:0 ~dst:b ~dst_pos:0 ~len:1;
            Bytes.get b 0
        | _ -> '\000'
      in
      let flipped = Char.chr (Char.code byte lxor (1 + (salt mod 255))) in
      Extent_map.insert i.extents ~at:pos (Data.of_string (String.make 1 flipped)) 0;
      Some inum

let copy_file_content ~src ~dst inum =
  match (inode src inum, inode dst inum) with
  | Some s, Some d when s.kind = File && d.kind = File ->
      let pieces =
        List.map
          (function `Data dd -> dd | `Hole n -> Data.zero ~len:n)
          (Extent_map.read_range s.extents ~pos:0 ~len:s.size)
      in
      Extent_map.clear d.extents;
      let data = Data.concat pieces in
      if Data.length data > 0 then Extent_map.insert d.extents ~at:0 data 0;
      d.size <- s.size;
      true
  | _ -> false
