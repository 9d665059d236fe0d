(* inum -> the inode's unpublished ranges, tagged with their log seq *)
type t = (int, int Extent_map.t) Hashtbl.t

let create () = Hashtbl.create 16

let note t (e : Oplog.entry) =
  match e.Oplog.op with
  | Oplog.Write { inum; offset; data } ->
      let m =
        match Hashtbl.find_opt t inum with
        | Some m -> m
        | None ->
            let m = Extent_map.create () in
            Hashtbl.add t inum m;
            m
      in
      Extent_map.insert m ~at:offset data e.Oplog.seq
  | Oplog.Unlink { inum; _ } -> Hashtbl.remove t inum
  | Oplog.Create _ | Oplog.Rename _ | Oplog.Truncate _ -> ()

let reclaim_upto t ~seq =
  Hashtbl.filter_map_inplace
    (fun _ m ->
      Extent_map.remove_if m (fun s -> s <= seq);
      if Extent_map.is_empty m then None else Some m)
    t

let covers t ~inum ~pos ~len =
  match Hashtbl.find_opt t inum with
  | None -> false
  | Some m ->
      List.exists
        (function `Data _ -> true | `Hole _ -> false)
        (Extent_map.read_range m ~pos ~len)

let inodes t = Hashtbl.length t
