(** A client's index of unpublished writes: for each inode, which byte
    ranges still live only in the client's private operation log
    (§3.3).  Reads consult it to choose between the log and public PM;
    publication (or digestion) reclaims the prefix it made public.

    Only inodes that still hold an unpublished byte stay in the index:
    a reclaim drops every inode it empties, so its cost follows the
    live inodes, not every inode the client ever wrote. *)

type t

val create : unit -> t

val note : t -> Oplog.entry -> unit
(** Record a logged entry: a [Write] maps its range to the entry's
    sequence number (later writes win), an [Unlink] forgets the inode,
    other operations leave the index alone. *)

val reclaim_upto : t -> seq:int -> unit
(** Forget every write with sequence number [<= seq], and every inode
    left with none. *)

val covers : t -> inum:int -> pos:int -> len:int -> bool
(** Whether some byte of [\[pos, pos + len)] in the inode is still
    unpublished. *)

val inodes : t -> int
(** Inodes currently indexed. *)
