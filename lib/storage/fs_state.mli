(** Public file-system state: the "public PM area" of a node.

    Holds the inode table, directory tree and per-file extent maps.
    Log entries are {e published} into this state (by NICFS via the
    kernel worker in LineFS, by SharedFS threads in Assise); reads that
    miss the client-private log are served from it.

    The same structure doubles as the validation oracle: the NICFS
    validation stage dry-runs operations against it (permission checks,
    directory-cycle prevention) before publication. *)

type error =
  | Enoent
  | Eexist
  | Enotdir
  | Eisdir
  | Enotempty
  | Eacces
  | Einval
  | Ecycle

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

type kind = File | Dir

type stat = {
  st_inum : int;
  st_kind : kind;
  st_size : int;
  st_nlink : int;
  st_mode : int;
}

type t

val create : unit -> t
(** Fresh file system containing only the root directory. *)

val root_inum : int
(** Always 1. *)

val alloc_inum : t -> int
(** Allocate a fresh inode number (arbitration is the lease holder's
    privilege; callers model that). Never reuses a live inum. *)

val apply : t -> Oplog.op -> (unit, error) result
(** Publish one operation. Publication is idempotent for [Write] and
    [Truncate]; namespace operations return errors on re-application,
    which replayers may ignore (see §3.5: "publication is idempotent"). *)

val validate : t -> Oplog.op -> (unit, error) result
(** Dry-run check of an operation against current state: existence,
    kinds, permissions, and directory-cycle prevention for renames. *)

val lookup : t -> int -> string -> (int, error) result
(** Child inum by name in a directory. *)

val resolve : t -> string -> (int, error) result
(** Resolve an absolute slash-separated path to an inum. *)

val stat : t -> int -> (stat, error) result

val read : t -> inum:int -> pos:int -> len:int -> (Data.t, error) result
(** File content; unwritten gaps read as zeros; reads past EOF are
    truncated to the file size ([Data.length] of the result tells the
    caller how much was read). *)

val file_size : t -> int -> int
(** 0 for unknown inodes. *)

val extent_depth : t -> int -> int
(** Extent-tree depth of a file (drives modelled index traversal cost);
    0 when unknown. *)

val list_dir : t -> int -> (string list, error) result

val chmod : t -> int -> mode:int -> (unit, error) result

val readable : t -> int -> bool
val writable : t -> int -> bool

val digest : t -> int32
(** Deterministic checksum of the root-reachable tree: every path,
    inode kind, file size and full file content.  Two states with equal
    digests present byte-identical file systems to clients — the
    replica-convergence check of the DST harness. *)

val live_inodes : t -> int
(** Number of live inodes (root included). *)

val file_crc : t -> int -> int32 option
(** CRC32 of a file's full content (holes read as zeros), streaming
    slices without materializing the file.  [None] for directories and
    unknown inodes.  Scrub compares this per inode against the chain
    source to detect bit-rot in persisted extents. *)

val scrub_candidates : t -> int list
(** Sorted inums of non-empty files — the extents a scrub walks and
    the population bit-rot injection draws from. *)

val tamper : t -> salt:int -> int option
(** Fault injection: flip one byte of one file's persisted extents,
    chosen deterministically from [salt].  Returns the damaged inum,
    or [None] when no non-empty file exists.  The damage is exactly
    what {!file_crc} comparison against a healthy replica detects. *)

val copy_file_content : src:t -> dst:t -> int -> bool
(** Scrub repair: replace [dst]'s extents for one file with [src]'s
    content (both must know the inum as a file).  Models the re-fetch
    of a corrupt inode from the next chain replica. *)
