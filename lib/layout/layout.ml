module Errno = Capfs_core.Errno

type t = {
  l_name : string;
  block_bytes : int;
  total_blocks : int;
  alloc_inode : kind:Inode.kind -> (Inode.t, Errno.t) result;
  get_inode : int -> (Inode.t option, Errno.t) result;
  update_inode : Inode.t -> unit;
  free_inode : int -> (unit, Errno.t) result;
  read_block : Inode.t -> int -> (Capfs_disk.Data.t, Errno.t) result;
  write_blocks : (int * int * Capfs_disk.Data.t) list -> (unit, Errno.t) result;
  truncate : Inode.t -> blocks:int -> (unit, Errno.t) result;
  adopt : Inode.t -> blocks:int -> (unit, Errno.t) result;
  sync : unit -> (unit, Errno.t) result;
  free_blocks : unit -> int;
  layout_stats : unit -> (string * float) list;
}
