type t =
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | ELOOP
  | EBADF
  | ESTALE
  | ENOSPC
  | EIO
  | ETIMEDOUT
  | EINVAL
  | EAGAIN
  | EXDEV

let all =
  [|
    ENOENT; EEXIST; ENOTDIR; EISDIR; ENOTEMPTY; ELOOP; EBADF; ESTALE; ENOSPC;
    EIO; ETIMEDOUT; EINVAL; EAGAIN; EXDEV;
  |]

let to_index = function
  | ENOENT -> 0
  | EEXIST -> 1
  | ENOTDIR -> 2
  | EISDIR -> 3
  | ENOTEMPTY -> 4
  | ELOOP -> 5
  | EBADF -> 6
  | ESTALE -> 7
  | ENOSPC -> 8
  | EIO -> 9
  | ETIMEDOUT -> 10
  | EINVAL -> 11
  | EAGAIN -> 12
  | EXDEV -> 13

let to_string = function
  | ENOENT -> "enoent"
  | EEXIST -> "eexist"
  | ENOTDIR -> "enotdir"
  | EISDIR -> "eisdir"
  | ENOTEMPTY -> "enotempty"
  | ELOOP -> "eloop"
  | EBADF -> "ebadf"
  | ESTALE -> "estale"
  | ENOSPC -> "enospc"
  | EIO -> "eio"
  | ETIMEDOUT -> "etimedout"
  | EINVAL -> "einval"
  | EAGAIN -> "eagain"
  | EXDEV -> "exdev"

(* Linux's ESTALE; Unix.error has no portable constructor for it *)
let estale_code = 116

let to_unix = function
  | ENOENT -> Unix.ENOENT
  | EEXIST -> Unix.EEXIST
  | ENOTDIR -> Unix.ENOTDIR
  | EISDIR -> Unix.EISDIR
  | ENOTEMPTY -> Unix.ENOTEMPTY
  | ELOOP -> Unix.ELOOP
  | EBADF -> Unix.EBADF
  | ESTALE -> Unix.EUNKNOWNERR estale_code
  | ENOSPC -> Unix.ENOSPC
  | EIO -> Unix.EIO
  | ETIMEDOUT -> Unix.ETIMEDOUT
  | EINVAL -> Unix.EINVAL
  | EAGAIN -> Unix.EAGAIN
  | EXDEV -> Unix.EXDEV

let of_unix = function
  | Unix.ENOENT -> ENOENT
  | Unix.EEXIST -> EEXIST
  | Unix.ENOTDIR -> ENOTDIR
  | Unix.EISDIR -> EISDIR
  | Unix.ENOTEMPTY -> ENOTEMPTY
  | Unix.ELOOP -> ELOOP
  | Unix.EBADF -> EBADF
  | Unix.EUNKNOWNERR n when n = estale_code -> ESTALE
  | Unix.ENOSPC -> ENOSPC
  | Unix.EIO -> EIO
  | Unix.ETIMEDOUT -> ETIMEDOUT
  | Unix.EINVAL -> EINVAL
  | Unix.EAGAIN | Unix.EWOULDBLOCK -> EAGAIN
  | Unix.EXDEV -> EXDEV
  | _ -> EIO

exception Error of t

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Capfs_core.Errno.Error " ^ to_string e)
    | _ -> None)

let catch f = try Ok (f ()) with Error e -> Result.Error e
let ok_exn = function Ok v -> v | Result.Error e -> raise (Error e)
let pp ppf t = Format.pp_print_string ppf (to_string t)
