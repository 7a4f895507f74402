(** Error numbers returned (negated) by syscalls, xv6-style subset. *)

let eperm = 1
let enoent = 2
let esrch = 3
let ebadf = 9
let echild = 10
let eagain = 11
let enomem = 12
let eexist = 17
let enotdir = 20
let eisdir = 21
let einval = 22
let emfile = 24
let efbig = 27
let enospc = 28
let espipe = 29
let erofs = 30
let epipe = 32
let enosys = 38
let enotempty = 39

let name = function
  | 1 -> "EPERM"
  | 2 -> "ENOENT"
  | 3 -> "ESRCH"
  | 9 -> "EBADF"
  | 10 -> "ECHILD"
  | 11 -> "EAGAIN"
  | 12 -> "ENOMEM"
  | 17 -> "EEXIST"
  | 20 -> "ENOTDIR"
  | 21 -> "EISDIR"
  | 22 -> "EINVAL"
  | 24 -> "EMFILE"
  | 27 -> "EFBIG"
  | 28 -> "ENOSPC"
  | 29 -> "ESPIPE"
  | 30 -> "EROFS"
  | 32 -> "EPIPE"
  | 38 -> "ENOSYS"
  | 39 -> "ENOTEMPTY"
  | n -> Printf.sprintf "E%d" n

(* The errno of a filesystem failure. The fs layer names the class where
   it fails; the syscall layer owns the numbers. *)
let of_fs_error : Fs.Error.t -> int = function
  | No_entry _ -> enoent
  | Exists _ -> eexist
  | Not_dir _ -> enotdir
  | Is_dir _ -> eisdir
  | Too_big _ -> efbig
  | No_space _ -> enospc
  | Not_empty _ -> enotempty
  | Invalid _ -> einval
