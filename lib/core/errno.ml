(** Error numbers returned (negated) by syscalls, xv6-style subset. *)

let eperm = 1
let enoent = 2
let esrch = 3
let ebadf = 9
let echild = 10
let eagain = 11
let enomem = 12
let efault = 14
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
  | 14 -> "EFAULT"
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

(* Map filesystem error strings to errnos; the fs layer reports strings,
   the syscall layer owns the ABI. An address "out of range" is a bad
   argument or a corrupt image, not a full disk. *)
let of_fs_error msg =
  let has sub =
    let n = String.length sub and m = String.length msg in
    let rec at i = i + n <= m && (String.equal (String.sub msg i n) sub || at (i + 1)) in
    at 0
  in
  if has "not found" || has "no such" then enoent
  else if has "exists" then eexist
  else if has "not a directory" then enotdir
  else if has "is a directory" then eisdir
  else if has "too large" then efbig
  else if has "out of range" then einval
  else if has "out of" || has "no free" then enospc
  else if has "not empty" then enotempty
  else einval
