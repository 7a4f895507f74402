(** Filesystem failures, shared by {!Xv6fs} and {!Fat32}.

    The constructor is the errno class: the site that fails picks it, and
    the syscall layer maps it to an errno without reading the text. The
    string is the message the site builds for a person (it may name the
    path); only {!to_string} reads it. *)

type t =
  | No_entry of string  (** ENOENT *)
  | Exists of string  (** EEXIST *)
  | Not_dir of string  (** ENOTDIR *)
  | Is_dir of string  (** EISDIR *)
  | Too_big of string  (** EFBIG *)
  | No_space of string  (** ENOSPC *)
  | Not_empty of string  (** ENOTEMPTY *)
  | Invalid of string
      (** EINVAL: a bad argument or a corrupt image *)

val to_string : t -> string
(** The message, exactly as the failing site built it. *)
