(** File objects and per-task descriptor tables — VOS's "file abstraction"
    (Table 1), through which everything flows: files on a mounted
    filesystem (xv6fs, FAT32), device files and pipes. *)

(** Operations of a device file (/dev/...). Each callback must complete the
    syscall via [Sched.finish] (possibly after blocking), mirroring how VOS
    device drivers own their IO paths. *)
type dev_ops = {
  dev_name : string;
  dev_read : Sched.ctx -> file -> len:int -> unit;
  dev_write : Sched.ctx -> file -> Bytes.t -> unit;
  dev_mmap : (Sched.ctx -> file -> unit) option;
  dev_close : file -> unit;
  dev_poll : (Sched.ctx -> file -> bool) option;
      (** would a read return without blocking? [None] = always ready *)
}

(** A mounted filesystem. One of the mount constructors in {!Vfs} binds
    its on-disk format into these operations; nothing else knows which
    format backs a file. Paths are relative to the mount point. *)
and mount = {
  m_cache : Bufcache.t;
      (** the mount's block cache: every operation runs in
          [Bufcache.with_ctx] on it, so its device time is the caller's *)
  m_op_cycles : int;
      (** what open, read, write and fstat pay on top of the dispatch:
          FAT32's pseudo-inode (§4.5), nothing for xv6fs *)
  m_lookup : string -> (node * Abi.stat, Fs.Error.t) result;
  m_create : string -> (node * Abi.stat, Fs.Error.t) result;
      (** a new regular file *)
  m_mkdir : string -> (unit, Fs.Error.t) result;
  m_unlink : string -> (unit, Fs.Error.t) result;
  m_sync : unit -> unit;
      (** what must reach the cache before its barrier: xv6fs commits its
          journal *)
}

(** An open file or directory, its operations bound when it was opened. *)
and node = {
  n_stat : unit -> (Abi.stat, Fs.Error.t) result;
  n_size : unit -> int;
      (** for SEEK_END: the size on disk, or the last size this open file
          saw once its name is gone *)
  n_list : unit -> (string list, Fs.Error.t) result;  (** a directory's names *)
  n_read : off:int -> len:int -> (Bytes.t, Fs.Error.t) result;
  n_write : off:int -> data:Bytes.t -> (int, Fs.Error.t) result;
  n_truncate : unit -> unit;
}

and kind =
  | K_file of mount * node
  | K_dev of dev_ops
  | K_pipe_read of Pipe.t
  | K_pipe_write of Pipe.t

and file = {
  file_id : int;
  kind : kind;
  mutable off : int;
  readable : bool;
  writable : bool;
  nonblock : bool;
  mutable refs : int; [@locked_by "ftlock"]
      (** table slots referencing this record; shared across the tables of
          every process holding the file open, so counted under the
          descriptor-table discipline lock *)
  mutable dev_cookie : int;  (** per-open device state, e.g. surface id *)
}

let max_files = 32

(** Descriptor tables, keyed by pid. CLONE_VM threads share one table
    (closing an fd in one thread closes it for all), processes get copies
    with bumped refcounts. *)
type fd_table = {
  slots : file option array; [@locked_by "ftlock"]
  mutable sharers : int; [@locked_by "ftlock"]
}

(* [ftlock] is a discipline-only leaf lock (no [~kcheck], so it emits no
   trace events): slot and refcount updates happen inside
   [Spinlock.protect] windows, statically checked by vrace R101. Windows
   never enclose [drop_ref]'s close path, which can wake blocked tasks
   and re-enter the scheduler (R103 would flag that too). *)
type t = {
  sched : Sched.t;
  tables : (int, fd_table) Hashtbl.t;
  ftlock : Spinlock.t;
  mutable next_file_id : int;  (** last file id this kernel handed out *)
}

let create sched =
  {
    sched;
    tables = Hashtbl.create 32;
    ftlock = Spinlock.create ~trace:sched.Sched.trace "ftlock";
    next_file_id = 0;
  }

let make_file t ~kind ~readable ~writable ~nonblock =
  t.next_file_id <- t.next_file_id + 1;
  {
    file_id = t.next_file_id;
    kind;
    off = 0;
    readable;
    writable;
    nonblock;
    refs = 1;
    dev_cookie = -1;
  }

let table t pid =
  match Hashtbl.find_opt t.tables pid with
  | Some tbl -> tbl
  | None ->
      let tbl = { slots = Array.make max_files None; sharers = 1 } in
      Hashtbl.replace t.tables pid tbl;
      tbl

let get t ~pid ~fd =
  if fd < 0 || fd >= max_files then None else (table t pid).slots.(fd)

let alloc t ~pid file =
  let arr = (table t pid).slots in
  Spinlock.protect t.ftlock (fun () ->
      (* a plain loop, not a local rec function: vrace treats nested
         lambdas as escaping callbacks with an empty lockset, so the
         mutation must sit directly in the protect body *)
      let fd = ref 0 in
      while !fd < max_files && arr.(!fd) <> None do incr fd done;
      if !fd >= max_files then Error Errno.emfile
      else begin
        arr.(!fd) <- Some file;
        Ok !fd
      end)

let drop_ref t file =
  let remaining =
    Spinlock.protect t.ftlock (fun () ->
        file.refs <- file.refs - 1;
        file.refs)
  in
  if remaining = 0 then begin
    match file.kind with
    | K_pipe_read p -> Pipe.close_read t.sched p
    | K_pipe_write p -> Pipe.close_write t.sched p
    | K_dev ops -> ops.dev_close file
    | K_file _ -> ()
  end

let close t ~pid ~fd =
  match get t ~pid ~fd with
  | None -> Error Errno.ebadf
  | Some file ->
      let arr = (table t pid).slots in
      Spinlock.protect t.ftlock (fun () -> arr.(fd) <- None);
      drop_ref t file;
      Ok ()

(* Handle lifetime is the file record's refcount; the pipe's own
   reader/writer counts track file *records*, of which there is exactly
   one per end. Bumping both (as dup/fork once did) left a pipe whose
   reader count could never reach zero after a fork — blocked writers
   slept forever instead of seeing EPIPE. *)
let dup t ~pid ~fd =
  match get t ~pid ~fd with
  | None -> Error Errno.ebadf
  | Some file -> (
      match alloc t ~pid file with
      | Error e -> Error e
      | Ok newfd ->
          Spinlock.protect t.ftlock (fun () -> file.refs <- file.refs + 1);
          Ok newfd)

(* fork: the child inherits a copy of the parent's table with bumped
   refcounts. *)
let clone_table t ~parent ~child =
  let src = table t parent in
  let dst =
    Spinlock.protect t.ftlock (fun () ->
        Array.map
          (fun slot ->
            match slot with
            | None -> None
            | Some file ->
                file.refs <- file.refs + 1;
                Some file)
          src.slots)
  in
  Hashtbl.replace t.tables child { slots = dst; sharers = 1 }

(* clone(CLONE_VM): the thread shares the very same table. *)
let share_table t ~parent ~child =
  let tbl = table t parent in
  Spinlock.protect t.ftlock (fun () -> tbl.sharers <- tbl.sharers + 1);
  Hashtbl.replace t.tables child tbl

let close_all t ~pid =
  match Hashtbl.find_opt t.tables pid with
  | None -> ()
  | Some tbl ->
      (* clear the slots inside the window, collect the drops, and run
         them after release: closing a pipe end wakes its peers. *)
      let drops =
        Spinlock.protect t.ftlock (fun () ->
            tbl.sharers <- tbl.sharers - 1;
            if tbl.sharers > 0 then []
            else
              Array.to_list tbl.slots
              |> List.mapi (fun fd slot -> (fd, slot))
              |> List.filter_map (fun (fd, slot) ->
                     match slot with
                     | None -> None
                     | Some file ->
                         tbl.slots.(fd) <- None;
                         Some file))
      in
      List.iter (fun file -> drop_ref t file) drops;
      Hashtbl.remove t.tables pid

(* ---- kcheck support ---- *)

(* CLONE_VM threads map to the very same table, so audits must dedupe by
   physical identity or shared slots would be double-counted. *)
let distinct_tables t =
  Hashtbl.fold
    (fun _ tbl acc -> if List.memq tbl acc then acc else tbl :: acc)
    t.tables []

(* The pids holding an end of pipe [pipe_id] open: the candidate wakers
   of the opposite end's channel in the blocked-task deadlock walk. *)
let pipe_end_owners t ~pipe_id ~write =
  Hashtbl.fold
    (fun pid tbl acc ->
      let has =
        Array.exists
          (fun slot ->
            match slot with
            | None -> false
            | Some file -> (
                match file.kind with
                | K_pipe_write p -> write && p.Pipe.pipe_id = pipe_id
                | K_pipe_read p -> (not write) && p.Pipe.pipe_id = pipe_id
                | K_dev _ | K_file _ -> false))
          tbl.slots
      in
      if has then pid :: acc else acc)
    t.tables []

(* Re-derive every refcount from the table ground truth: a file record's
   [refs] must equal the slots referencing it across distinct tables, and
   a pipe's reader/writer counts must equal its live read/write file
   records — the exact invariants whose violations PR 3 debugged by hand
   (dup/fork double-counting pipe ends). *)
let audit t =
  let slot_counts : (int, file * int ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun tbl ->
      Array.iter
        (fun slot ->
          match slot with
          | None -> ()
          | Some file -> (
              match Hashtbl.find_opt slot_counts file.file_id with
              | Some (_, n) -> incr n
              | None -> Hashtbl.replace slot_counts file.file_id (file, ref 1)))
        tbl.slots)
    (distinct_tables t);
  let problems = ref [] in
  let pipes : (int, Pipe.t * int ref * int ref) Hashtbl.t = Hashtbl.create 8 in
  let pipe_entry p =
    match Hashtbl.find_opt pipes p.Pipe.pipe_id with
    | Some e -> e
    | None ->
        let e = (p, ref 0, ref 0) in
        Hashtbl.replace pipes p.Pipe.pipe_id e;
        e
  in
  Hashtbl.iter
    (fun _ (file, n) ->
      if file.refs <> !n then
        problems :=
          Printf.sprintf "file %d: refs=%d but %d table slots" file.file_id
            file.refs !n
          :: !problems;
      match file.kind with
      | K_pipe_read p ->
          let _, r, _ = pipe_entry p in
          incr r
      | K_pipe_write p ->
          let _, _, w = pipe_entry p in
          incr w
      | K_dev _ | K_file _ -> ())
    slot_counts;
  Hashtbl.iter
    (fun id (p, r, w) ->
      if p.Pipe.readers <> !r then
        problems :=
          Printf.sprintf "pipe %d: readers=%d but %d live read ends" id
            p.Pipe.readers !r
          :: !problems;
      if p.Pipe.writers <> !w then
        problems :=
          Printf.sprintf "pipe %d: writers=%d but %d live write ends" id
            p.Pipe.writers !w
          :: !problems)
    pipes;
  !problems
