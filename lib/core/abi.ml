(** The user/kernel ABI: VOS's syscalls and the trap mechanism.

    In the real VOS, user code at EL0 executes [svc #0] and the kernel
    resumes it after the trap. Here the trap boundary is an OCaml effect:
    user code [perform]s {!Sys}, the kernel captures the one-shot
    continuation, runs the syscall path (charging simulated time), and
    resumes — or parks — the continuation. {!Burn} is how user code accounts
    for its own CPU work (every pixel pushed, hash computed, or sample
    decoded costs cycles), and is also the kernel's preemption point.

    The paper's 28 syscalls, in its three categories (§3), plus [fsync] —
    added alongside the write-back buffer cache, since deferred writes
    make durability an explicit request — [nice], added with the MLFQ
    scheduling class so a task can declare its own weight — and [poll]
    (number 31), added with the IPC rebuild so event-driven apps can
    multiplex pipes, /dev/events and the console instead of spinning on
    O_NONBLOCK reads:
    - tasks & time: fork exec exit wait kill getpid sleep uptime nice sbrk
      cacheflush
    - files: open close read write lseek dup pipe fstat mkdir unlink chdir
      mmap fsync poll
    - threading & sync: clone join sem_open sem_post sem_wait sem_close

    One concession to the host language: [fork] and [clone] carry the
    child's body as a closure, because OCaml's one-shot continuations cannot
    be duplicated the way a page table can. The kernel still performs (and
    charges for) the full address-space copy; only the "return twice"
    idiom is replaced by an explicit child entry point. *)

(* open() flags, numerically compatible with xv6's fcntl.h *)
let o_rdonly = 0x000
let o_wronly = 0x001
let o_rdwr = 0x002
let o_create = 0x200
let o_trunc = 0x400
let o_nonblock = 0x800

(* lseek whence *)
let seek_set = 0
let seek_cur = 1
let seek_end = 2

type ftype_tag = T_dir | T_file | T_dev

type stat = {
  stat_type : ftype_tag;
  stat_size : int;
  stat_nlink : int;
  stat_ino : int;
}

(** What a syscall returns to userspace. Plain integers cover most calls
    (negative = -errno, as in the C ABI); the data-bearing calls have their
    own arms rather than copying through user pointers. *)
type ret =
  | R_int of int
  | R_bytes of Bytes.t  (** read *)
  | R_pair of int * int  (** pipe *)
  | R_stat of stat  (** fstat *)
  | R_mmap of int * int * int  (** mmap: address, width, height *)

type syscall =
  (* tasks & time *)
  | Fork of (unit -> int)  (** child body; see note above *)
  | Exec of string * string list
  | Exit of int
  | Wait
  | Kill of int
  | Getpid
  | Sleep of int  (** milliseconds *)
  | Uptime
  | Nice of int  (** adjust own scheduling weight, -20..19; returns it *)
  | Sbrk of int  (** bytes, may be negative *)
  | Cacheflush  (** clean the framebuffer range (§4.3) *)
  (* files *)
  | Open of string * int
  | Close of int
  | Read of int * int  (** fd, length *)
  | Write of int * Bytes.t
  | Lseek of int * int * int  (** fd, offset, whence *)
  | Dup of int
  | Pipe of int  (** flags: O_NONBLOCK applies to both ends *)
  | Fstat of int
  | Mkdir of string
  | Unlink of string
  | Chdir of string
  | Mmap of int  (** fd; only /dev/fb supports it *)
  | Fsync of int  (** fd; flush the backing cache's dirty blocks *)
  | Poll of int list * int
      (** fds, timeout in ms (negative = forever, 0 = just probe);
          returns a readiness bitmask, bit i set when the i-th fd would
          not block (data/EOF on read ends, space on pipe write ends) *)
  (* threading & sync *)
  | Clone of (unit -> int)  (** CLONE_VM thread body *)
  | Join of int
  | Sem_open of int  (** initial value; returns sem id *)
  | Sem_post of int
  | Sem_wait of int
  | Sem_close of int

let syscall_count = 31

let syscall_names =
  [
    "fork"; "exec"; "exit"; "wait"; "kill"; "getpid"; "sleep"; "uptime";
    "nice"; "sbrk"; "cacheflush"; "open"; "close"; "read"; "write";
    "lseek"; "dup"; "pipe"; "fstat"; "mkdir"; "unlink"; "chdir"; "mmap";
    "fsync"; "poll"; "clone"; "join"; "sem_open"; "sem_post"; "sem_wait";
    "sem_close";
  ]

(* Stable dense numbering for the syscall ctors, in declaration order:
   the position of each one's name in [syscall_names]. Vprobe keys its
   per-syscall probe points off these indices. *)
let syscall_index = function
  | Fork _ -> 0
  | Exec _ -> 1
  | Exit _ -> 2
  | Wait -> 3
  | Kill _ -> 4
  | Getpid -> 5
  | Sleep _ -> 6
  | Uptime -> 7
  | Nice _ -> 8
  | Sbrk _ -> 9
  | Cacheflush -> 10
  | Open _ -> 11
  | Close _ -> 12
  | Read _ -> 13
  | Write _ -> 14
  | Lseek _ -> 15
  | Dup _ -> 16
  | Pipe _ -> 17
  | Fstat _ -> 18
  | Mkdir _ -> 19
  | Unlink _ -> 20
  | Chdir _ -> 21
  | Mmap _ -> 22
  | Fsync _ -> 23
  | Poll _ -> 24
  | Clone _ -> 25
  | Join _ -> 26
  | Sem_open _ -> 27
  | Sem_post _ -> 28
  | Sem_wait _ -> 29
  | Sem_close _ -> 30

let syscall_name =
  let names = Array.of_list syscall_names in
  fun call -> names.(syscall_index call)

(* The first user-visible argument of a syscall, as an integer, for
   vprobe's [arg0] predicate: the fd for file calls, the pid/tid for
   task calls, the count/value otherwise; 0 where no integer argument
   exists (fork, exec, wait, ...). *)
let syscall_arg0 = function
  | Fork _ | Exec _ | Wait | Getpid | Uptime | Cacheflush | Clone _ -> 0
  | Exit code -> code
  | Kill pid -> pid
  | Sleep ms -> ms
  | Nice n -> n
  | Sbrk n -> n
  | Open (_, flags) -> flags
  | Close fd
  | Read (fd, _)
  | Write (fd, _)
  | Lseek (fd, _, _)
  | Dup fd
  | Fstat fd
  | Mmap fd
  | Fsync fd ->
      fd
  | Pipe flags -> flags
  | Mkdir _ | Unlink _ | Chdir _ -> 0
  | Poll (fds, _) -> List.length fds
  | Join tid -> tid
  | Sem_open v -> v
  | Sem_post id | Sem_wait id | Sem_close id -> id

(* The fd a syscall operates on, when it has one, for vprobe's [fd]
   predicate. *)
let syscall_fd = function
  | Close fd
  | Read (fd, _)
  | Write (fd, _)
  | Lseek (fd, _, _)
  | Dup fd
  | Fstat fd
  | Mmap fd
  | Fsync fd ->
      Some fd
  | Fork _ | Exec _ | Exit _ | Wait | Kill _ | Getpid | Sleep _ | Uptime
  | Nice _ | Sbrk _ | Cacheflush | Open _ | Pipe _ | Mkdir _ | Unlink _
  | Chdir _ | Poll _ | Clone _ | Join _ | Sem_open _ | Sem_post _
  | Sem_wait _ | Sem_close _ ->
      None

type _ Effect.t +=
  | Sys : syscall -> ret Effect.t
        (** the trap: user → kernel *)
  | Burn : int -> unit Effect.t
        (** consume N CPU cycles of user work; preemptible *)
  | Offload : int * (unit -> 'r) -> 'r Effect.t
        (** [Offload (cycles, fn)] burns [cycles] like {!Burn} while the
            host runs [fn] — a pure function of its captures, forbidden
            from touching kernel or simulation state — as a Par event
            ({!Sim.Engine.schedule_par}). At [sim_domains] = 1 [fn] runs
            inline when the burn ends; above that it is one task of a
            batch on the process-wide domain pool. The result is
            delivered when the burn completes. *)
  | Frame_mark : string -> unit Effect.t
        (** shadow-stack push/pop for the unwinder; "" pops *)
