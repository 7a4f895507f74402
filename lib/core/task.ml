(** Tasks: processes, user threads (CLONE_VM) and kernel threads.

    The continuation machinery lives in {!Sched}; a task here is the kernel
    object — identity, state, address space, file table, tree links, and
    accounting. [resume] is "how to give this task the CPU": a thunk that
    either continues a captured effect continuation or re-arms the remainder
    of a preempted burn. *)

type kind = User | Kernel

(** A wait channel, xv6's [sleep(chan)] identity; {!chan_name} renders it.
    vlint R004 tells matches apart by constructor name, so none of these
    is also an {!Abi.syscall} or {!Ktrace.event} constructor. *)
type chan =
  | Pipe_readable of int  (** pipe id: readers wait for data or EOF *)
  | Pipe_writable of int  (** pipe id: writers wait for space *)
  | Sem_count of int  (** semaphore id *)
  | Exit_of of int  (** join: the pid exiting *)
  | Children_of of int  (** wait(2): any child of the pid exiting *)
  | Debug_stop of int  (** the pid, parked by the debug monitor *)
  | Wm_events of int  (** WM surface id: an event routed to it *)
  | Kbd_events
  | Uart_input
  | Audio_space
  | Poll_waiters  (** every poll(2) caller, see {!Sched.poll_wake} *)
  | Sleeping  (** a timed park (sleep, timed I/O): a timer wakes it *)

let chan_name = function
  | Pipe_readable id -> Printf.sprintf "pipe:%d:r" id
  | Pipe_writable id -> Printf.sprintf "pipe:%d:w" id
  | Sem_count id -> Printf.sprintf "sem:%d" id
  | Exit_of pid -> Printf.sprintf "exit:%d" pid
  | Children_of pid -> Printf.sprintf "children:%d" pid
  | Debug_stop pid -> Printf.sprintf "debug:%d" pid
  | Wm_events sid -> Printf.sprintf "wm:ev:%d" sid
  | Kbd_events -> "kbd:events"
  | Uart_input -> "uart:rx"
  | Audio_space -> "audio:space"
  | Poll_waiters -> "poll:waiters"
  | Sleeping -> "sleep"

type state =
  | Runnable
  | Running of int  (** core id *)
  | Blocked of chan
  | Zombie  (** exited, not yet reaped *)

type t = {
  pid : int;
  mutable name : string;
  kind : kind;
  mutable state : state; [@locked_by "ptable"]
      (** the xv6 ptable discipline: block/wake transitions happen inside
          the ptable window (vrace R101 checks this statically); the
          scheduler's own pick/exit transitions are lock-free on the
          simulation thread and individually grandfathered in
          tools/vrace/allow.txt *)
  mutable vm : Vm.t option;  (** kernel tasks have none *)
  mutable resume : (unit -> unit) option; [@locked_by "ptable"]
  mutable parent : int;  (** pid; 0 = orphan/init *)
  mutable children : int list;
  mutable exit_code : int;
  mutable killed : bool;
  mutable cwd : string;
  (* scheduling *)
  mutable nice : int;  (** -20 (greedy) .. 19 (meek); scales the quantum *)
  mutable last_core : int;  (** core the task last ran on; -1 = never ran *)
  mutable mlfq_level : int;  (** current MLFQ level, 0 = highest priority *)
  mutable runnable_since : int64;
      (** when the task last became runnable; -1 = not waiting. Feeds the
          run-delay histogram. *)
  (* delay accounting: cumulative ns this task has
     spent in each scheduler state, maintained at every [state]
     transition in sched.ml. The open segment (state entered at
     [d_state_since], not yet left) is folded in at render time so the
     six buckets always sum to lifetime exactly. Host-side only. *)
  mutable d_spawned_ns : int64;  (** when the task was created *)
  mutable d_state_since : int64;  (** when the current state was entered *)
  mutable d_oncpu_ns : int64;
  mutable d_runnable_ns : int64;
  mutable d_sleep_ns : int64;  (** voluntary sleep + misc waits *)
  mutable d_blk_io_ns : int64;  (** blocked on device I/O channels *)
  mutable d_blk_lock_ns : int64;  (** blocked on semaphores *)
  mutable d_blk_pipe_ns : int64;  (** blocked on pipe read/write space *)
  (* accounting *)
  mutable cpu_ns : int64;
  mutable quantum_left : int;  (** scheduler ticks until preemption *)
  mutable syscall_count : int;
  mutable cur_syscall : string option;
      (** syscall being serviced right now; the sampling profiler reads
          it at tick time to attribute the sample *)
  mutable shadow_stack : string list;  (** unwinder's view of the call stack *)
  mutable wm_surface : int option;  (** surface id when drawing via the WM *)
}
(* The per-task file table lives in {!Fd}, keyed by pid, to avoid a
   dependency cycle between the task structure and the VFS. *)

let default_quantum = 10 (* ticks *)

let create ~pid ~name ~kind ?vm ~parent () =
  {
    pid;
    name;
    kind;
    state = Runnable;
    vm;
    resume = None;
    parent;
    children = [];
    exit_code = 0;
    killed = false;
    cwd = "/";
    nice = 0;
    last_core = -1;
    mlfq_level = 0;
    runnable_since = -1L;
    d_spawned_ns = 0L;
    d_state_since = 0L;
    d_oncpu_ns = 0L;
    d_runnable_ns = 0L;
    d_sleep_ns = 0L;
    d_blk_io_ns = 0L;
    d_blk_lock_ns = 0L;
    d_blk_pipe_ns = 0L;
    cpu_ns = 0L;
    quantum_left = default_quantum;
    syscall_count = 0;
    cur_syscall = None;
    shadow_stack = [];
    wm_surface = None;
  }

let state_name t =
  match t.state with
  | Runnable -> "runnable"
  | Running c -> Printf.sprintf "running/cpu%d" c
  | Blocked chan -> "blocked:" ^ chan_name chan
  | Zombie -> "zombie"
