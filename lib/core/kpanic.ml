(** The kernel's one sanctioned way to die.

    Kernel paths must return [Errno] values to userspace; conditions that
    cannot be surfaced that way (corrupted invariants, impossible states,
    boot-time misconfiguration) raise {!Panic} through this module instead
    of [invalid_arg]/[failwith] — vlint's no-raise rule bans those
    elsewhere in [lib/core], so every kernel death funnels through here
    and is greppable, catchable and testable as one exception type.

    The flight recorder ({!Panic.flight_record}) belongs to the kernel
    that panicked, not to this module: {!Sched} runs it where the panic
    leaves kernel code. *)

exception Panic of string

let panicf fmt = Printf.ksprintf (fun msg -> raise (Panic msg)) fmt
