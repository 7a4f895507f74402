(** The OS feature lattice — the rows of Table 1.

    Inverse engineering decomposes the full OS into features and maps each
    app to the minimal set it needs; a prototype is then a feature subset
    chosen to enable a target app set. This module is that decomposition,
    machine-checkable: {!Matrix} validates that every prototype satisfies
    its apps and that prototypes are monotone. *)

type t =
  (* user library *)
  | Lib_minimal  (** malloc, syscall stubs, strings (P3) *)
  | Lib_wrappers  (** proc/devfs wrappers (P4) *)
  | Lib_full  (** newlib-class libc + minisdl (P5) *)
  (* kernel core *)
  | Debug_msg
  | Timekeeping
  | Interrupts
  | Multitasking
  | Page_allocator  (** P2–3's page-based allocation *)
  | Kmalloc  (** P4+ *)
  | Privileges  (** EL0/EL1 split *)
  | Virtual_memory
  | Syscalls_tasks
  | Syscalls_files
  | Syscalls_threads
  | Multicore
  | Window_manager
  (* files *)
  | File_abstraction
  | Dev_proc_fs
  | Ramdisk
  | Xv6_filesystem
  | Fat32
  (* IO *)
  | Uart_tx  (** polling TX (P1) *)
  | Uart_rx_irq  (** interrupt RX (P2+) *)
  | Hw_timers
  | Framebuffer_io
  | Usb_keyboard
  | Sound_pwm
  | Sd_card

let all =
  [
    Lib_minimal; Lib_wrappers; Lib_full; Debug_msg; Timekeeping; Interrupts;
    Multitasking; Page_allocator; Kmalloc; Privileges; Virtual_memory;
    Syscalls_tasks; Syscalls_files; Syscalls_threads; Multicore;
    Window_manager; File_abstraction; Dev_proc_fs; Ramdisk; Xv6_filesystem;
    Fat32; Uart_tx; Uart_rx_irq; Hw_timers; Framebuffer_io; Usb_keyboard;
    Sound_pwm; Sd_card;
  ]

let name = function
  | Lib_minimal -> "userlib: malloc,syscalls,strings"
  | Lib_wrappers -> "userlib: proc/devfs wrappers"
  | Lib_full -> "userlib: libc, minisdl & more"
  | Debug_msg -> "debug msg"
  | Timekeeping -> "timer, timekeeping"
  | Interrupts -> "irq"
  | Multitasking -> "multitasking"
  | Page_allocator -> "memory allocator (pages)"
  | Kmalloc -> "memory allocator (kmalloc)"
  | Privileges -> "privileges (EL0/1)"
  | Virtual_memory -> "virtual memory"
  | Syscalls_tasks -> "syscalls: tasks & time"
  | Syscalls_files -> "syscalls: files"
  | Syscalls_threads -> "syscalls: threading"
  | Multicore -> "multicore"
  | Window_manager -> "window manager"
  | File_abstraction -> "file abstraction"
  | Dev_proc_fs -> "procfs/devfs"
  | Ramdisk -> "ramdisk"
  | Xv6_filesystem -> "xv6 filesystem"
  | Fat32 -> "FAT32"
  | Uart_tx -> "UART (tx)"
  | Uart_rx_irq -> "UART (irq rx)"
  | Hw_timers -> "timers (sys,generic)"
  | Framebuffer_io -> "framebuffer"
  | Usb_keyboard -> "USB keyboard"
  | Sound_pwm -> "sound (PWM)"
  | Sd_card -> "SD card"

(* Internal feature dependencies: a prototype including [f] must include
   everything [needs f] lists. *)
let needs = function
  | Multitasking -> [ Interrupts; Timekeeping ]
  | Privileges -> [ Multitasking ]
  | Virtual_memory -> [ Privileges; Page_allocator ]
  | Syscalls_tasks -> [ Privileges; Virtual_memory ]
  | Syscalls_files -> [ Syscalls_tasks; File_abstraction ]
  | Syscalls_threads -> [ Syscalls_tasks ]
  | File_abstraction -> [ Kmalloc ]
  | Xv6_filesystem -> [ Ramdisk; File_abstraction ]
  | Fat32 -> [ Sd_card; File_abstraction ]
  | Dev_proc_fs -> [ File_abstraction ]
  | Window_manager -> [ Multicore; Framebuffer_io; Dev_proc_fs ]
  | Multicore -> [ Multitasking ]
  | Usb_keyboard -> [ Interrupts; Timekeeping ]
  | Sound_pwm -> [ Interrupts ]
  | Uart_rx_irq -> [ Interrupts ]
  | Lib_wrappers -> [ Lib_minimal; Dev_proc_fs ]
  | Lib_full -> [ Lib_wrappers; Syscalls_threads ]
  | Lib_minimal -> [ Syscalls_tasks ]
  | Kmalloc -> [ Page_allocator ]
  | Debug_msg -> [ Uart_tx ]
  | Timekeeping -> [ Hw_timers; Interrupts ]
  | Interrupts | Page_allocator | Ramdisk | Uart_tx | Hw_timers
  | Framebuffer_io | Sd_card ->
      []

(* Transitive closure of [needs] over a feature set. *)
let close features =
  let module S = Set.Make (struct
    type nonrec t = t

    let compare = compare
  end) in
  let rec fix set =
    let bigger =
      S.fold (fun f acc -> List.fold_left (fun a n -> S.add n a) acc (needs f)) set set
    in
    if S.cardinal bigger = S.cardinal set then set else fix bigger
  in
  S.elements (fix (S.of_list features))
