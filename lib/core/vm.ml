(** Virtual memory: per-app address spaces (§3, §4.3).

    The layout matches VOS: user space starts at 0x0 (code+data, then the
    sbrk heap), the stack sits below 16 MB growing down, and mmap'd device
    regions (the framebuffer) are identity-mapped to their bus addresses for
    debugging ease. Kernel mappings use 1 MB blocks and are global; user
    mappings are 4 KB pages.

    Only the user stack is demand-paged (§3): it starts with one page and
    grows on faults. A task that faults repeatedly at the same address is
    terminated by the kernel — [record_fault] implements that policy.

    Page frames come from {!Kalloc}, so address-space size is visible in the
    memory accounting. Each space keeps the frames it was given and frees
    its own, so shrinking or destroying one costs the pages it releases,
    not a walk over every frame in the system. A refused request (sbrk,
    fork, stack growth) leaves the allocator as it was. With CLONE_VM
    (Prototype 5 threads) several tasks share one address space via
    reference counting. *)

let page_bytes = Kalloc.page_bytes
let max_stack_pages = 256 (* 1 MB of stack *)
let fb_bus_address = 0x3c10_0000
let fault_kill_threshold = 3

type mapping = { map_name : string; map_base : int }

type t = {
  asid : int;
  kalloc : Kalloc.t;
  mutable frames : int list;  (** the {!Kalloc} frames this space holds *)
  mutable code_pages : int;
  mutable brk : int;  (** heap break, bytes from heap base *)
  mutable stack_pages : int;
  mutable mappings : mapping list;
  mutable refcount : int;  (** CLONE_VM sharers *)
  faults : (int, int) Hashtbl.t;  (** addr -> consecutive fault count *)
}

let heap_pages t = (t.brk + page_bytes - 1) / page_bytes

let resident_pages t = t.code_pages + heap_pages t + t.stack_pages

let alloc_frames t n =
  match Kalloc.alloc_pages t.kalloc n with
  | Some fs ->
      t.frames <- List.rev_append fs t.frames;
      Ok ()
  | None -> Error "vm: out of memory"

let free_frames t n =
  if List.compare_length_with t.frames n < 0 then
    Kpanic.panicf "vm: as%d frees %d pages but holds %d" t.asid n
      (List.length t.frames);
  let rec release k frames =
    match frames with
    | f :: rest when k > 0 ->
        Kalloc.free_page t.kalloc f;
        release (k - 1) rest
    | _ -> frames
  in
  t.frames <- release n t.frames

let create kalloc ~code_pages =
  kalloc.Kalloc.next_asid <- kalloc.Kalloc.next_asid + 1;
  let asid = kalloc.Kalloc.next_asid in
  let t =
    {
      asid;
      kalloc;
      frames = [];
      code_pages = 0;
      brk = 0;
      stack_pages = 0;
      mappings = [];
      refcount = 1;
      faults = Hashtbl.create 8;
    }
  in
  (* demand paging (P3+): map the code and exactly one stack page *)
  match alloc_frames t (code_pages + 1) with
  | Ok () ->
      t.code_pages <- code_pages;
      t.stack_pages <- 1;
      Ok t
  | Error e -> Error e

let share t =
  t.refcount <- t.refcount + 1;
  t

(* Eager copy, the paper's fork (§6.2): every resident page is duplicated. *)
let fork_copy t =
  let pages = resident_pages t in
  match create t.kalloc ~code_pages:t.code_pages with
  | Error e -> Error e
  | Ok child -> (
      (* match heap and stack shape *)
      let extra = heap_pages t + (t.stack_pages - child.stack_pages) in
      match alloc_frames child extra with
      | Error e ->
          free_frames child (resident_pages child);
          Error e
      | Ok () ->
          child.brk <- t.brk;
          child.stack_pages <- t.stack_pages;
          child.mappings <- t.mappings;
          Ok (child, pages))

let sbrk t delta =
  let old_brk = t.brk in
  let new_brk = t.brk + delta in
  if new_brk < 0 then Error "vm: negative break"
  else begin
    let old_pages = heap_pages t in
    let new_pages = (new_brk + page_bytes - 1) / page_bytes in
    if new_pages > old_pages then
      match alloc_frames t (new_pages - old_pages) with
      | Ok () ->
          t.brk <- new_brk;
          Ok (old_brk, new_pages - old_pages)
      | Error e -> Error e
    else begin
      if new_pages < old_pages then free_frames t (old_pages - new_pages);
      t.brk <- new_brk;
      Ok (old_brk, 0)
    end
  end

(* A stack fault: grow by one page, or report why the task must die. *)
let fault_stack t ~addr =
  let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.faults addr) in
  Hashtbl.replace t.faults addr count;
  if count >= fault_kill_threshold then `Kill_repeated_fault
  else if t.stack_pages >= max_stack_pages then `Kill_stack_overflow
  else begin
    match alloc_frames t 1 with
    | Ok () ->
        t.stack_pages <- t.stack_pages + 1;
        `Grown
    | Error _ -> `Kill_oom
  end

(* The framebuffer is identity-mapped at its bus address, as §4.3
   describes. *)
let map_fb t =
  t.mappings <- { map_name = "fb"; map_base = fb_bus_address } :: t.mappings

let find_mapping t ~name =
  List.find_opt (fun m -> String.equal m.map_name name) t.mappings

let destroy t =
  t.refcount <- t.refcount - 1;
  if t.refcount = 0 then begin
    let pages = resident_pages t in
    free_frames t pages;
    t.code_pages <- 0;
    t.brk <- 0;
    t.stack_pages <- 0
  end

let refcount t = t.refcount
let asid t = t.asid
