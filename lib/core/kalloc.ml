(** Physical page allocator and kmalloc.

    Prototypes 2–3 use page-granular allocation only; Prototype 4 adds
    kmalloc for sub-page kernel objects (Table 1, "memory allocator"). The
    accounting here backs /proc/meminfo and the paper's §6.3 claim that
    VOS runs its apps in 21–42 MB of a 1 GB Pi3.

    Frames are bookkeeping only — the simulation has no byte-addressable
    physical memory — but exhaustion, double-free and leak detection are
    real. A request costs time in the pages it moves: [alloc_pages]
    refuses a request larger than the free pages before it touches any
    state, so a refusal has no side effects (free list, frame table and
    peak are as they were). Frames carry no owner; each {!Vm} address
    space keeps the frames it was given and frees its own. *)

let page_bytes = 4096

type t = {
  total_pages : int;
  mutable free_pages : int;
  mutable next_frame : int;
  free_list : int Stack.t;
  allocated : (int, unit) Hashtbl.t;  (** the frames handed out *)
  mutable kmalloc_bytes : int;
  mutable kmalloc_live : int;
  mutable peak_pages : int;
  mutable next_asid : int;
      (** last address-space id handed out by {!Vm.create}; the stream is
          per allocator *)
}

let create ~dram_bytes ~kernel_reserved_bytes =
  let total = (dram_bytes - kernel_reserved_bytes) / page_bytes in
  {
    total_pages = total;
    free_pages = total;
    next_frame = 0;
    free_list = Stack.create ();
    allocated = Hashtbl.create 1024;
    kmalloc_bytes = 0;
    kmalloc_live = 0;
    peak_pages = 0;
    next_asid = 0;
  }

(* Hand out one frame; the caller has checked that one is free. *)
let take t =
  let frame =
    if Stack.is_empty t.free_list then begin
      let f = t.next_frame in
      t.next_frame <- f + 1;
      f
    end
    else Stack.pop t.free_list
  in
  t.free_pages <- t.free_pages - 1;
  Hashtbl.replace t.allocated frame ();
  let used = t.total_pages - t.free_pages in
  if used > t.peak_pages then t.peak_pages <- used;
  frame

let alloc_page t = if t.free_pages = 0 then None else Some (take t)

(* All [n] frames or none, in no particular order. *)
let alloc_pages t n =
  if n > t.free_pages then None
  else
    let rec go acc k = if k = 0 then acc else go (take t :: acc) (k - 1) in
    Some (go [] n)

let free_page t frame =
  if not (Hashtbl.mem t.allocated frame) then
    Kpanic.panicf "kalloc: double free of frame %d" frame;
  Hashtbl.remove t.allocated frame;
  Stack.push frame t.free_list;
  t.free_pages <- t.free_pages + 1

let used_pages t = t.total_pages - t.free_pages
let free_pages t = t.free_pages
let total_pages t = t.total_pages
let used_bytes t = used_pages t * page_bytes
let peak_bytes t = t.peak_pages * page_bytes

(* kmalloc draws from pages but tracks byte-granular live objects. *)
let kmalloc t ~bytes =
  assert (bytes > 0);
  t.kmalloc_bytes <- t.kmalloc_bytes + bytes;
  t.kmalloc_live <- t.kmalloc_live + 1

let kfree t ~bytes =
  if t.kmalloc_live = 0 then Kpanic.panicf "kalloc: kfree with no live objects";
  t.kmalloc_bytes <- t.kmalloc_bytes - bytes;
  t.kmalloc_live <- t.kmalloc_live - 1

let kmalloc_bytes t = t.kmalloc_bytes
let kmalloc_live t = t.kmalloc_live
