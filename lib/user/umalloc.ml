(** User-space malloc over sbrk — a real first-fit free-list allocator in
    the style of the K&R malloc that newlib and xv6's umalloc use.

    The heap is the process's sbrk arena; headers and payloads are
    accounted in simulated bytes. Since user memory has no byte store in
    the simulation, the allocator manages {e extents}: it returns offsets
    into the arena, and its free-list behaviour (splitting, coalescing,
    sbrk growth) is fully real and testable. *)

type block = { addr : int; size : int }

type t = {
  mutable free_list : block list;  (** sorted by address *)
  mutable heap_top : int;  (** bytes sbrk'd so far *)
  mutable live : (int * int) list;  (** addr -> size of allocations *)
  mutable sbrk_calls : int;
}

let align = 16
let round_up n = (n + align - 1) / align * align

let create () =
  { free_list = []; heap_top = 0; live = []; sbrk_calls = 0 }

let rec insert_coalesce list blk =
  match list with
  | [] -> [ blk ]
  | hd :: tl ->
      if blk.addr + blk.size = hd.addr then
        { addr = blk.addr; size = blk.size + hd.size } :: tl
      else if hd.addr + hd.size = blk.addr then
        insert_coalesce tl { addr = hd.addr; size = hd.size + blk.size }
      else if blk.addr < hd.addr then blk :: hd :: tl
      else hd :: insert_coalesce tl blk

let grow t want =
  (* sbrk in 16 KB quanta, like umalloc's morecore *)
  let quantum = max (round_up want) 16384 in
  let base = Usys.sbrk quantum in
  t.sbrk_calls <- t.sbrk_calls + 1;
  if base < 0 then None
  else begin
    t.heap_top <- t.heap_top + quantum;
    Some { addr = base; size = quantum }
  end

let malloc t size =
  if size <= 0 then None
  else begin
    let need = round_up size in
    Usys.burn 120 (* allocator bookkeeping *);
    let rec first_fit acc = function
      | [] -> None
      | blk :: rest ->
          if blk.size >= need then begin
            let remainder =
              if blk.size > need then
                [ { addr = blk.addr + need; size = blk.size - need } ]
              else []
            in
            t.free_list <- List.rev_append acc (remainder @ rest);
            Some blk.addr
          end
          else first_fit (blk :: acc) rest
    in
    let result =
      match first_fit [] t.free_list with
      | Some addr -> Some addr
      | None -> (
          match grow t need with
          | None -> None
          | Some fresh ->
              t.free_list <- insert_coalesce t.free_list fresh;
              first_fit [] t.free_list)
    in
    match result with
    | Some addr ->
        t.live <- (addr, need) :: t.live;
        Some addr
    | None -> None
  end

let free t addr =
  Usys.burn 90;
  match List.assoc_opt addr t.live with
  | None -> invalid_arg "umalloc: free of unallocated address"
  | Some size ->
      t.live <- List.remove_assoc addr t.live;
      t.free_list <- insert_coalesce t.free_list { addr; size }

let live_bytes t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.live
let live_count t = List.length t.live
let heap_bytes t = t.heap_top
