type 'a entry = { time : int64; seq : int; payload : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }

let is_empty t = t.len = 0
let size t = t.len

let less a b = if Int64.equal a.time b.time then a.seq < b.seq else Int64.compare a.time b.time < 0

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.len && less t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~time ~seq payload =
  let entry = { time; seq; payload } in
  if t.len = Array.length t.data then begin
    let capacity = max 16 (2 * t.len) in
    let bigger = Array.make capacity entry in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let top_time t =
  if t.len = 0 then invalid_arg "Heap.top_time: empty heap";
  t.data.(0).time

let top t =
  if t.len = 0 then invalid_arg "Heap.top: empty heap";
  t.data.(0).payload

let drop t =
  if t.len = 0 then invalid_arg "Heap.drop: empty heap";
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.data.(0) <- t.data.(t.len);
    sift_down t 0
  end

let iter t f =
  for i = 0 to t.len - 1 do
    let e = t.data.(i) in
    f e.time e.seq e.payload
  done
