let sector_bytes = 512
let chunk_bytes = 4096
let chunk_sectors = chunk_bytes / sector_bytes

(* Every chunk no write has touched is this one shared value; it has no
   bytes, so nothing can write through it. *)
let absent = Bytes.empty

type t = { sectors : int; chunks : Bytes.t array }

let create ~sectors =
  if sectors < 0 then invalid_arg "Disk.create: negative size";
  {
    sectors;
    chunks = Array.make ((sectors + chunk_sectors - 1) / chunk_sectors) absent;
  }

let sectors t = t.sectors

let check t ~lba ~count what =
  if count < 0 || lba < 0 || lba > t.sectors - count then
    invalid_arg ("Disk." ^ what ^ ": out of range")

(* Both directions walk the span one chunk at a time; [at] is the offset
   in the caller's buffer, [base + at] the byte offset on the medium. *)

let read t ~lba ~count =
  check t ~lba ~count "read";
  let len = count * sector_bytes in
  let out = Bytes.create len in
  let base = lba * sector_bytes and at = ref 0 in
  while !at < len do
    let pos = base + !at in
    let c = pos / chunk_bytes and in_chunk = pos mod chunk_bytes in
    let n = Int.min (chunk_bytes - in_chunk) (len - !at) in
    let chunk = t.chunks.(c) in
    if chunk == absent then Bytes.fill out !at n '\000'
    else Bytes.blit chunk in_chunk out !at n;
    at := !at + n
  done;
  out

let write t ~lba ~count data =
  check t ~lba ~count "write";
  let len = count * sector_bytes in
  if len > Bytes.length data then
    invalid_arg "Disk.write: data shorter than count";
  let base = lba * sector_bytes and at = ref 0 in
  while !at < len do
    let pos = base + !at in
    let c = pos / chunk_bytes and in_chunk = pos mod chunk_bytes in
    let n = Int.min (chunk_bytes - in_chunk) (len - !at) in
    if t.chunks.(c) == absent then t.chunks.(c) <- Bytes.make chunk_bytes '\000';
    Bytes.blit data !at t.chunks.(c) in_chunk n;
    at := !at + n
  done
