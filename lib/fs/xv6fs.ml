let block_bytes = 1024
let ndirect = 12
let nindirect = block_bytes / 4
let max_file_blocks = ndirect + nindirect
let max_file_bytes = max_file_blocks * block_bytes

(* The extent layout steals one direct slot for a doubly-indirect tree:
   11 direct + 1 single + 1 double, lifting the cap from ~270 KB to
   ~64 MB with the same 64-byte on-disk inode. *)
let ndirect_ext = ndirect - 1
let max_file_blocks_ext = ndirect_ext + nindirect + (nindirect * nindirect)
let max_file_bytes_ext = max_file_blocks_ext * block_bytes
let max_name = 14
let magic = 0x10203040
let inode_bytes = 64
let inodes_per_block = block_bytes / inode_bytes
let dirent_bytes = 16

(* The journal's commit record: one header block naming the destination
   of every log slot. [log_magic] + a checksum make a torn header write
   detectable — an unreadable header IS the "not committed" state. *)
let log_magic = 0x564f4c47
let log_hdr_max = (block_bytes - 16) / 4

type io = {
  bread : int -> Bytes.t;
  bwrite : int -> Bytes.t -> unit;
  bsync : unit -> unit;
  bpin : int -> pin:bool -> unit;
}

let io_of_image image =
  let nblocks = Bytes.length image / block_bytes in
  let bread n =
    if n < 0 || n >= nblocks then invalid_arg "xv6fs: block out of range";
    Bytes.sub image (n * block_bytes) block_bytes
  in
  let bwrite n data =
    if n < 0 || n >= nblocks then invalid_arg "xv6fs: block out of range";
    assert (Bytes.length data = block_bytes);
    Bytes.blit data 0 image (n * block_bytes) block_bytes
  in
  (* a raw image is "the medium" itself: writes are instantly durable and
     in order, so the barrier and pin hooks have nothing to do *)
  { bread; bwrite; bsync = (fun () -> ()); bpin = (fun _ ~pin:_ -> ()) }

type ftype = Dir | Reg | Dev

type stat = { st_inum : int; st_type : ftype; st_nlink : int; st_size : int }

type superblock = {
  sb_size : int;  (* total blocks *)
  sb_ninodes : int;
  sb_inodestart : int;
  sb_bmapstart : int;
  sb_datastart : int;
  sb_logstart : int;  (* journal header block; 0 = no journal *)
  sb_nlog : int;  (* journal data slots after the header *)
  sb_ext : bool;  (* extent (doubly-indirect) block map layout *)
}

type inode = {
  i_num : int;
  mutable i_type : ftype option;  (* None = free *)
  mutable i_major : int;
  mutable i_minor : int;
  mutable i_nlink : int;
  mutable i_size : int;
  i_addrs : int array;  (* ndirect + 1 entries *)
}

(* An open journal: [l_queue] is the current transaction's absorbed home
   blocks (newest first), pinned in the buffer cache until commit. *)
type log = {
  l_start : int;
  l_max_tx : int;
  l_replayed : int;  (* blocks installed by replay at mount *)
  mutable l_seq : int;
  mutable l_queue : int list;
  mutable l_n : int;
  mutable l_depth : int;  (* begin_op nesting *)
  mutable l_commits : int;
  mutable l_absorbed : int;  (* writes absorbed into an already-queued block *)
}

type t = {
  io : io;
  sb : superblock;
  cache : (int, inode) Hashtbl.t;
  ext : bool;
  log : log option;
  mutable on_commit : (int -> unit) option;
      (** observability hook, called with the block count after each
          group commit actually reaches the medium; the kernel wires it
          to vprobe's journal:commit point. Must not touch the fs *)
}

(* ---- superblock ---- *)

let layout ~nlog ~total_blocks ~ninodes =
  let ninodeblocks = (ninodes + inodes_per_block - 1) / inodes_per_block in
  let nbitmap = ((total_blocks / 8) + block_bytes - 1) / block_bytes in
  let inodestart = 2 in
  let bmapstart = inodestart + ninodeblocks in
  let logstart = if nlog > 0 then bmapstart + nbitmap else 0 in
  let datastart = bmapstart + nbitmap + if nlog > 0 then nlog + 1 else 0 in
  {
    sb_size = total_blocks;
    sb_ninodes = ninodes;
    sb_inodestart = inodestart;
    sb_bmapstart = bmapstart;
    sb_datastart = datastart;
    sb_logstart = logstart;
    sb_nlog = nlog;
    sb_ext = false;
  }

let write_superblock io sb =
  let b = Bytes.make block_bytes '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int magic);
  Bytes.set_int32_le b 4 (Int32.of_int sb.sb_size);
  Bytes.set_int32_le b 8 (Int32.of_int sb.sb_ninodes);
  Bytes.set_int32_le b 12 (Int32.of_int sb.sb_inodestart);
  Bytes.set_int32_le b 16 (Int32.of_int sb.sb_bmapstart);
  Bytes.set_int32_le b 20 (Int32.of_int sb.sb_datastart);
  (* zero on legacy images, so old images read back unchanged *)
  Bytes.set_int32_le b 24 (Int32.of_int sb.sb_logstart);
  Bytes.set_int32_le b 28 (Int32.of_int sb.sb_nlog);
  Bytes.set_int32_le b 32 (Int32.of_int (if sb.sb_ext then 1 else 0));
  io.bwrite 1 b

let read_superblock io =
  let b = io.bread 1 in
  if Hw.Le.get_uint32 b 0 <> magic then Error (Error.Invalid "xv6fs: bad magic")
  else
    Ok
      {
        sb_size = Hw.Le.get_uint32 b 4;
        sb_ninodes = Hw.Le.get_uint32 b 8;
        sb_inodestart = Hw.Le.get_uint32 b 12;
        sb_bmapstart = Hw.Le.get_uint32 b 16;
        sb_datastart = Hw.Le.get_uint32 b 20;
        sb_logstart = Hw.Le.get_uint32 b 24;
        sb_nlog = Hw.Le.get_uint32 b 28;
        sb_ext = Hw.Le.get_uint32 b 32 = 1;
      }

(* ---- journal header ---- *)

(* 32-bit FNV-1a over the header block with the checksum field zeroed:
   a commit record torn mid-write (the header spans two sectors) fails
   the check and reads as "no commit". *)
let log_cksum b =
  let h = ref 0x811c9dc5 in
  for i = 0 to Bytes.length b - 1 do
    let c = if i >= 12 && i < 16 then 0 else Bytes.get_uint8 b i in
    h := (!h lxor c) * 0x01000193 land 0xffffffff
  done;
  !h land 0x7fffffff

let write_log_header io ~logstart ~seq ~blocks =
  let b = Bytes.make block_bytes '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int log_magic);
  Bytes.set_int32_le b 4 (Int32.of_int seq);
  Bytes.set_int32_le b 8 (Int32.of_int (List.length blocks));
  List.iteri (fun i bno -> Bytes.set_int32_le b (16 + (4 * i)) (Int32.of_int bno)) blocks;
  Bytes.set_int32_le b 12 (Int32.of_int (log_cksum b));
  io.bwrite logstart b

let read_log_header io ~logstart =
  let b = io.bread logstart in
  if Hw.Le.get_uint32 b 0 <> log_magic then None
  else
    let seq = Hw.Le.get_uint32 b 4 and n = Hw.Le.get_uint32 b 8 in
    let ck = Hw.Le.get_uint32 b 12 in
    if n < 0 || n > log_hdr_max then None
    else if log_cksum b <> ck then None
    else Some (seq, n, List.init n (fun i -> Hw.Le.get_uint32 b (16 + (4 * i))))

(* Recover at mount: a valid header with n > 0 is a committed transaction
   that did not finish installing — copy every log slot to its home block
   and clear the record. A missing/torn header means the crash happened
   before the commit point: the home blocks were never touched, so the
   old state is intact and there is nothing to do. Returns (installed
   blocks, last seq). *)
let replay_log io sb =
  if sb.sb_nlog = 0 then (0, 0)
  else
    match read_log_header io ~logstart:sb.sb_logstart with
    | Some (seq, n, blocks) when n > 0 ->
        let valid =
          List.for_all
            (fun bno -> bno >= 0 && bno < sb.sb_size && bno <> sb.sb_logstart)
            blocks
        in
        if not valid then begin
          (* unreachable under an intact checksum; refuse to install *)
          write_log_header io ~logstart:sb.sb_logstart ~seq ~blocks:[];
          io.bsync ();
          (0, seq)
        end
        else begin
          List.iteri
            (fun i bno -> io.bwrite bno (io.bread (sb.sb_logstart + 1 + i)))
            blocks;
          io.bsync ();
          write_log_header io ~logstart:sb.sb_logstart ~seq ~blocks:[];
          io.bsync ();
          (n, seq)
        end
    | Some (seq, _, _) -> (0, seq)
    | None ->
        write_log_header io ~logstart:sb.sb_logstart ~seq:0 ~blocks:[];
        io.bsync ();
        (0, 0)

(* ---- transactions ---- *)

(* Worst-case blocks a single mutation step can add between watermark
   checks (data block + bitmap + two indirect levels + inode + dir
   block, with slack). [writei] re-checks per block, so a transaction
   can overshoot the soft cap by at most this much — the journal area
   itself is sized well above l_max_tx. *)
let op_headroom = 24

(* Cap on blocks per open transaction before an operation forces a
   group commit; mount clamps it to the on-disk log size. *)
let journal_max_tx = 64

let soft_cap l = max 1 (l.l_max_tx - op_headroom)

let begin_op t =
  match t.log with Some l -> l.l_depth <- l.l_depth + 1 | None -> ()

(* Group commit: absorb the open transaction into the on-disk log, make
   it the committed state with one header write, then install the home
   blocks and clear the record. Every phase is separated by an
   ordered-write barrier — the commit point is the header reaching the
   medium, nothing earlier and nothing reorderable later. *)
let commit t =
  match t.log with
  | None -> 0
  | Some l ->
      if l.l_depth > 0 || l.l_n = 0 then 0
      else begin
        let blocks = List.rev l.l_queue in
        (* 1: copy the cached (pinned) home blocks into the log slots *)
        List.iteri
          (fun i bno -> t.io.bwrite (l.l_start + 1 + i) (t.io.bread bno))
          blocks;
        t.io.bsync ();
        (* 2: the commit record — after this barrier the tx is durable *)
        l.l_seq <- l.l_seq + 1;
        write_log_header t.io ~logstart:l.l_start ~seq:l.l_seq ~blocks;
        t.io.bsync ();
        (* 3: install — release the pins so the cache may write home *)
        List.iter (fun bno -> t.io.bpin bno ~pin:false) blocks;
        t.io.bsync ();
        (* 4: clear the record so replay after a later crash is a no-op *)
        write_log_header t.io ~logstart:l.l_start ~seq:l.l_seq ~blocks:[];
        t.io.bsync ();
        let n = l.l_n in
        l.l_queue <- [];
        l.l_n <- 0;
        l.l_commits <- l.l_commits + 1;
        (match t.on_commit with Some f -> f n | None -> ());
        n
      end

let end_op t =
  match t.log with
  | None -> ()
  | Some l ->
      l.l_depth <- l.l_depth - 1;
      if l.l_depth = 0 && l.l_n >= soft_cap l then ignore (commit t)

let with_op t f =
  begin_op t;
  match f () with
  | v ->
      end_op t;
      v
  | exception e ->
      end_op t;
      raise e

(* Commit mid-[writei] when the transaction nears the log's capacity.
   Only the outermost op may breathe — the filesystem is consistent at
   every per-block step of a chunked write because the inode size is
   advanced alongside the data (see [writei]). *)
let log_breathe t =
  match t.log with
  | Some l when l.l_depth = 1 && l.l_n >= soft_cap l ->
      l.l_depth <- 0;
      ignore (commit t);
      l.l_depth <- 1
  | Some _ | None -> ()

(* Every metadata/data write inside a transaction goes through here: the
   block is pinned (before the write, so no flush can sneak the
   uncommitted version out) and queued once; repeat writes absorb. *)
let dwrite t blockno data =
  (match t.log with
  | Some l when l.l_depth > 0 ->
      if List.mem blockno l.l_queue then l.l_absorbed <- l.l_absorbed + 1
      else begin
        t.io.bpin blockno ~pin:true;
        l.l_queue <- blockno :: l.l_queue;
        l.l_n <- l.l_n + 1
      end
  | Some _ | None -> ());
  t.io.bwrite blockno data

(* ---- on-disk inodes ---- *)

let itype_code = function
  | None -> 0
  | Some Dir -> 1
  | Some Reg -> 2
  | Some Dev -> 3

let itype_of_code = function
  | 0 -> None
  | 1 -> Some Dir
  | 2 -> Some Reg
  | 3 -> Some Dev
  | c -> invalid_arg (Printf.sprintf "xv6fs: bad inode type %d" c)

let inode_block sb inum = sb.sb_inodestart + (inum / inodes_per_block)
let inode_offset inum = inum mod inodes_per_block * inode_bytes

let read_dinode t inum =
  let b = t.io.bread (inode_block t.sb inum) in
  let off = inode_offset inum in
  let node =
    {
      i_num = inum;
      i_type = itype_of_code (Bytes.get_uint16_le b off);
      i_major = Bytes.get_uint16_le b (off + 2);
      i_minor = Bytes.get_uint16_le b (off + 4);
      i_nlink = Bytes.get_uint16_le b (off + 6);
      i_size = Hw.Le.get_uint32 b (off + 8);
      i_addrs = Array.make (ndirect + 1) 0;
    }
  in
  for i = 0 to ndirect do
    node.i_addrs.(i) <- Hw.Le.get_uint32 b (off + 12 + (4 * i))
  done;
  node

let write_dinode t node =
  let blockno = inode_block t.sb node.i_num in
  let b = t.io.bread blockno in
  let off = inode_offset node.i_num in
  Bytes.set_uint16_le b off (itype_code node.i_type);
  Bytes.set_uint16_le b (off + 2) node.i_major;
  Bytes.set_uint16_le b (off + 4) node.i_minor;
  Bytes.set_uint16_le b (off + 6) node.i_nlink;
  Bytes.set_int32_le b (off + 8) (Int32.of_int node.i_size);
  for i = 0 to ndirect do
    Bytes.set_int32_le b (off + 12 + (4 * i)) (Int32.of_int node.i_addrs.(i))
  done;
  dwrite t blockno b

let iget t inum =
  match Hashtbl.find_opt t.cache inum with
  | Some node -> node
  | None ->
      let node = read_dinode t inum in
      Hashtbl.replace t.cache inum node;
      node

let ialloc t ftype =
  let rec scan inum =
    if inum >= t.sb.sb_ninodes then
      Error (Error.No_space "xv6fs: out of inodes")
    else begin
      let node = iget t inum in
      if node.i_type = None then begin
        node.i_type <- Some ftype;
        node.i_major <- 0;
        node.i_minor <- 0;
        node.i_nlink <- 0;
        node.i_size <- 0;
        Array.fill node.i_addrs 0 (ndirect + 1) 0;
        write_dinode t node;
        Ok node
      end
      else scan (inum + 1)
    end
  in
  scan 1 (* inode 0 is reserved, 1 is the root *)

(* ---- block bitmap ---- *)

let balloc t =
  let rec scan_block bi =
    let base = bi * block_bytes * 8 in
    if base >= t.sb.sb_size then
      Error (Error.No_space "xv6fs: out of data blocks")
    else begin
      let blockno = t.sb.sb_bmapstart + bi in
      let b = t.io.bread blockno in
      let found = ref None in
      (try
         for bit = 0 to (block_bytes * 8) - 1 do
           let blk = base + bit in
           if blk >= t.sb.sb_datastart && blk < t.sb.sb_size then begin
             let byte = Bytes.get_uint8 b (bit / 8) in
             if byte land (1 lsl (bit mod 8)) = 0 then begin
               Bytes.set_uint8 b (bit / 8) (byte lor (1 lsl (bit mod 8)));
               found := Some blk;
               raise Exit
             end
           end
         done
       with Exit -> ());
      match !found with
      | Some blk ->
          dwrite t blockno b;
          dwrite t blk (Bytes.make block_bytes '\000');
          Ok blk
      | None -> scan_block (bi + 1)
    end
  in
  scan_block 0

let bfree t blk =
  assert (blk >= t.sb.sb_datastart && blk < t.sb.sb_size);
  let blockno = t.sb.sb_bmapstart + (blk / (block_bytes * 8)) in
  let bit = blk mod (block_bytes * 8) in
  let b = t.io.bread blockno in
  let byte = Bytes.get_uint8 b (bit / 8) in
  assert (byte land (1 lsl (bit mod 8)) <> 0);
  Bytes.set_uint8 b (bit / 8) (byte land lnot (1 lsl (bit mod 8)));
  dwrite t blockno b

let free_data_blocks t =
  let free = ref 0 in
  for blk = t.sb.sb_datastart to t.sb.sb_size - 1 do
    let blockno = t.sb.sb_bmapstart + (blk / (block_bytes * 8)) in
    let bit = blk mod (block_bytes * 8) in
    let b = t.io.bread blockno in
    if Bytes.get_uint8 b (bit / 8) land (1 lsl (bit mod 8)) = 0 then incr free
  done;
  !free

(* ---- block mapping ---- *)

let max_blocks_of t = if t.ext then max_file_blocks_ext else max_file_blocks
let max_bytes t = max_blocks_of t * block_bytes

(* A stored address must land in the data area — an fs corrupted by an
   unjournaled crash can hold torn garbage here, and following it would
   read/write outside the image. *)
let valid_addr t blk = blk >= t.sb.sb_datastart && blk < t.sb.sb_size

(* slot [i] of the inode's address array, allocating on demand *)
let addr_slot t node i ~alloc =
  if node.i_addrs.(i) <> 0 then
    if valid_addr t node.i_addrs.(i) then Ok node.i_addrs.(i)
    else Error (Error.Invalid "xv6fs: bad block address")
  else if not alloc then Ok 0
  else
    match balloc t with
    | Ok blk ->
        node.i_addrs.(i) <- blk;
        write_dinode t node;
        Ok blk
    | Error e -> Error e

(* entry [idx] of indirect block [ind], allocating on demand; under a
   hole ([ind] = 0) every entry is a hole *)
let ind_lookup t ind idx ~alloc =
  if ind = 0 then Ok 0
  else
    let b = t.io.bread ind in
    let blk = Hw.Le.get_uint32 b (4 * idx) in
    if blk <> 0 then
      if valid_addr t blk then Ok blk
      else Error (Error.Invalid "xv6fs: bad block address")
    else if not alloc then Ok 0
    else
      match balloc t with
      | Ok fresh ->
          Bytes.set_int32_le b (4 * idx) (Int32.of_int fresh);
          dwrite t ind b;
          Ok fresh
      | Error e -> Error e

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* Map file block [n] of [node] to a disk block, allocating if [alloc].
   Without [alloc] an unmapped block (a hole) maps to 0: the boot block,
   never a data block. *)
let bmap t node n ~alloc =
  if n < 0 || n >= max_blocks_of t then
    Error (Error.Too_big "xv6fs: file too large")
  else if not t.ext then
    (* the paper's layout: 12 direct + 1 singly-indirect *)
    if n < ndirect then addr_slot t node n ~alloc
    else
      let* ind = addr_slot t node ndirect ~alloc in
      ind_lookup t ind (n - ndirect) ~alloc
  else if n < ndirect_ext then addr_slot t node n ~alloc
  else if n < ndirect_ext + nindirect then
    let* ind = addr_slot t node ndirect_ext ~alloc in
    ind_lookup t ind (n - ndirect_ext) ~alloc
  else begin
    let m = n - ndirect_ext - nindirect in
    let* d1 = addr_slot t node (ndirect_ext + 1) ~alloc in
    let* d2 = ind_lookup t d1 (m / nindirect) ~alloc in
    ind_lookup t d2 (m mod nindirect) ~alloc
  end

(* free the whole tree under indirect block [ind], then [ind] itself *)
let rec free_indirect t ind ~depth =
  let b = t.io.bread ind in
  for idx = 0 to nindirect - 1 do
    let blk = Hw.Le.get_uint32 b (4 * idx) in
    if blk <> 0 then
      if depth > 1 then free_indirect t blk ~depth:(depth - 1) else bfree t blk
  done;
  bfree t ind

let truncate_raw t node =
  let ndir = if t.ext then ndirect_ext else ndirect in
  for i = 0 to ndir - 1 do
    if node.i_addrs.(i) <> 0 then begin
      bfree t node.i_addrs.(i);
      node.i_addrs.(i) <- 0
    end
  done;
  if node.i_addrs.(ndir) <> 0 then begin
    free_indirect t node.i_addrs.(ndir) ~depth:1;
    node.i_addrs.(ndir) <- 0
  end;
  if t.ext && node.i_addrs.(ndir + 1) <> 0 then begin
    free_indirect t node.i_addrs.(ndir + 1) ~depth:2;
    node.i_addrs.(ndir + 1) <- 0
  end;
  node.i_size <- 0;
  write_dinode t node

let truncate t node = with_op t (fun () -> truncate_raw t node)

(* ---- file read/write ---- *)

let readi t node ~off ~len =
  match node.i_type with
  | None -> Error (Error.Invalid "xv6fs: read of free inode")
  | Some _ ->
      if off < 0 || len < 0 then Error (Error.Invalid "xv6fs: bad read range")
      else begin
        let len = min len (max 0 (node.i_size - off)) in
        let out = Bytes.create len in
        let copied = ref 0 in
        let err = ref None in
        while !copied < len && !err = None do
          let pos = off + !copied in
          let bn = pos / block_bytes in
          (match bmap t node bn ~alloc:false with
          | Ok 0 ->
              (* sparse region reads as zeros *)
              let boff = pos mod block_bytes in
              let n = min (len - !copied) (block_bytes - boff) in
              Bytes.fill out !copied n '\000';
              copied := !copied + n
          | Ok blk ->
              let b = t.io.bread blk in
              let boff = pos mod block_bytes in
              let n = min (len - !copied) (block_bytes - boff) in
              Bytes.blit b boff out !copied n;
              copied := !copied + n
          | Error e -> err := Some e)
        done;
        match !err with Some e -> Error e | None -> Ok out
      end

let writei t node ~off ~data =
  match node.i_type with
  | None -> Error (Error.Invalid "xv6fs: write to free inode")
  | Some _ ->
      let len = Bytes.length data in
      if off < 0 then Error (Error.Invalid "xv6fs: bad write offset")
      else if off + len > max_bytes t then
        Error (Error.Too_big "xv6fs: file too large")
      else
        with_op t (fun () ->
            let written = ref 0 in
            let err = ref None in
            while !written < len && !err = None do
              let pos = off + !written in
              let bn = pos / block_bytes in
              match bmap t node bn ~alloc:true with
              | Ok blk ->
                  let b = t.io.bread blk in
                  let boff = pos mod block_bytes in
                  let n = min (len - !written) (block_bytes - boff) in
                  Bytes.blit data !written b boff n;
                  dwrite t blk b;
                  written := !written + n;
                  if t.log <> None then begin
                    (* keep the inode's size in step with the data so
                       every chunk commit is a consistent filesystem,
                       then let a near-full transaction commit *)
                    if off + !written > node.i_size then begin
                      node.i_size <- off + !written;
                      write_dinode t node
                    end;
                    log_breathe t
                  end
              | Error e -> err := Some e
            done;
            match !err with
            | Some e -> Error e
            | None ->
                if off + len > node.i_size then begin
                  node.i_size <- off + len;
                  write_dinode t node
                end;
                Ok len)

(* ---- directories ---- *)

let dirent_count node = node.i_size / dirent_bytes

let read_dirent t node idx =
  match readi t node ~off:(idx * dirent_bytes) ~len:dirent_bytes with
  | Error e -> Error e
  | Ok b when Bytes.length b < dirent_bytes ->
      (* a corrupt directory size can leave a short tail; fsck must see
         a finding, not an exception *)
      Error (Error.Invalid "xv6fs: short dirent")
  | Ok b ->
      let inum = Bytes.get_uint16_le b 0 in
      if inum >= t.sb.sb_ninodes then
        (* an on-disk inum outside the inode table means the directory
           block is trash; surfacing it as data keeps a corrupt image
           from walking iget off the end of the device *)
        Error (Error.Invalid "xv6fs: corrupt dirent (inum out of range)")
      else begin
      let raw = Bytes.sub_string b 2 max_name in
      let name =
        match String.index_opt raw '\000' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      Ok (name, inum)
      end

let write_dirent t node idx name inum =
  let b = Bytes.make dirent_bytes '\000' in
  Bytes.set_uint16_le b 0 inum;
  String.iteri
    (fun i c -> if i < max_name then Bytes.set b (2 + i) c)
    name;
  match writei t node ~off:(idx * dirent_bytes) ~data:b with
  | Ok _ -> Ok ()
  | Error e -> Error e

let dirlookup t dir name =
  match dir.i_type with
  | Some Dir ->
      let n = dirent_count dir in
      let rec scan idx =
        if idx >= n then
          Error (Error.No_entry ("xv6fs: no such entry: " ^ name))
        else
          match read_dirent t dir idx with
          | Error e -> Error e
          | Ok (ename, einum) ->
              if einum <> 0 && String.equal ename name then Ok (iget t einum, idx)
              else scan (idx + 1)
      in
      scan 0
  | Some Reg | Some Dev | None -> Error (Error.Not_dir "xv6fs: not a directory")

let dirlink t dir name inum =
  if String.length name = 0 || String.length name > max_name then
    Error (Error.Invalid "xv6fs: bad name length")
  else
    match dirlookup t dir name with
    | Ok _ -> Error (Error.Exists ("xv6fs: exists: " ^ name))
    | Error _ ->
        (* reuse a freed slot if any, else append *)
        let n = dirent_count dir in
        let rec find_free idx =
          if idx >= n then n
          else
            match read_dirent t dir idx with
            | Ok (_, 0) -> idx
            | Ok _ | Error _ -> find_free (idx + 1)
        in
        write_dirent t dir (find_free 0) name inum

(* ---- paths ---- *)

let root t = iget t 1

let lookup t path =
  let rec walk node = function
    | [] -> Ok node
    | name :: rest -> (
        match dirlookup t node name with
        | Ok (child, _) -> walk child rest
        | Error e -> Error e)
  in
  walk (root t) (Vpath.split path)

let stat_of _t node =
  {
    st_inum = node.i_num;
    st_type = (match node.i_type with Some ty -> ty | None -> Reg);
    st_nlink = node.i_nlink;
    st_size = node.i_size;
  }

let inum node = node.i_num

let create t path ftype =
  let dir_path = Vpath.dirname path and name = Vpath.basename path in
  if String.equal name "/" then
    Error (Error.Invalid "xv6fs: cannot create root")
  else
    match lookup t dir_path with
    | Error e -> Error e
    | Ok parent -> (
        match dirlookup t parent name with
        | Ok _ -> Error (Error.Exists ("xv6fs: exists: " ^ path))
        | Error _ ->
            with_op t (fun () ->
                match ialloc t ftype with
                | Error e -> Error e
                | Ok node -> (
                    node.i_nlink <- 1;
                    write_dinode t node;
                    let link_children () =
                      match ftype with
                      | Dir -> (
                          match dirlink t node "." node.i_num with
                          | Error e -> Error e
                          | Ok () -> (
                              match dirlink t node ".." parent.i_num with
                              | Error e -> Error e
                              | Ok () ->
                                  parent.i_nlink <- parent.i_nlink + 1;
                                  write_dinode t parent;
                                  Ok ()))
                      | Reg | Dev -> Ok ()
                    in
                    match link_children () with
                    | Error e -> Error e
                    | Ok () -> (
                        match dirlink t parent name node.i_num with
                        | Error e -> Error e
                        | Ok () -> Ok node))))

let readdir t dir =
  match dir.i_type with
  | Some Dir ->
      let n = dirent_count dir in
      let rec scan idx acc =
        if idx >= n then Ok (List.rev acc)
        else
          match read_dirent t dir idx with
          | Error e -> Error e
          | Ok (_, 0) -> scan (idx + 1) acc
          | Ok (name, inum) ->
              if String.equal name "." || String.equal name ".." then
                scan (idx + 1) acc
              else scan (idx + 1) ((name, inum) :: acc)
      in
      scan 0 []
  | Some Reg | Some Dev | None -> Error (Error.Not_dir "xv6fs: not a directory")

let dir_is_empty t dir =
  match readdir t dir with Ok [] -> true | Ok _ | Error _ -> false

let unlink t path =
  let dir_path = Vpath.dirname path and name = Vpath.basename path in
  if String.equal name "/" || String.equal name "." || String.equal name ".."
  then Error (Error.Invalid "xv6fs: cannot unlink")
  else
    match lookup t dir_path with
    | Error e -> Error e
    | Ok parent -> (
        match dirlookup t parent name with
        | Error e -> Error e
        | Ok (node, idx) ->
            if node.i_type = Some Dir && not (dir_is_empty t node) then
              Error (Error.Not_empty "xv6fs: directory not empty")
            else
              with_op t (fun () ->
                  match write_dirent t parent idx "" 0 with
                  | Error e -> Error e
                  | Ok () ->
                      if node.i_type = Some Dir then begin
                        parent.i_nlink <- parent.i_nlink - 1;
                        write_dinode t parent
                      end;
                      node.i_nlink <- node.i_nlink - 1;
                      if node.i_nlink <= 0 then begin
                        truncate_raw t node;
                        node.i_type <- None;
                        Hashtbl.remove t.cache node.i_num
                      end;
                      write_dinode t node;
                      Ok ()))

let set_dev t node ~major ~minor =
  with_op t (fun () ->
      node.i_major <- major;
      node.i_minor <- minor;
      write_dinode t node)

let dev_of _t node = (node.i_major, node.i_minor)

(* ---- journal introspection ---- *)

let journaled t = t.log <> None
let set_on_commit t f = t.on_commit <- Some f
let log_commits t = match t.log with Some l -> l.l_commits | None -> 0
let log_replayed t = match t.log with Some l -> l.l_replayed | None -> 0
let log_absorbed t = match t.log with Some l -> l.l_absorbed | None -> 0
let log_pending t = match t.log with Some l -> l.l_n | None -> 0

(* ---- mkfs / mount ---- *)

let mount io =
  match read_superblock io with
  | Error e -> Error e
  | Ok sb ->
      let replayed, seq = replay_log io sb in
      let log =
        if sb.sb_nlog = 0 then None
        else
          Some
            {
              l_start = sb.sb_logstart;
              l_max_tx = min sb.sb_nlog (min log_hdr_max journal_max_tx);
              l_replayed = replayed;
              l_seq = seq;
              l_queue = [];
              l_n = 0;
              l_depth = 0;
              l_commits = 0;
              l_absorbed = 0;
            }
      in
      Ok
        {
          io;
          sb;
          cache = Hashtbl.create 64;
          ext = sb.sb_ext;
          log;
          on_commit = None;
        }

let mkfs ?(nlog = 0) ?(ext = false) ~total_blocks ~ninodes () =
  let image = Bytes.make (total_blocks * block_bytes) '\000' in
  let io = io_of_image image in
  let sb = { (layout ~nlog ~total_blocks ~ninodes) with sb_ext = ext } in
  write_superblock io sb;
  if nlog > 0 then write_log_header io ~logstart:sb.sb_logstart ~seq:0 ~blocks:[];
  (* formatting writes straight through — the image only becomes a
     crash-consistency domain once it is mounted *)
  let t =
    { io; sb; cache = Hashtbl.create 64; ext; log = None; on_commit = None }
  in
  (* mark meta blocks (boot, superblock, inodes, bitmap, log) used *)
  for blk = 0 to sb.sb_datastart - 1 do
    let blockno = sb.sb_bmapstart + (blk / (block_bytes * 8)) in
    let bit = blk mod (block_bytes * 8) in
    let b = io.bread blockno in
    Bytes.set_uint8 b (bit / 8)
      (Bytes.get_uint8 b (bit / 8) lor (1 lsl (bit mod 8)));
    io.bwrite blockno b
  done;
  (* root directory: inode 1 *)
  (match ialloc t Dir with
  | Ok node ->
      assert (node.i_num = 1);
      node.i_nlink <- 1;
      write_dinode t node;
      List.iter
        (fun name ->
          match dirlink t node name 1 with
          | Ok () -> ()
          | Error e -> invalid_arg (Error.to_string e))
        [ "."; ".." ]
  | Error e -> invalid_arg (Error.to_string e));
  image

(* ---- fsck ---- *)

type fsck_report = {
  fsck_clean : bool;
  fsck_errors : string list;
  fsck_files : int;
  fsck_dirs : int;
  fsck_data_blocks : int;
}

(* Tolerant on-disk inode read for fsck: corruption becomes a finding,
   never an exception. *)
let fsck_dinode t inum =
  let b = t.io.bread (inode_block t.sb inum) in
  let off = inode_offset inum in
  let code = Bytes.get_uint16_le b off in
  if code > 3 then
    Error
      (Error.Invalid (Printf.sprintf "inode %d: bad type code %d" inum code))
  else
    Ok
      {
        i_num = inum;
        i_type =
          (match code with
          | 0 -> None
          | 1 -> Some Dir
          | 2 -> Some Reg
          | _ -> Some Dev);
        i_major = Bytes.get_uint16_le b (off + 2);
        i_minor = Bytes.get_uint16_le b (off + 4);
        i_nlink = Bytes.get_uint16_le b (off + 6);
        i_size = Hw.Le.get_uint32 b (off + 8);
        i_addrs =
          Array.init (ndirect + 1) (fun i -> Hw.Le.get_uint32 b (off + 12 + (4 * i)));
      }

let bitmap_bit t blk =
  let blockno = t.sb.sb_bmapstart + (blk / (block_bytes * 8)) in
  let bit = blk mod (block_bytes * 8) in
  let b = t.io.bread blockno in
  Bytes.get_uint8 b (bit / 8) land (1 lsl (bit mod 8)) <> 0

(* Full-image consistency check: superblock geometry, the directory tree
   from the root, per-inode block maps vs. size, double allocation, the
   free bitmap in both directions, link counts and orphans. Read-only;
   all findings are reported, none thrown. *)
let fsck t =
  let sb = t.sb in
  let nerr = ref 0 in
  let errors = ref [] in
  let err fmt =
    Printf.ksprintf
      (fun s ->
        incr nerr;
        if !nerr <= 64 then errors := s :: !errors
        else if !nerr = 65 then errors := "... (more errors suppressed)" :: !errors)
      fmt
  in
  let ninodeblocks = (sb.sb_ninodes + inodes_per_block - 1) / inodes_per_block in
  if
    sb.sb_inodestart <> 2
    || sb.sb_bmapstart < sb.sb_inodestart + ninodeblocks
    || sb.sb_datastart < sb.sb_bmapstart
    || sb.sb_datastart > sb.sb_size
    || (sb.sb_nlog > 0
       && (sb.sb_logstart < sb.sb_bmapstart || sb.sb_logstart + sb.sb_nlog >= sb.sb_datastart))
  then err "superblock: inconsistent geometry";
  let n_inodes = max 1 sb.sb_ninodes in
  let refs = Array.make n_inodes 0 in
  let visited = Array.make n_inodes false in
  let block_owner = Hashtbl.create 256 in
  let files = ref 0 and dirs = ref 0 in
  let claim inum what bno =
    if bno < sb.sb_datastart || bno >= sb.sb_size then
      err "inode %d: %s block %d outside the data area" inum what bno
    else
      match Hashtbl.find_opt block_owner bno with
      | Some owner -> err "block %d claimed by inode %d and inode %d" bno owner inum
      | None -> Hashtbl.replace block_owner bno inum
  in
  (* walk the block map of [node], claiming data + indirect blocks and
     checking data blocks stay under the file size *)
  let check_blocks node =
    let inum = node.i_num in
    let max_index = (node.i_size + block_bytes - 1) / block_bytes in
    let data index bno =
      if bno <> 0 then begin
        claim inum "data" bno;
        if index >= max_index then
          err "inode %d: block mapped at index %d beyond size %d" inum index
            node.i_size
      end
    in
    let indirect_ok bno =
      bno <> 0 && bno >= sb.sb_datastart && bno < sb.sb_size
    in
    let scan_single base ind =
      claim inum "indirect" ind;
      if indirect_ok ind then begin
        let b = t.io.bread ind in
        for idx = 0 to nindirect - 1 do
          data (base + idx) (Hw.Le.get_uint32 b (4 * idx))
        done
      end
    in
    if not t.ext then begin
      for i = 0 to ndirect - 1 do
        data i node.i_addrs.(i)
      done;
      if node.i_addrs.(ndirect) <> 0 then
        scan_single ndirect node.i_addrs.(ndirect)
    end
    else begin
      for i = 0 to ndirect_ext - 1 do
        data i node.i_addrs.(i)
      done;
      if node.i_addrs.(ndirect_ext) <> 0 then
        scan_single ndirect_ext node.i_addrs.(ndirect_ext);
      let d1 = node.i_addrs.(ndirect_ext + 1) in
      if d1 <> 0 then begin
        claim inum "double-indirect" d1;
        if indirect_ok d1 then begin
          let b = t.io.bread d1 in
          for l1 = 0 to nindirect - 1 do
            let ind = Hw.Le.get_uint32 b (4 * l1) in
            if ind <> 0 then
              scan_single (ndirect_ext + nindirect + (l1 * nindirect)) ind
          done
        end
      end
    end
  in
  (* recursive tree walk from the root *)
  let rec walk_dir dir ~parent =
    let n =
      if dir.i_size < 0 || dir.i_size > max_bytes t then begin
        err "dir inode %d: implausible size %d" dir.i_num dir.i_size;
        0
      end
      else dirent_count dir
    in
    for idx = 0 to n - 1 do
      match read_dirent t dir idx with
      | Error e ->
          err "inode %d: unreadable dirent %d: %s" dir.i_num idx
            (Error.to_string e)
      | Ok (_, 0) -> ()
      | Ok (name, einum) ->
          if einum < 1 || einum >= sb.sb_ninodes then
            err "dir inode %d: entry %S points at bad inode %d" dir.i_num name
              einum
          else begin
            refs.(einum) <- refs.(einum) + 1;
            if String.equal name "." then begin
              if einum <> dir.i_num then
                err "dir inode %d: \".\" points at %d" dir.i_num einum
            end
            else if String.equal name ".." then begin
              if einum <> parent then
                err "dir inode %d: \"..\" points at %d, parent is %d" dir.i_num
                  einum parent
            end
            else
              match fsck_dinode t einum with
              | Error e ->
                  err "%s (via %S in inode %d)" (Error.to_string e) name
                    dir.i_num
              | Ok child -> (
                  match child.i_type with
                  | None ->
                      err "dir inode %d: entry %S points at free inode %d"
                        dir.i_num name einum
                  | Some Dir ->
                      if visited.(einum) then
                        err "dir inode %d reachable twice (via %S)" einum name
                      else begin
                        visited.(einum) <- true;
                        incr dirs;
                        check_blocks child;
                        walk_dir child ~parent:dir.i_num
                      end
                  | Some Reg | Some Dev ->
                      if not visited.(einum) then begin
                        visited.(einum) <- true;
                        incr files;
                        check_blocks child
                      end)
          end
    done
  in
  (match fsck_dinode t 1 with
  | Error e -> err "root: %s" (Error.to_string e)
  | Ok root_node -> (
      match root_node.i_type with
      | Some Dir ->
          visited.(1) <- true;
          incr dirs;
          check_blocks root_node;
          walk_dir root_node ~parent:1
      | Some _ | None -> err "root inode is not a directory"));
  (* unreachable / free inodes and link counts *)
  (match fsck_dinode t 0 with
  | Ok n0 when n0.i_type <> None -> err "reserved inode 0 is in use"
  | Ok _ | Error _ -> ());
  for inum = 1 to sb.sb_ninodes - 1 do
    match fsck_dinode t inum with
    | Error e -> if not visited.(inum) then err "%s" (Error.to_string e)
    | Ok node -> (
        match node.i_type with
        | None ->
            if refs.(inum) > 0 then
              err "free inode %d referenced by %d dirents" inum refs.(inum)
        | Some ty ->
            if not visited.(inum) then
              err "inode %d allocated but unreachable (orphan)" inum
            else
              let expected =
                match ty with Dir -> refs.(inum) - 1 | Reg | Dev -> refs.(inum)
              in
              if node.i_nlink <> expected then
                err "inode %d: nlink %d, expected %d" inum node.i_nlink expected)
  done;
  (* the bitmap, in both directions *)
  for blk = 0 to sb.sb_size - 1 do
    let used = bitmap_bit t blk in
    if blk < sb.sb_datastart then begin
      if not used then err "meta block %d free in bitmap" blk
    end
    else
      match (used, Hashtbl.mem block_owner blk) with
      | true, false -> err "block %d marked used but unreachable (leak)" blk
      | false, true -> err "block %d in use but free in bitmap" blk
      | true, true | false, false -> ()
  done;
  {
    fsck_clean = !nerr = 0;
    fsck_errors = List.rev !errors;
    fsck_files = !files;
    fsck_dirs = !dirs;
    fsck_data_blocks = Hashtbl.length block_owner;
  }
