let reserved_sectors = 32
let num_fats = 2
let dirent_bytes = 32
let eoc = 0x0FFFFFF8 (* any value >= this terminates a chain *)
let fat_mask = 0x0FFFFFFF

type io = {
  read : lba:int -> count:int -> Bytes.t;
  write : lba:int -> data:Bytes.t -> unit;
}

let io_of_blockdev (dev : Blockdev.t) =
  let read ~lba ~count =
    match dev.Blockdev.read_sectors ~lba ~count with
    | Ok b -> b
    | Error e -> invalid_arg e
  in
  let write ~lba ~data =
    match dev.Blockdev.write_sectors ~lba ~data with
    | Ok () -> ()
    | Error e -> invalid_arg e
  in
  { read; write }

type t = {
  io : io;
  spc : int;  (* sectors per cluster *)
  fat_start : int;  (* lba of first FAT *)
  fat_sectors : int;
  data_start : int;  (* lba of cluster 2 *)
  total_clusters : int;  (* data clusters, numbered 2..total+1 *)
  root_cluster : int;
  mutable free_hint : int;
}

type stat = { st_dir : bool; st_size : int; st_cluster : int }

(* ---- formatting ---- *)

let compute_fat_sectors ~total_sectors ~spc =
  (* Fixed point: clusters depend on FAT size and vice versa. *)
  let fat_sectors = ref 1 in
  let stable = ref false in
  while not !stable do
    let data = total_sectors - reserved_sectors - (num_fats * !fat_sectors) in
    let clusters = data / spc in
    let need = ((clusters + 2) * 4 + Blockdev.sector_bytes - 1) / Blockdev.sector_bytes in
    if need = !fat_sectors then stable := true else fat_sectors := need
  done;
  !fat_sectors

let mkfs io ~total_sectors =
  let spc = 8 (* 4 KiB clusters; mount reads the size back from the BPB *) in
  let fat_sectors = compute_fat_sectors ~total_sectors ~spc in
  let bpb = Bytes.make Blockdev.sector_bytes '\000' in
  Bytes.set_uint8 bpb 0 0xeb;
  Bytes.set_uint8 bpb 1 0x58;
  Bytes.set_uint8 bpb 2 0x90;
  Bytes.blit_string "VOSFAT  " 0 bpb 3 8;
  Bytes.set_uint16_le bpb 11 Blockdev.sector_bytes;
  Bytes.set_uint8 bpb 13 spc;
  Bytes.set_uint16_le bpb 14 reserved_sectors;
  Bytes.set_uint8 bpb 16 num_fats;
  Bytes.set_uint8 bpb 21 0xf8;
  Bytes.set_int32_le bpb 32 (Int32.of_int total_sectors);
  Bytes.set_int32_le bpb 36 (Int32.of_int fat_sectors);
  Bytes.set_int32_le bpb 44 2l (* root cluster *);
  Bytes.set_uint16_le bpb 48 1 (* fsinfo *);
  Bytes.blit_string "FAT32   " 0 bpb 82 8;
  Bytes.set_uint8 bpb 510 0x55;
  Bytes.set_uint8 bpb 511 0xaa;
  io.write ~lba:0 ~data:bpb;
  (* FSInfo with free-count unknown *)
  let fsinfo = Bytes.make Blockdev.sector_bytes '\000' in
  Bytes.set_int32_le fsinfo 0 0x41615252l;
  Bytes.set_int32_le fsinfo 484 0x61417272l;
  Bytes.set_int32_le fsinfo 488 0xffffffffl;
  Bytes.set_int32_le fsinfo 492 0xffffffffl;
  Bytes.set_uint8 fsinfo 510 0x55;
  Bytes.set_uint8 fsinfo 511 0xaa;
  io.write ~lba:1 ~data:fsinfo;
  (* zero both FATs, then set the reserved head entries *)
  let zero = Bytes.make Blockdev.sector_bytes '\000' in
  for f = 0 to num_fats - 1 do
    for s = 0 to fat_sectors - 1 do
      io.write ~lba:(reserved_sectors + (f * fat_sectors) + s) ~data:zero
    done
  done;
  let fat0 = Bytes.make Blockdev.sector_bytes '\000' in
  Bytes.set_int32_le fat0 0 0x0ffffff8l;
  Bytes.set_int32_le fat0 4 (Int32.of_int fat_mask);
  Bytes.set_int32_le fat0 8 (Int32.of_int fat_mask) (* root cluster 2: EOC *);
  io.write ~lba:reserved_sectors ~data:fat0;
  io.write ~lba:(reserved_sectors + fat_sectors) ~data:fat0;
  (* zero the root directory cluster *)
  let data_start = reserved_sectors + (num_fats * fat_sectors) in
  for s = 0 to spc - 1 do
    io.write ~lba:(data_start + s) ~data:zero
  done

let mount io =
  let bpb = io.read ~lba:0 ~count:1 in
  if Bytes.get_uint8 bpb 510 <> 0x55 || Bytes.get_uint8 bpb 511 <> 0xaa then
    Error (Error.Invalid "fat32: bad BPB signature")
  else if Bytes.get_uint16_le bpb 11 <> Blockdev.sector_bytes then
    Error (Error.Invalid "fat32: unsupported sector size")
  else begin
    let spc = Bytes.get_uint8 bpb 13 in
    let reserved = Bytes.get_uint16_le bpb 14 in
    let fat_sectors = Hw.Le.get_uint32 bpb 36 in
    let total = Hw.Le.get_uint32 bpb 32 in
    let data_start = reserved + (num_fats * fat_sectors) in
    let total_clusters = (total - data_start) / spc in
    Ok
      {
        io;
        spc;
        fat_start = reserved;
        fat_sectors;
        data_start;
        total_clusters;
        root_cluster = Hw.Le.get_uint32 bpb 44;
        free_hint = 3;
      }
  end

let cluster_bytes t = t.spc * Blockdev.sector_bytes

let cluster_lba t cl = t.data_start + ((cl - 2) * t.spc)

(* ---- FAT access ---- *)

let fat_get t cl =
  let lba = t.fat_start + (cl * 4 / Blockdev.sector_bytes) in
  let b = t.io.read ~lba ~count:1 in
  Hw.Le.get_uint32 b (cl * 4 mod Blockdev.sector_bytes) land fat_mask

let fat_set t cl v =
  let off_sector = cl * 4 / Blockdev.sector_bytes in
  let off = cl * 4 mod Blockdev.sector_bytes in
  for f = 0 to num_fats - 1 do
    let lba = t.fat_start + (f * t.fat_sectors) + off_sector in
    let b = t.io.read ~lba ~count:1 in
    Bytes.set_int32_le b off (Int32.of_int (v land fat_mask));
    t.io.write ~lba ~data:b
  done

let max_cluster t = t.total_clusters + 1

let alloc_cluster t =
  let rec scan tried cl =
    if tried > t.total_clusters then
      Error (Error.No_space "fat32: no free clusters")
    else begin
      let cl = if cl > max_cluster t then 2 else cl in
      if fat_get t cl = 0 then begin
        fat_set t cl eoc;
        t.free_hint <- cl + 1;
        (* fresh clusters are zeroed, as FatFS does for directories *)
        let zero = Bytes.make (cluster_bytes t) '\000' in
        t.io.write ~lba:(cluster_lba t cl) ~data:zero;
        Ok cl
      end
      else scan (tried + 1) (cl + 1)
    end
  in
  scan 0 (max 2 t.free_hint)

let free_chain t first =
  let rec go cl =
    if cl >= 2 && cl < eoc then begin
      let next = fat_get t cl in
      fat_set t cl 0;
      go next
    end
  in
  go first

let free_clusters t =
  let free = ref 0 in
  for cl = 2 to max_cluster t do
    if fat_get t cl = 0 then incr free
  done;
  !free

let chain_of t first =
  let rec go acc cl =
    if cl < 2 || cl >= eoc then List.rev acc else go (cl :: acc) (fat_get t cl)
  in
  go [] first

(* ---- short names and LFN ---- *)

let valid_short_char c =
  match c with
  | 'A' .. 'Z' | '0' .. '9' | '!' | '#' | '$' | '%' | '&' | '\'' | '('
  | ')' | '-' | '@' | '^' | '_' | '`' | '{' | '}' | '~' ->
      true
  | _ -> false

let to_short_base name =
  let upper = String.uppercase_ascii name in
  let dot = String.rindex_opt upper '.' in
  let stem, ext =
    match dot with
    | Some i when i > 0 ->
        (String.sub upper 0 i, String.sub upper (i + 1) (String.length upper - i - 1))
    | Some _ | None -> (upper, "")
  in
  let clean s =
    String.to_seq s
    |> Seq.filter valid_short_char
    |> String.of_seq
  in
  let stem = clean stem and ext = clean ext in
  let stem = if String.length stem > 8 then String.sub stem 0 6 ^ "~1" else stem in
  let ext = if String.length ext > 3 then String.sub ext 0 3 else ext in
  ((if stem = "" then "X" else stem), ext)

let pack_short (stem, ext) =
  let b = Bytes.make 11 ' ' in
  String.iteri (fun i c -> if i < 8 then Bytes.set b i c) stem;
  String.iteri (fun i c -> if i < 3 then Bytes.set b (8 + i) c) ext;
  Bytes.to_string b

let unpack_short s =
  let stem = String.trim (String.sub s 0 8) in
  let ext = String.trim (String.sub s 8 3) in
  if ext = "" then stem else stem ^ "." ^ ext

let short_checksum s =
  let sum = ref 0 in
  String.iter
    (fun c -> sum := (((!sum land 1) lsl 7) + (!sum lsr 1) + Char.code c) land 0xff)
    s;
  !sum

let needs_lfn name =
  let stem, ext = to_short_base name in
  let reconstructed = if ext = "" then stem else stem ^ "." ^ ext in
  not (String.equal (String.uppercase_ascii name) reconstructed)
  || String.contains stem '~'

(* One LFN entry stores 13 UCS-2 characters at fixed offsets. *)
let lfn_char_offsets = [| 1; 3; 5; 7; 9; 14; 16; 18; 20; 22; 24; 28; 30 |]

let make_lfn_entries name checksum =
  let chars = Array.of_seq (String.to_seq name) in
  let n = Array.length chars in
  let nentries = (n + 12) / 13 in
  List.init nentries (fun i ->
      let e = Bytes.make dirent_bytes '\000' in
      let seq = i + 1 in
      let seq = if i = nentries - 1 then seq lor 0x40 else seq in
      Bytes.set_uint8 e 0 seq;
      Bytes.set_uint8 e 11 0x0f;
      Bytes.set_uint8 e 13 checksum;
      for j = 0 to 12 do
        let idx = (i * 13) + j in
        let off = lfn_char_offsets.(j) in
        if idx < n then begin
          Bytes.set_uint8 e off (Char.code chars.(idx));
          Bytes.set_uint8 e (off + 1) 0
        end
        else if idx = n then begin
          Bytes.set_uint8 e off 0;
          Bytes.set_uint8 e (off + 1) 0
        end
        else begin
          Bytes.set_uint8 e off 0xff;
          Bytes.set_uint8 e (off + 1) 0xff
        end
      done;
      e)
  |> List.rev (* stored last-first on disk *)

let lfn_fragment e =
  let buf = Buffer.create 13 in
  (try
     Array.iter
       (fun off ->
         let lo = Bytes.get_uint8 e off and hi = Bytes.get_uint8 e (off + 1) in
         let code = lo lor (hi lsl 8) in
         if code = 0 || code = 0xffff then raise Exit;
         Buffer.add_char buf (if code < 256 then Char.chr code else '?'))
       lfn_char_offsets
   with Exit -> ());
  Buffer.contents buf

(* ---- directory iteration ---- *)

type raw_entry = {
  re_name : string;  (* long name if present, else short *)
  re_short : string;  (* packed 11-byte short name *)
  re_attr : int;
  re_cluster : int;
  re_size : int;
  re_slots : (int * int) list;  (* (cluster, index) of every slot incl. LFN *)
}

let dir_clusters t first = chain_of t first

let entries_per_cluster t = cluster_bytes t / dirent_bytes

let read_cluster t cl = t.io.read ~lba:(cluster_lba t cl) ~count:t.spc

let write_cluster t cl data = t.io.write ~lba:(cluster_lba t cl) ~data

(* Fold over the live entries of a directory. *)
let iter_dir t first_cluster f =
  let pending_lfn = Buffer.create 64 in
  let pending_slots = ref [] in
  let stop = ref false in
  let clusters = dir_clusters t first_cluster in
  List.iter
    (fun cl ->
      if not !stop then begin
        let data = read_cluster t cl in
        for idx = 0 to entries_per_cluster t - 1 do
          if not !stop then begin
            let off = idx * dirent_bytes in
            let first = Bytes.get_uint8 data off in
            if first = 0 then stop := true
            else if first = 0xe5 then begin
              Buffer.clear pending_lfn;
              pending_slots := []
            end
            else begin
              let attr = Bytes.get_uint8 data (off + 11) in
              if attr = 0x0f then begin
                let e = Bytes.sub data off dirent_bytes in
                (* LFN entries appear last-first; prepend fragments *)
                let frag = lfn_fragment e in
                let existing = Buffer.contents pending_lfn in
                Buffer.clear pending_lfn;
                Buffer.add_string pending_lfn (frag ^ existing);
                pending_slots := (cl, idx) :: !pending_slots
              end
              else begin
                let short = Bytes.sub_string data off 11 in
                let long = Buffer.contents pending_lfn in
                Buffer.clear pending_lfn;
                let slots = List.rev ((cl, idx) :: !pending_slots) in
                pending_slots := [];
                let entry =
                  {
                    re_name = (if long = "" then unpack_short short else long);
                    re_short = short;
                    re_attr = attr;
                    re_cluster =
                      (Bytes.get_uint16_le data (off + 20) lsl 16)
                      lor Bytes.get_uint16_le data (off + 26);
                    re_size = Hw.Le.get_uint32 data (off + 28);
                    re_slots = slots;
                  }
                in
                f entry
              end
            end
          end
        done
      end)
    clusters

let find_entry t dir_cluster name =
  let target = String.lowercase_ascii name in
  let result = ref None in
  iter_dir t dir_cluster (fun e ->
      if !result = None then begin
        if String.equal (String.lowercase_ascii e.re_name) target then
          result := Some e
      end);
  !result

(* ---- path resolution ---- *)

let resolve_dir t path =
  (* Resolve a path to (dir_cluster, is_dir, size, entry option). Root has
     no entry of its own. *)
  let rec walk cluster = function
    | [] -> Ok (`Dir cluster)
    | [ last ] -> (
        match find_entry t cluster last with
        | None -> Error (Error.No_entry ("fat32: not found: " ^ last))
        | Some e -> Ok (`Entry (cluster, e)))
    | comp :: rest -> (
        match find_entry t cluster comp with
        | None -> Error (Error.No_entry ("fat32: not found: " ^ comp))
        | Some e ->
            if e.re_attr land 0x10 <> 0 then
              let sub = if e.re_cluster = 0 then t.root_cluster else e.re_cluster in
              walk sub rest
            else Error (Error.Not_dir ("fat32: not a directory: " ^ comp)))
  in
  walk t.root_cluster (Vpath.split path)

let stat t path =
  match resolve_dir t path with
  | Error e -> Error e
  | Ok (`Dir cl) -> Ok { st_dir = true; st_size = 0; st_cluster = cl }
  | Ok (`Entry (_, e)) ->
      Ok
        {
          st_dir = e.re_attr land 0x10 <> 0;
          st_size = e.re_size;
          st_cluster = e.re_cluster;
        }

let readdir t path =
  let list_of_cluster cl =
    let acc = ref [] in
    iter_dir t cl (fun e ->
        if not (String.equal e.re_name ".") && not (String.equal e.re_name "..")
        then
          acc :=
            ( e.re_name,
              {
                st_dir = e.re_attr land 0x10 <> 0;
                st_size = e.re_size;
                st_cluster = e.re_cluster;
              } )
            :: !acc);
    Ok (List.rev !acc)
  in
  match resolve_dir t path with
  | Error e -> Error e
  | Ok (`Dir cl) -> list_of_cluster cl
  | Ok (`Entry (_, e)) ->
      if e.re_attr land 0x10 <> 0 then
        list_of_cluster (if e.re_cluster = 0 then t.root_cluster else e.re_cluster)
      else Error (Error.Not_dir ("fat32: not a directory: " ^ path))

(* ---- range reads ---- *)

(* Merge a cluster list into maximal contiguous (first, count) runs. *)
let runs_of_clusters clusters =
  let rec go acc = function
    | [] -> List.rev acc
    | cl :: rest -> (
        match acc with
        | (first, count) :: acc' when first + count = cl ->
            go ((first, count + 1) :: acc') rest
        | _ -> go ((cl, 1) :: acc) rest)
  in
  go [] clusters

let read_file t path ~off ~len =
  match stat t path with
  | Error e -> Error e
  | Ok st ->
      if st.st_dir then Error (Error.Is_dir ("fat32: is a directory: " ^ path))
      else if off < 0 || len < 0 then Error (Error.Invalid "fat32: bad range")
      else begin
        let len = min len (max 0 (st.st_size - off)) in
        let out = Bytes.create len in
        if len = 0 then Ok out
        else begin
          let cb = cluster_bytes t in
          let chain = chain_of t st.st_cluster in
          let first_cl_idx = off / cb in
          let last_cl_idx = (off + len - 1) / cb in
          let wanted =
            List.filteri (fun i _ -> i >= first_cl_idx && i <= last_cl_idx) chain
          in
          if List.length wanted < last_cl_idx - first_cl_idx + 1 then
            Error (Error.Invalid "fat32: chain shorter than size")
          else begin
            (* Fetch maximal contiguous runs with single commands. *)
            let runs = runs_of_clusters wanted in
            let buf = Buffer.create (List.length wanted * cb) in
            List.iter
              (fun (first, count) ->
                let data =
                  t.io.read ~lba:(cluster_lba t first) ~count:(count * t.spc)
                in
                Buffer.add_bytes buf data)
              runs;
            let span = Buffer.to_bytes buf in
            let skip = off - (first_cl_idx * cb) in
            Bytes.blit span skip out 0 len;
            Ok out
          end
        end
      end

(* ---- directory entry creation ---- *)

let short_exists t dir_cluster short =
  let found = ref false in
  iter_dir t dir_cluster (fun e ->
      if String.equal e.re_short short then found := true);
  !found

let unique_short t dir_cluster name =
  let stem, ext = to_short_base name in
  let candidate = pack_short (stem, ext) in
  if not (short_exists t dir_cluster candidate) then candidate
  else begin
    let rec try_tail n =
      if n > 9999 then invalid_arg "fat32: short-name space exhausted"
      else begin
        let tail = "~" ^ string_of_int n in
        let keep = min (String.length stem) (8 - String.length tail) in
        let cand = pack_short (String.sub stem 0 keep ^ tail, ext) in
        if short_exists t dir_cluster cand then try_tail (n + 1) else cand
      end
    in
    try_tail 1
  end

(* Extend a directory with one more cluster; returns the new cluster. *)
let extend_dir t dir_cluster =
  match alloc_cluster t with
  | Error e -> Error e
  | Ok fresh ->
      let rec last cl =
        let next = fat_get t cl in
        if next >= eoc || next < 2 then cl else last next
      in
      fat_set t (last dir_cluster) fresh;
      Ok fresh

(* Find [n] consecutive free slots in a directory, extending if needed.
   Returns them as (cluster, index) pairs. *)
let rec find_free_slots t dir_cluster n =
  let run = ref [] in
  let result = ref None in
  List.iter
    (fun cl ->
      if !result = None then begin
        let data = read_cluster t cl in
        for idx = 0 to entries_per_cluster t - 1 do
          if !result = None then begin
            let first = Bytes.get_uint8 data (idx * dirent_bytes) in
            if first = 0 || first = 0xe5 then begin
              run := (cl, idx) :: !run;
              if List.length !run = n then result := Some (List.rev !run)
            end
            else run := []
          end
        done
      end)
    (dir_clusters t dir_cluster);
  match !result with
  | Some found -> Ok found
  | None -> (
      match extend_dir t dir_cluster with
      | Error e -> Error e
      | Ok _ -> find_free_slots t dir_cluster n)

let write_slot t (cl, idx) entry =
  let data = read_cluster t cl in
  Bytes.blit entry 0 data (idx * dirent_bytes) dirent_bytes;
  write_cluster t cl data

let make_short_entry ~short ~attr ~cluster ~size =
  let e = Bytes.make dirent_bytes '\000' in
  Bytes.blit_string short 0 e 0 11;
  Bytes.set_uint8 e 11 attr;
  Bytes.set_uint16_le e 20 (cluster lsr 16);
  Bytes.set_uint16_le e 26 cluster;
  Bytes.set_int32_le e 28 (Int32.of_int size);
  e

let add_entry t dir_cluster name ~attr ~cluster =
  if String.length name = 0 || String.length name > 255 then
    Error (Error.Invalid "fat32: bad name")
  else if find_entry t dir_cluster name <> None then
    Error (Error.Exists ("fat32: exists: " ^ name))
  else begin
    let short = unique_short t dir_cluster name in
    let lfn = if needs_lfn name then make_lfn_entries name (short_checksum short) else [] in
    let nslots = List.length lfn + 1 in
    match find_free_slots t dir_cluster nslots with
    | Error e -> Error e
    | Ok slots ->
        let entries = lfn @ [ make_short_entry ~short ~attr ~cluster ~size:0 ] in
        List.iter2 (write_slot t) slots entries;
        Ok ()
  end

let parent_and_name t path =
  let dir = Vpath.dirname path and name = Vpath.basename path in
  if String.equal name "/" then Error (Error.Invalid "fat32: no name")
  else
    match resolve_dir t dir with
    | Error e -> Error e
    | Ok (`Dir cl) -> Ok (cl, name)
    | Ok (`Entry (_, e)) ->
        if e.re_attr land 0x10 <> 0 then
          Ok ((if e.re_cluster = 0 then t.root_cluster else e.re_cluster), name)
        else Error (Error.Not_dir ("fat32: not a directory: " ^ dir))

let create t path =
  match parent_and_name t path with
  | Error e -> Error e
  | Ok (dir_cl, name) -> add_entry t dir_cl name ~attr:0x20 ~cluster:0

let mkdir t path =
  match parent_and_name t path with
  | Error e -> Error e
  | Ok (dir_cl, name) -> (
      match alloc_cluster t with
      | Error e -> Error e
      | Ok cl -> (
          match add_entry t dir_cl name ~attr:0x10 ~cluster:cl with
          | Error e ->
              free_chain t cl;
              Error e
          | Ok () ->
              let dot = make_short_entry ~short:(pack_short (".", "")) ~attr:0x10 ~cluster:cl ~size:0 in
              let dotdot =
                make_short_entry ~short:(pack_short ("..", "")) ~attr:0x10
                  ~cluster:(if dir_cl = t.root_cluster then 0 else dir_cl)
                  ~size:0
              in
              write_slot t (cl, 0) dot;
              write_slot t (cl, 1) dotdot;
              Ok ()))

(* Update the short entry of an existing file in place. *)
let update_entry t path ~cluster ~size =
  match parent_and_name t path with
  | Error e -> Error e
  | Ok (dir_cl, name) -> (
      match find_entry t dir_cl name with
      | None -> Error (Error.No_entry ("fat32: not found: " ^ path))
      | Some e ->
          let slot = List.nth e.re_slots (List.length e.re_slots - 1) in
          let entry =
            make_short_entry ~short:e.re_short ~attr:e.re_attr ~cluster ~size
          in
          write_slot t slot entry;
          Ok ())

let write_file t path ~off ~data =
  match stat t path with
  | Error e -> Error e
  | Ok st ->
      if st.st_dir then Error (Error.Is_dir ("fat32: is a directory: " ^ path))
      else if off < 0 then Error (Error.Invalid "fat32: bad offset")
      else begin
        let len = Bytes.length data in
        let cb = cluster_bytes t in
        let end_pos = off + len in
        let clusters_needed = max 1 ((end_pos + cb - 1) / cb) in
        (* Ensure the chain is long enough, allocating the head if absent. *)
        let head = ref st.st_cluster in
        let err = ref None in
        if !head = 0 then begin
          match alloc_cluster t with
          | Ok cl -> head := cl
          | Error e -> err := Some e
        end;
        (match !err with
        | Some _ -> ()
        | None ->
            let chain = ref (chain_of t !head) in
            while List.length !chain < clusters_needed && !err = None do
              match extend_dir t !head with
              | Ok _ -> chain := chain_of t !head
              | Error e -> err := Some e
            done);
        match !err with
        | Some e -> Error e
        | None ->
            let chain = Array.of_list (chain_of t !head) in
            let written = ref 0 in
            while !written < len do
              let pos = off + !written in
              let ci = pos / cb in
              let coff = pos mod cb in
              let n = min (len - !written) (cb - coff) in
              let cl = chain.(ci) in
              if n = cb then begin
                (* full-cluster write: no read-modify *)
                write_cluster t cl (Bytes.sub data !written cb)
              end
              else begin
                let cur = read_cluster t cl in
                Bytes.blit data !written cur coff n;
                write_cluster t cl cur
              end;
              written := !written + n
            done;
            let new_size = max st.st_size end_pos in
            (match update_entry t path ~cluster:!head ~size:new_size with
            | Ok () -> ()
            | Error e -> invalid_arg (Error.to_string e));
            Ok len
      end

let truncate t path =
  match stat t path with
  | Error e -> Error e
  | Ok st ->
      if st.st_dir then Error (Error.Is_dir ("fat32: is a directory: " ^ path))
      else begin
        if st.st_cluster >= 2 then free_chain t st.st_cluster;
        update_entry t path ~cluster:0 ~size:0
      end

let unlink t path =
  match parent_and_name t path with
  | Error e -> Error e
  | Ok (dir_cl, name) -> (
      match find_entry t dir_cl name with
      | None -> Error (Error.No_entry ("fat32: not found: " ^ path))
      | Some e ->
          let is_dir = e.re_attr land 0x10 <> 0 in
          let check_empty () =
            if not is_dir then Ok ()
            else begin
              let count = ref 0 in
              iter_dir t e.re_cluster (fun child ->
                  if
                    (not (String.equal child.re_name "."))
                    && not (String.equal child.re_name "..")
                  then incr count);
              if !count = 0 then Ok ()
              else Error (Error.Not_empty "fat32: directory not empty")
            end
          in
          (match check_empty () with
          | Error err -> Error err
          | Ok () ->
              List.iter
                (fun (cl, idx) ->
                  let data = read_cluster t cl in
                  Bytes.set_uint8 data (idx * dirent_bytes) 0xe5;
                  write_cluster t cl data)
                e.re_slots;
              if e.re_cluster >= 2 then free_chain t e.re_cluster;
              Ok ()))
