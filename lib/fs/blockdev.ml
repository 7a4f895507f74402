type t = {
  name : string;
  total_sectors : int;
  read_sectors : lba:int -> count:int -> (Bytes.t, string) result;
  write_sectors : lba:int -> data:Bytes.t -> (unit, string) result;
}

let sector_bytes = Hw.Disk.sector_bytes

(* A cost-free device over [total] sectors of some host-side store:
   range and alignment errors are reported here, so [read] and [write]
   only ever see valid requests. *)
let of_store ~name ~total ~read ~write =
  let read_sectors ~lba ~count =
    if lba < 0 || count <= 0 || lba + count > total then
      Error (Printf.sprintf "%s: read [%d,%d) out of range" name lba (lba + count))
    else Ok (read ~lba ~count)
  in
  let write_sectors ~lba ~data =
    let n = Bytes.length data in
    if n = 0 || n mod sector_bytes <> 0 then
      Error (Printf.sprintf "%s: write not sector-aligned" name)
    else if lba < 0 || lba + (n / sector_bytes) > total then
      Error (Printf.sprintf "%s: write at %d out of range" name lba)
    else begin
      write ~lba data;
      Ok ()
    end
  in
  { name; total_sectors = total; read_sectors; write_sectors }

let of_image ~name image =
  let len = Bytes.length image in
  if len mod sector_bytes <> 0 then
    invalid_arg "Blockdev.of_image: not sector-aligned";
  of_store ~name ~total:(len / sector_bytes)
    ~read:(fun ~lba ~count ->
      Bytes.sub image (lba * sector_bytes) (count * sector_bytes))
    ~write:(fun ~lba data ->
      Bytes.blit data 0 image (lba * sector_bytes) (Bytes.length data))

let ramdisk ~name ~sectors =
  let image = Bytes.make (sectors * sector_bytes) '\000' in
  (of_image ~name image, image)

let of_disk ~name disk =
  of_store ~name ~total:(Hw.Disk.sectors disk) ~read:(Hw.Disk.read disk)
    ~write:(fun ~lba data ->
      Hw.Disk.write disk ~lba ~count:(Bytes.length data / sector_bytes) data)

let of_sd sd ~name ~first_lba ~sectors =
  let read_sectors ~lba ~count =
    Result.map fst (Hw.Sd.read sd ~lba:(first_lba + lba) ~count)
  in
  let write_sectors ~lba ~data =
    Result.map ignore (Hw.Sd.write sd ~lba:(first_lba + lba) ~data)
  in
  { name; total_sectors = sectors; read_sectors; write_sectors }

let sub t ~name ~first_lba ~sectors =
  if first_lba < 0 || first_lba + sectors > t.total_sectors then
    invalid_arg "Blockdev.sub: out of range";
  {
    name;
    total_sectors = sectors;
    read_sectors = (fun ~lba ~count -> t.read_sectors ~lba:(first_lba + lba) ~count);
    write_sectors = (fun ~lba ~data -> t.write_sectors ~lba:(first_lba + lba) ~data);
  }
