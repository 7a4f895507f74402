type partition = { part_type : int; first_lba : int; sectors : int }

let fat32_lba_type = 0x0c
let native_type = 0x83

let entry_offset i = 446 + (i * 16)

let write dev parts =
  if Array.length parts > 4 then Error "mbr: more than 4 partitions"
  else begin
    let sector = Bytes.make Blockdev.sector_bytes '\000' in
    Array.iteri
      (fun i p ->
        let off = entry_offset i in
        Bytes.set_uint8 sector (off + 4) p.part_type;
        Bytes.set_int32_le sector (off + 8) (Int32.of_int p.first_lba);
        Bytes.set_int32_le sector (off + 12) (Int32.of_int p.sectors))
      parts;
    Bytes.set_uint8 sector 510 0x55;
    Bytes.set_uint8 sector 511 0xaa;
    dev.Blockdev.write_sectors ~lba:0 ~data:sector
  end

let read dev =
  match dev.Blockdev.read_sectors ~lba:0 ~count:1 with
  | Error e -> Error e
  | Ok sector ->
      if Bytes.get_uint8 sector 510 <> 0x55 || Bytes.get_uint8 sector 511 <> 0xaa
      then Error "mbr: bad signature"
      else
        Ok
          (Array.init 4 (fun i ->
               let off = entry_offset i in
               {
                 part_type = Bytes.get_uint8 sector (off + 4);
                 first_lba = Hw.Le.get_uint32 sector (off + 8);
                 sectors = Hw.Le.get_uint32 sector (off + 12);
               }))
