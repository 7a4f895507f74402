(* vos_mkfs — development-machine tool: build xv6fs or FAT32 images from a
   host directory tree, like the paper's build scripts that pack the
   ramdisk and SD partition.

     vos_mkfs xv6 out.img dir/
     vos_mkfs fat32 out.img dir/ [size_mib]
*)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  Bytes.of_string data

(* (relative path, contents) for every regular file under [root] *)
let walk root =
  let rec go rel acc =
    let full = Filename.concat root rel in
    if Sys.is_directory full then
      Array.fold_left
        (fun acc name -> go (if rel = "" then name else Filename.concat rel name) acc)
        acc (Sys.readdir full)
    else ("/" ^ String.map (fun c -> if c = '\\' then '/' else c) rel, read_file full) :: acc
  in
  List.rev (go "" [])

let write_image path bytes =
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let build_xv6 out dir =
  let files = walk dir in
  let content = List.fold_left (fun a (_, d) -> a + Bytes.length d) 0 files in
  let total_blocks = max 512 ((content * 3 / 2 / Fs.Xv6fs.block_bytes) + 256) in
  let image = Fs.Xv6fs.mkfs ~total_blocks ~ninodes:(max 64 (List.length files * 2)) () in
  let fs = Result.get_ok (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image image)) in
  List.iter
    (fun (path, data) ->
      (* create parents *)
      let rec mkdirs built = function
        | [] -> ()
        | comp :: rest ->
            let next = built ^ "/" ^ comp in
            (match Fs.Xv6fs.lookup fs next with
            | Ok _ -> ()
            | Error _ -> ignore (Result.get_ok (Fs.Xv6fs.create fs next Fs.Xv6fs.Dir)));
            mkdirs next rest
      in
      mkdirs "" (Fs.Vpath.split (Fs.Vpath.dirname path));
      let node = Result.get_ok (Fs.Xv6fs.create fs path Fs.Xv6fs.Reg) in
      ignore (Result.get_ok (Fs.Xv6fs.writei fs node ~off:0 ~data)))
    files;
  write_image out image;
  Printf.printf "xv6fs image: %d files, %d blocks -> %s\n" (List.length files)
    total_blocks out

let build_fat out dir size_mib =
  let sectors = size_mib * 2048 in
  let dev, image = Fs.Blockdev.ramdisk ~name:"img" ~sectors in
  let io = Fs.Fat32.io_of_blockdev dev in
  Fs.Fat32.mkfs io ~total_sectors:sectors;
  let fat = Result.get_ok (Fs.Fat32.mount io) in
  let files = walk dir in
  List.iter
    (fun (path, data) ->
      let rec mkdirs built = function
        | [] -> ()
        | comp :: rest ->
            let next = built ^ "/" ^ comp in
            (match Fs.Fat32.stat fat next with
            | Ok _ -> ()
            | Error _ -> ignore (Result.get_ok (Fs.Fat32.mkdir fat next)));
            mkdirs next rest
      in
      mkdirs "" (Fs.Vpath.split (Fs.Vpath.dirname path));
      (match Fs.Fat32.create fat path with
      | Ok () -> ()
      | Error e -> failwith (Fs.Error.to_string e));
      ignore (Result.get_ok (Fs.Fat32.write_file fat path ~off:0 ~data)))
    files;
  write_image out image;
  Printf.printf "FAT32 image: %d files, %d MiB -> %s\n" (List.length files)
    size_mib out

let () =
  match Sys.argv with
  | [| _; "xv6"; out; dir |] -> build_xv6 out dir
  | [| _; "fat32"; out; dir |] -> build_fat out dir 32
  | [| _; "fat32"; out; dir; size |] -> build_fat out dir (int_of_string size)
  | _ ->
      prerr_endline "usage: vos_mkfs (xv6|fat32) out.img dir [size_mib]";
      exit 1
