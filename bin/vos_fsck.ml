(* vos_fsck — development-machine tool: check an xv6fs image for
   consistency, replaying its journal first if it has one (exactly what
   the kernel does at mount). Exit status 0 = clean, 1 = corrupt,
   2 = not mountable.

     vos_fsck image.img
*)

let read_image path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  Bytes.of_string data

let write_image path bytes =
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let () =
  match Sys.argv with
  | [| _; path |] -> (
      let image = read_image path in
      match Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image image) with
      | Error e ->
          Printf.eprintf "vos_fsck: %s: %s\n" path (Fs.Error.to_string e);
          exit 2
      | Ok fs ->
          let replayed = Fs.Xv6fs.log_replayed fs in
          if replayed > 0 then begin
            (* mounting installed a committed transaction; persist it *)
            Printf.printf "journal: replayed %d blocks\n" replayed;
            write_image path image
          end;
          let r = Fs.Xv6fs.fsck fs in
          List.iter print_endline r.Fs.Xv6fs.fsck_errors;
          Printf.printf "%s: %s — %d dirs, %d files, %d blocks in use%s\n" path
            (if r.Fs.Xv6fs.fsck_clean then "clean" else "CORRUPT")
            r.Fs.Xv6fs.fsck_dirs r.Fs.Xv6fs.fsck_files
            r.Fs.Xv6fs.fsck_data_blocks
            (if Fs.Xv6fs.journaled fs then " (journaled)" else "");
          exit (if r.Fs.Xv6fs.fsck_clean then 0 else 1))
  | _ ->
      prerr_endline "usage: vos_fsck image.img";
      exit 1
