(** Tests for the filesystem layer: paths, block devices, MBR, xv6fs and
    FAT32 — including the invariants the paper leans on (the ~270 KB xv6fs
    file limit, FAT32 range reads). *)

open Tharness

(* ---- vpath ---- *)

let vpath_normalize () =
  check_string "slashes" "/a/b/c" (Fs.Vpath.normalize "/a//b/./c");
  check_string "dotdot" "/a/c" (Fs.Vpath.normalize "/a/b/../c");
  check_string "root dotdot" "/" (Fs.Vpath.normalize "/../..");
  check_string "trailing" "/a" (Fs.Vpath.normalize "/a/");
  check_string "empty" "/" (Fs.Vpath.normalize "")

let vpath_parts () =
  check_string "basename" "c" (Fs.Vpath.basename "/a/b/c");
  check_string "basename root" "/" (Fs.Vpath.basename "/");
  check_string "dirname" "/a/b" (Fs.Vpath.dirname "/a/b/c");
  check_string "dirname of top" "/" (Fs.Vpath.dirname "/a");
  check_string "join rel" "/a/b" (Fs.Vpath.join "/a" "b");
  check_string "join abs wins" "/x" (Fs.Vpath.join "/a" "/x")

let vpath_prefix () =
  check_bool "prefix" true (Fs.Vpath.is_prefix ~prefix:"/d" "/d/x");
  check_bool "not string prefix" false (Fs.Vpath.is_prefix ~prefix:"/d" "/dx");
  check_bool "strip" true
    (Fs.Vpath.strip_prefix ~prefix:"/d" "/d/x/y" = Some "/x/y");
  check_bool "strip self" true (Fs.Vpath.strip_prefix ~prefix:"/d" "/d" = Some "/");
  check_bool "strip mismatch" true (Fs.Vpath.strip_prefix ~prefix:"/d" "/e" = None)

let vpath_normalize_idempotent =
  qcheck "normalize is idempotent" QCheck.(string_of_size (Gen.int_bound 40))
    (fun s ->
      let once = Fs.Vpath.normalize s in
      String.equal once (Fs.Vpath.normalize once))

let suite_vpath =
  ( "fs.vpath",
    [
      quick "normalize" vpath_normalize;
      quick "parts" vpath_parts;
      quick "prefix ops" vpath_prefix;
      vpath_normalize_idempotent;
    ] )

(* ---- blockdev + mbr ---- *)

let blockdev_bounds () =
  let dev, _ = Fs.Blockdev.ramdisk ~name:"t" ~sectors:16 in
  ignore (check_ok "in range" (dev.Fs.Blockdev.read_sectors ~lba:15 ~count:1));
  ignore (check_err "past end" (dev.Fs.Blockdev.read_sectors ~lba:15 ~count:2));
  ignore (check_err "unaligned" (dev.Fs.Blockdev.write_sectors ~lba:0 ~data:(Bytes.make 100 'x')))

let blockdev_sub_window () =
  let dev, _ = Fs.Blockdev.ramdisk ~name:"t" ~sectors:16 in
  let sub = Fs.Blockdev.sub dev ~name:"p" ~first_lba:8 ~sectors:8 in
  let data = Bytes.make 512 'q' in
  ignore (check_ok "sub write" (sub.Fs.Blockdev.write_sectors ~lba:0 ~data));
  let back = check_ok "parent read" (dev.Fs.Blockdev.read_sectors ~lba:8 ~count:1) in
  check_bool "window maps" true (Bytes.equal back data)

let mbr_roundtrip () =
  let dev, _ = Fs.Blockdev.ramdisk ~name:"t" ~sectors:64 in
  let parts =
    [|
      { Fs.Mbr.part_type = Fs.Mbr.native_type; first_lba = 2048; sectors = 8192 };
      { Fs.Mbr.part_type = Fs.Mbr.fat32_lba_type; first_lba = 10240; sectors = 4096 };
    |]
  in
  ignore (check_ok "write" (Fs.Mbr.write dev parts));
  let back = check_ok "read" (Fs.Mbr.read dev) in
  check_int "type 1" Fs.Mbr.native_type back.(0).Fs.Mbr.part_type;
  check_int "lba 2" 10240 back.(1).Fs.Mbr.first_lba;
  check_int "empty slot" 0 back.(3).Fs.Mbr.part_type

let mbr_bad_signature () =
  let dev, _ = Fs.Blockdev.ramdisk ~name:"t" ~sectors:4 in
  ignore (check_err "no signature" (Fs.Mbr.read dev))

let suite_blockdev =
  ( "fs.blockdev",
    [
      quick "bounds" blockdev_bounds;
      quick "sub window" blockdev_sub_window;
      quick "mbr roundtrip" mbr_roundtrip;
      quick "mbr bad signature" mbr_bad_signature;
    ] )

(* ---- xv6fs ---- *)

let mkfs_mounted () =
  let img = Fs.Xv6fs.mkfs ~total_blocks:1024 ~ninodes:64 () in
  let t = check_fs_ok "mount" (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
  (img, t)

let xv6_create_read_write () =
  let _, t = mkfs_mounted () in
  let f = check_fs_ok "create" (Fs.Xv6fs.create t "/f" Fs.Xv6fs.Reg) in
  let data = Bytes.of_string "hello xv6fs" in
  check_int "written" (Bytes.length data)
    (check_fs_ok "write" (Fs.Xv6fs.writei t f ~off:0 ~data));
  let back = check_fs_ok "read" (Fs.Xv6fs.readi t f ~off:0 ~len:100) in
  check_bool "roundtrip" true (Bytes.equal back data);
  let st = Fs.Xv6fs.stat_of t f in
  check_int "size" (Bytes.length data) st.Fs.Xv6fs.st_size;
  check_int "nlink" 1 st.Fs.Xv6fs.st_nlink

let xv6_offsets_and_sparse () =
  let _, t = mkfs_mounted () in
  let f = check_fs_ok "create" (Fs.Xv6fs.create t "/sparse" Fs.Xv6fs.Reg) in
  ignore (check_fs_ok "far write" (Fs.Xv6fs.writei t f ~off:5000 ~data:(Bytes.of_string "end")));
  let hole = check_fs_ok "hole reads zero" (Fs.Xv6fs.readi t f ~off:100 ~len:10) in
  check_bool "zeros" true (Bytes.for_all (fun c -> c = '\000') hole);
  let tail = check_fs_ok "tail" (Fs.Xv6fs.readi t f ~off:5000 ~len:3) in
  check_string "tail content" "end" (Bytes.to_string tail)

let xv6_max_file_size () =
  let img = Fs.Xv6fs.mkfs ~total_blocks:2048 ~ninodes:32 () in
  let t = check_fs_ok "mount" (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
  let f = check_fs_ok "create" (Fs.Xv6fs.create t "/big" Fs.Xv6fs.Reg) in
  check_int "274432 bytes exactly" Fs.Xv6fs.max_file_bytes
    (check_fs_ok "max write"
       (Fs.Xv6fs.writei t f ~off:0 ~data:(Bytes.make Fs.Xv6fs.max_file_bytes 'x')));
  check_fs_err "one more byte fails"
    (Fs.Error.Too_big "xv6fs: file too large")
    (Fs.Xv6fs.writei t f ~off:Fs.Xv6fs.max_file_bytes ~data:(Bytes.of_string "y"));
  (* the paper's number: ~268 KB *)
  check_int "268 KB limit" (268 * 1024) Fs.Xv6fs.max_file_bytes

let xv6_directories () =
  let _, t = mkfs_mounted () in
  ignore (check_fs_ok "mkdir" (Fs.Xv6fs.create t "/d" Fs.Xv6fs.Dir));
  ignore (check_fs_ok "nested" (Fs.Xv6fs.create t "/d/e" Fs.Xv6fs.Dir));
  ignore (check_fs_ok "file in nested" (Fs.Xv6fs.create t "/d/e/f" Fs.Xv6fs.Reg));
  let node = check_fs_ok "lookup deep" (Fs.Xv6fs.lookup t "/d/e/f") in
  check_bool "inum positive" true (Fs.Xv6fs.inum node > 0);
  let listing = check_fs_ok "readdir" (Fs.Xv6fs.readdir t (check_fs_ok "lookup d" (Fs.Xv6fs.lookup t "/d"))) in
  check_bool "contains e" true (List.exists (fun (n, _) -> n = "e") listing);
  check_fs_err "duplicate create" (Fs.Error.Exists "xv6fs: exists: /d")
    (Fs.Xv6fs.create t "/d" Fs.Xv6fs.Dir);
  check_fs_err "lookup missing" (Fs.Error.No_entry "xv6fs: no such entry: nope")
    (Fs.Xv6fs.lookup t "/nope")

let xv6_unlink_and_block_reuse () =
  let _, t = mkfs_mounted () in
  let free0 = Fs.Xv6fs.free_data_blocks t in
  let f = check_fs_ok "create" (Fs.Xv6fs.create t "/tmp" Fs.Xv6fs.Reg) in
  ignore (check_fs_ok "fill" (Fs.Xv6fs.writei t f ~off:0 ~data:(Bytes.make 50_000 'x')));
  check_bool "blocks consumed" true (Fs.Xv6fs.free_data_blocks t < free0);
  ignore (check_fs_ok "unlink" (Fs.Xv6fs.unlink t "/tmp"));
  check_int "all blocks returned" free0 (Fs.Xv6fs.free_data_blocks t);
  check_fs_err "gone" (Fs.Error.No_entry "xv6fs: no such entry: tmp")
    (Fs.Xv6fs.lookup t "/tmp")

let xv6_unlink_rules () =
  let _, t = mkfs_mounted () in
  ignore (check_fs_ok "mkdir" (Fs.Xv6fs.create t "/d" Fs.Xv6fs.Dir));
  ignore (check_fs_ok "child" (Fs.Xv6fs.create t "/d/x" Fs.Xv6fs.Reg));
  check_fs_err "non-empty dir" (Fs.Error.Not_empty "xv6fs: directory not empty")
    (Fs.Xv6fs.unlink t "/d");
  ignore (check_fs_ok "unlink child" (Fs.Xv6fs.unlink t "/d/x"));
  ignore (check_fs_ok "now empty" (Fs.Xv6fs.unlink t "/d"));
  check_fs_err "cannot unlink root" (Fs.Error.Invalid "xv6fs: cannot unlink")
    (Fs.Xv6fs.unlink t "/")

let xv6_persistence_across_mounts () =
  let img, t = mkfs_mounted () in
  let f = check_fs_ok "create" (Fs.Xv6fs.create t "/persist" Fs.Xv6fs.Reg) in
  ignore (check_fs_ok "write" (Fs.Xv6fs.writei t f ~off:0 ~data:(Bytes.of_string "durable")));
  (* remount from the same image: a fresh instance must see the data *)
  let t2 = check_fs_ok "remount" (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
  let node = check_fs_ok "lookup" (Fs.Xv6fs.lookup t2 "/persist") in
  let back = check_fs_ok "read" (Fs.Xv6fs.readi t2 node ~off:0 ~len:100) in
  check_string "content survives" "durable" (Bytes.to_string back)

let xv6_dev_nodes () =
  let _, t = mkfs_mounted () in
  let node = check_fs_ok "mknod" (Fs.Xv6fs.create t "/console" Fs.Xv6fs.Dev) in
  Fs.Xv6fs.set_dev t node ~major:1 ~minor:2;
  check_bool "dev numbers" true (Fs.Xv6fs.dev_of t node = (1, 2))

let xv6_out_of_inodes () =
  (* ninodes = 4: inode 0 reserved, 1 is the root -> two free inodes *)
  let img = Fs.Xv6fs.mkfs ~total_blocks:512 ~ninodes:4 () in
  let t = check_fs_ok "mount" (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
  ignore (check_fs_ok "1" (Fs.Xv6fs.create t "/a" Fs.Xv6fs.Reg));
  ignore (check_fs_ok "2" (Fs.Xv6fs.create t "/b" Fs.Xv6fs.Reg));
  check_fs_err "exhausted" (Fs.Error.No_space "xv6fs: out of inodes")
    (Fs.Xv6fs.create t "/c" Fs.Xv6fs.Reg)

let xv6_random_roundtrip =
  qcheck ~count:30 "xv6fs random chunked writes read back"
    QCheck.(list_of_size (Gen.int_range 1 12) (pair (int_bound 40_000) (int_bound 3_000)))
    (fun chunks ->
      let img = Fs.Xv6fs.mkfs ~total_blocks:2048 ~ninodes:16 () in
      let t = Result.get_ok (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
      let f = Result.get_ok (Fs.Xv6fs.create t "/r" Fs.Xv6fs.Reg) in
      let shadow = Bytes.make Fs.Xv6fs.max_file_bytes '\000' in
      let max_end = ref 0 in
      let ok =
        List.for_all
          (fun (off, len) ->
            let len = min len (Fs.Xv6fs.max_file_bytes - off) in
            if len <= 0 then true
            else begin
              let data = Bytes.init len (fun i -> Char.chr ((off + i) land 0xff)) in
              Bytes.blit data 0 shadow off len;
              max_end := max !max_end (off + len);
              match Fs.Xv6fs.writei t f ~off ~data with
              | Ok n -> n = len
              | Error _ -> false
            end)
          chunks
      in
      ok
      &&
      match Fs.Xv6fs.readi t f ~off:0 ~len:!max_end with
      | Ok back -> Bytes.equal back (Bytes.sub shadow 0 !max_end)
      | Error _ -> false)

(* ---- the extent (doubly-indirect) layout ---- *)

let ext_mounted ?(total_blocks = 2200) () =
  let img = Fs.Xv6fs.mkfs ~ext:true ~total_blocks ~ninodes:16 () in
  (img, check_fs_ok "mount" (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)))

let xv6_ext_cap () =
  let _, t = ext_mounted () in
  check_int "ext cap" ((11 + 256 + (256 * 256)) * 1024) Fs.Xv6fs.max_file_bytes_ext;
  check_int "instance cap" Fs.Xv6fs.max_file_bytes_ext (Fs.Xv6fs.max_bytes t);
  (* the legacy constant the paper leans on is untouched *)
  check_int "legacy cap" (268 * 1024) Fs.Xv6fs.max_file_bytes

(* write/read/truncate/unlink across the old ~270 KB boundary: a 1.5 MB
   file needs the doubly-indirect tree *)
let xv6_ext_large_file () =
  let img = Fs.Xv6fs.mkfs ~ext:true ~total_blocks:2200 ~ninodes:16 () in
  let t = check_fs_ok "mount" (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
  let free0 = Fs.Xv6fs.free_data_blocks t in
  let f = check_fs_ok "create" (Fs.Xv6fs.create t "/big" Fs.Xv6fs.Reg) in
  let size = 3 * 1024 * 1024 / 2 in
  let data = Bytes.init size (fun i -> Char.chr ((i * 13) land 0xff)) in
  check_int "1.5 MB written" size
    (check_fs_ok "write past the old cap" (Fs.Xv6fs.writei t f ~off:0 ~data));
  check_bool "beyond legacy cap" true (size > Fs.Xv6fs.max_file_bytes);
  let back = check_fs_ok "read all" (Fs.Xv6fs.readi t f ~off:0 ~len:size) in
  check_bool "roundtrip" true (Bytes.equal back data);
  (* interior reads straddling the single/double indirect boundary *)
  List.iter
    (fun off ->
      let b = check_fs_ok "interior" (Fs.Xv6fs.readi t f ~off ~len:2048) in
      check_bool
        (Printf.sprintf "interior %d" off)
        true
        (Bytes.equal b (Bytes.sub data off 2048)))
    [ 0; 10 * 1024; (11 + 256) * 1024 - 1024; 1_000_000 ];
  (* a remount sees the same bytes *)
  let t2 = check_fs_ok "remount" (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
  let f2 = check_fs_ok "lookup" (Fs.Xv6fs.lookup t2 "/big") in
  check_int "size survives" size (Fs.Xv6fs.stat_of t2 f2).Fs.Xv6fs.st_size;
  (* truncate returns every block, including the indirect tree *)
  Fs.Xv6fs.truncate t f;
  check_int "truncate frees all" free0 (Fs.Xv6fs.free_data_blocks t);
  ignore (check_fs_ok "rewrite" (Fs.Xv6fs.writei t f ~off:0 ~data:(Bytes.make 500_000 'z')));
  ignore (check_fs_ok "unlink" (Fs.Xv6fs.unlink t "/big"));
  check_int "unlink frees all" free0 (Fs.Xv6fs.free_data_blocks t);
  let r = Fs.Xv6fs.fsck t in
  check_bool "fsck clean after churn" true r.Fs.Xv6fs.fsck_clean

let xv6_ext_cap_enforced () =
  (* a sparse write just under the cap lands; at the cap it errors *)
  let _, t = ext_mounted () in
  let f = check_fs_ok "create" (Fs.Xv6fs.create t "/edge" Fs.Xv6fs.Reg) in
  ignore
    (check_fs_ok "last byte"
       (Fs.Xv6fs.writei t f ~off:(Fs.Xv6fs.max_file_bytes_ext - 1)
          ~data:(Bytes.of_string "x")));
  check_fs_err "one past the cap"
    (Fs.Error.Too_big "xv6fs: file too large")
    (Fs.Xv6fs.writei t f ~off:Fs.Xv6fs.max_file_bytes_ext
       ~data:(Bytes.of_string "y"))

(* random write/truncate sequences vs an in-memory model, on the extent
   layout, crossing the legacy boundary *)
let xv6_ext_random_model =
  qcheck ~count:20 "ext random write/truncate vs model"
    QCheck.(
      list_of_size (Gen.int_range 1 10)
        (pair (int_bound 400_000) (int_bound 30_000)))
    (fun ops ->
      let img = Fs.Xv6fs.mkfs ~ext:true ~total_blocks:2048 ~ninodes:8 () in
      let t = Result.get_ok (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
      let f = Result.get_ok (Fs.Xv6fs.create t "/m" Fs.Xv6fs.Reg) in
      let cap = 450_000 in
      let shadow = Bytes.make cap '\000' in
      let size = ref 0 in
      let ok =
        List.for_all
          (fun (off, len) ->
            if len = 0 then begin
              (* zero-length op doubles as a truncate probe *)
              Fs.Xv6fs.truncate t f;
              Bytes.fill shadow 0 cap '\000';
              size := 0;
              true
            end
            else begin
              let len = min len (cap - off) in
              if len <= 0 then true
              else begin
                let data =
                  Bytes.init len (fun i -> Char.chr ((off + (i * 3)) land 0xff))
                in
                Bytes.blit data 0 shadow off len;
                size := max !size (off + len);
                match Fs.Xv6fs.writei t f ~off ~data with
                | Ok n -> n = len
                | Error _ -> false
              end
            end)
          ops
      in
      ok
      && (match Fs.Xv6fs.readi t f ~off:0 ~len:!size with
         | Ok back -> Bytes.equal back (Bytes.sub shadow 0 !size)
         | Error _ -> false)
      && (Fs.Xv6fs.fsck t).Fs.Xv6fs.fsck_clean)

let suite_xv6fs =
  ( "fs.xv6fs",
    [
      quick "create read write" xv6_create_read_write;
      quick "offsets and sparse files" xv6_offsets_and_sparse;
      quick "max file size is the paper's 268KB" xv6_max_file_size;
      quick "directories" xv6_directories;
      quick "unlink frees blocks" xv6_unlink_and_block_reuse;
      quick "unlink rules" xv6_unlink_rules;
      quick "persistence across mounts" xv6_persistence_across_mounts;
      quick "device nodes" xv6_dev_nodes;
      quick "out of inodes" xv6_out_of_inodes;
      xv6_random_roundtrip;
      quick "ext: caps" xv6_ext_cap;
      quick "ext: 1.5MB write/read/truncate/unlink" xv6_ext_large_file;
      quick "ext: cap enforced" xv6_ext_cap_enforced;
      xv6_ext_random_model;
    ] )

(* ---- fat32 ---- *)

let fat_fresh ?(sectors = 65536) () =
  let dev, _ = Fs.Blockdev.ramdisk ~name:"sd" ~sectors in
  let io = Fs.Fat32.io_of_blockdev dev in
  Fs.Fat32.mkfs io ~total_sectors:sectors;
  check_fs_ok "mount" (Fs.Fat32.mount io)

let fat_create_write_read () =
  let t = fat_fresh () in
  ignore (check_fs_ok "create" (Fs.Fat32.create t "/file.txt"));
  let data = Bytes.of_string "fat32 payload" in
  check_int "written" (Bytes.length data)
    (check_fs_ok "write" (Fs.Fat32.write_file t "/file.txt" ~off:0 ~data));
  let back = check_fs_ok "read" (Fs.Fat32.read_file t "/file.txt" ~off:0 ~len:100) in
  check_bool "roundtrip" true (Bytes.equal back data);
  let st = check_fs_ok "stat" (Fs.Fat32.stat t "/file.txt") in
  check_int "size" (Bytes.length data) st.Fs.Fat32.st_size;
  check_bool "not dir" false st.Fs.Fat32.st_dir

let fat_long_names () =
  let t = fat_fresh () in
  let name = "/A Quite Long File Name With Spaces.document" in
  ignore (check_fs_ok "create lfn" (Fs.Fat32.create t name));
  ignore (check_fs_ok "stat exact" (Fs.Fat32.stat t name));
  (* case-insensitive match, like FAT *)
  ignore
    (check_fs_ok "stat case-insensitive"
       (Fs.Fat32.stat t "/a quite long file name with spaces.DOCUMENT"));
  let listing = check_fs_ok "readdir" (Fs.Fat32.readdir t "/") in
  check_bool "long name restored" true
    (List.exists
       (fun (n, _) -> String.equal n "A Quite Long File Name With Spaces.document")
       listing)

let fat_short_name_collisions () =
  let t = fat_fresh () in
  (* both map to LONGFI~1.TXT-ish short names; tails must disambiguate *)
  ignore (check_fs_ok "first" (Fs.Fat32.create t "/longfilename-one.txt"));
  ignore (check_fs_ok "second" (Fs.Fat32.create t "/longfilename-two.txt"));
  ignore (check_fs_ok "stat 1" (Fs.Fat32.stat t "/longfilename-one.txt"));
  ignore (check_fs_ok "stat 2" (Fs.Fat32.stat t "/longfilename-two.txt"));
  check_int "two entries" 2 (List.length (check_fs_ok "ls" (Fs.Fat32.readdir t "/")))

let fat_subdirectories () =
  let t = fat_fresh () in
  ignore (check_fs_ok "mkdir" (Fs.Fat32.mkdir t "/music"));
  ignore (check_fs_ok "nested" (Fs.Fat32.mkdir t "/music/rock"));
  ignore (check_fs_ok "create deep" (Fs.Fat32.create t "/music/rock/song.vogg"));
  ignore
    (check_fs_ok "write deep"
       (Fs.Fat32.write_file t "/music/rock/song.vogg" ~off:0
          ~data:(Bytes.make 10_000 'n')));
  let st = check_fs_ok "stat dir" (Fs.Fat32.stat t "/music") in
  check_bool "is dir" true st.Fs.Fat32.st_dir;
  check_fs_err "unlink non-empty" (Fs.Error.Not_empty "fat32: directory not empty")
    (Fs.Fat32.unlink t "/music");
  check_fs_err "not a dir"
    (Fs.Error.Not_dir "fat32: not a directory: /music/rock/song.vogg")
    (Fs.Fat32.readdir t "/music/rock/song.vogg")

let fat_big_file_and_offsets () =
  let t = fat_fresh () in
  ignore (check_fs_ok "create" (Fs.Fat32.create t "/big.bin"));
  let data = Bytes.init 300_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  ignore (check_fs_ok "write" (Fs.Fat32.write_file t "/big.bin" ~off:0 ~data));
  (* random interior reads *)
  List.iter
    (fun (off, len) ->
      let back = check_fs_ok "interior read" (Fs.Fat32.read_file t "/big.bin" ~off ~len) in
      check_bool
        (Printf.sprintf "interior %d+%d" off len)
        true
        (Bytes.equal back (Bytes.sub data off len)))
    [ (0, 512); (4095, 2); (123_456, 10_000); (299_000, 1_000) ];
  (* short read at EOF *)
  let tail = check_fs_ok "eof read" (Fs.Fat32.read_file t "/big.bin" ~off:299_999 ~len:100) in
  check_int "short read" 1 (Bytes.length tail)

let fat_overwrite_and_extend () =
  let t = fat_fresh () in
  ignore (check_fs_ok "create" (Fs.Fat32.create t "/f"));
  ignore (check_fs_ok "write" (Fs.Fat32.write_file t "/f" ~off:0 ~data:(Bytes.of_string "aaaa")));
  ignore (check_fs_ok "patch" (Fs.Fat32.write_file t "/f" ~off:2 ~data:(Bytes.of_string "XX")));
  ignore (check_fs_ok "extend" (Fs.Fat32.write_file t "/f" ~off:4 ~data:(Bytes.of_string "bb")));
  let back = check_fs_ok "read" (Fs.Fat32.read_file t "/f" ~off:0 ~len:10) in
  check_string "merged" "aaXXbb" (Bytes.to_string back)

let fat_truncate_and_cluster_reuse () =
  let t = fat_fresh () in
  let free0 = Fs.Fat32.free_clusters t in
  ignore (check_fs_ok "create" (Fs.Fat32.create t "/t"));
  ignore (check_fs_ok "fill" (Fs.Fat32.write_file t "/t" ~off:0 ~data:(Bytes.make 100_000 'x')));
  check_bool "clusters consumed" true (Fs.Fat32.free_clusters t < free0);
  ignore (check_fs_ok "truncate" (Fs.Fat32.truncate t "/t"));
  check_int "clusters freed" free0 (Fs.Fat32.free_clusters t);
  check_int "size zero" 0 (check_fs_ok "stat" (Fs.Fat32.stat t "/t")).Fs.Fat32.st_size

let fat_unlink () =
  let t = fat_fresh () in
  let free0 = Fs.Fat32.free_clusters t in
  ignore (check_fs_ok "create" (Fs.Fat32.create t "/gone.txt"));
  ignore (check_fs_ok "fill" (Fs.Fat32.write_file t "/gone.txt" ~off:0 ~data:(Bytes.make 9_000 'x')));
  ignore (check_fs_ok "unlink" (Fs.Fat32.unlink t "/gone.txt"));
  check_fs_err "stat gone" (Fs.Error.No_entry "fat32: not found: gone.txt")
    (Fs.Fat32.stat t "/gone.txt");
  check_int "space reclaimed" free0 (Fs.Fat32.free_clusters t);
  (* the name is reusable *)
  ignore (check_fs_ok "recreate" (Fs.Fat32.create t "/gone.txt"))

let fat_many_files_extend_directory () =
  let t = fat_fresh () in
  (* enough LFN entries to spill the root directory past one cluster *)
  for i = 1 to 120 do
    ignore
      (check_fs_ok "create many"
         (Fs.Fat32.create t (Printf.sprintf "/a fairly long name number %03d.txt" i)))
  done;
  check_int "all listed" 120 (List.length (check_fs_ok "ls" (Fs.Fat32.readdir t "/")))

let fat_persistence_across_mounts () =
  let dev, _ = Fs.Blockdev.ramdisk ~name:"sd" ~sectors:65536 in
  let io = Fs.Fat32.io_of_blockdev dev in
  Fs.Fat32.mkfs io ~total_sectors:65536;
  let t = check_fs_ok "mount" (Fs.Fat32.mount io) in
  ignore (check_fs_ok "create" (Fs.Fat32.create t "/keep.dat"));
  ignore (check_fs_ok "write" (Fs.Fat32.write_file t "/keep.dat" ~off:0 ~data:(Bytes.of_string "persist")));
  let t2 = check_fs_ok "remount" (Fs.Fat32.mount io) in
  let back = check_fs_ok "read" (Fs.Fat32.read_file t2 "/keep.dat" ~off:0 ~len:10) in
  check_string "content" "persist" (Bytes.to_string back)

let fat_random_roundtrip =
  qcheck ~count:25 "fat32 random file contents roundtrip"
    QCheck.(pair small_nat (int_range 1 120_000))
    (fun (seed, size) ->
      let t = fat_fresh () in
      let rng = Sim.Rng.create (Int64.of_int (seed + 1)) in
      let data = Bytes.init size (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
      ignore (check_fs_ok "create" (Fs.Fat32.create t "/r.bin"));
      match Fs.Fat32.write_file t "/r.bin" ~off:0 ~data with
      | Error _ -> false
      | Ok _ -> (
          match Fs.Fat32.read_file t "/r.bin" ~off:0 ~len:size with
          | Ok back -> Bytes.equal back data
          | Error _ -> false))

let suite_fat32 =
  ( "fs.fat32",
    [
      quick "create write read" fat_create_write_read;
      quick "long file names" fat_long_names;
      quick "short-name collisions" fat_short_name_collisions;
      quick "subdirectories" fat_subdirectories;
      quick "big file and offsets" fat_big_file_and_offsets;
      quick "overwrite and extend" fat_overwrite_and_extend;
      quick "truncate reuses clusters" fat_truncate_and_cluster_reuse;
      quick "unlink" fat_unlink;
      quick "directory growth" fat_many_files_extend_directory;
      quick "persistence across mounts" fat_persistence_across_mounts;
      fat_random_roundtrip;
    ] )
