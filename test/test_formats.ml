(** The byte layouts of every disk and wire format: MD5 pins of what the
    encoders write and the decoders read back, and hostile copies of the
    staged assets that the decoders must refuse without raising. The
    staged assets' own bytes are pinned in [Test_proto]. *)

open Tharness

let md5 b = Digest.to_hex (Digest.bytes b)

(* Each int as 4 little-endian bytes: pixels, palettes and indices all
   fit in 32 bits. *)
let ints_md5 arrays =
  let n = List.fold_left (fun acc a -> acc + Array.length a) 0 arrays in
  let b = Bytes.create (4 * n) in
  let pos = ref 0 in
  List.iter
    (Array.iter (fun v ->
         Bytes.set_int32_le b !pos (Int32.of_int v);
         pos := !pos + 4))
    arrays;
  md5 b

(* Check every pin before failing, so one run names every moved value. *)
let check_pins what pins =
  match
    List.filter_map
      (fun (label, want, got) ->
        if String.equal want got then None
        else Some (Printf.sprintf "%s: want %S got %S" label want got))
      pins
  with
  | [] -> ()
  | moved -> Alcotest.failf "%s moved:\n%s" what (String.concat "\n" moved)

(* One VELF image per registered program, at the sizes the kernel's
   ramdisk gives them. *)
let velf_images_pinned () =
  let want =
    [
      ("hello", "3a93c908a3495107e569d36e5d6cb77c");
      ("donut", "e9bcb1ef6a0df796bdf806cf9792b6c7");
      ("mario", "73647707e2989fa8c02359867a86ef5f");
      ("sysmon", "8ca628c5c19bc5c53c8db10a29a16428");
      ("sh", "892ccd25311c252c6a938ef4c25c9c29");
      ("ls", "9b53c35837f5487171b49ad914ed2e5c");
      ("cat", "6d68b408fdccab83ee00840bb659d9ff");
      ("echo", "7b12b00a479b3f742fe85de3dbe2ba07");
      ("wc", "56e6d6000b8ceaeef0e5a7b0edd0ee22");
      ("mkdir", "bef67e81160c226e2d36f52493915a77");
      ("rm", "ed5c0285062504265e591f951903037e");
      ("grep", "b761ab301edc2c746e3869bf646f9a79");
      ("kill", "6fdd00da71ad25bd002eddb298cc16cd");
      ("ps", "79c71b834c2cb5c43bee6618c57fedd2");
      ("uptime", "62327ee7b41c1c51ea6b12c38c634330");
      ("slider", "805bbf4ba2085904c0f14da534a1ceec");
      ("buzzer", "72c4232de1f9c83214b607174662d318");
      ("music", "cf86126b6c9b1cd2c2d5a2f104663831");
      ("doom", "323b43023ea4970200726b01fc1af120");
      ("video", "8f01fb5f3a377740251c6deacdce471e");
      ("launcher", "d199cdcf5812fb34b082b56a1504ebe4");
      ("blockchain", "b6109d6a60486193337a53903ea05cd2");
    ]
  in
  let table = Proto.Stage.program_table (User.Uenv.create ()) in
  check_int "program count" (List.length want) (List.length table);
  check_pins "VELF images"
    (List.map2
       (fun (name, size, _) (want_name, want) ->
         let image =
           Core.Velf.build
             {
               Core.Velf.prog_name = name;
               code_bytes = size * 3 / 4;
               data_bytes = size / 4;
             }
         in
         (match Core.Velf.parse image with
         | Ok v ->
             check_string "name round-trips" name v.Core.Velf.prog_name;
             check_int (name ^ " code") (size * 3 / 4) v.Core.Velf.code_bytes
         | Error e -> Alcotest.fail e);
         (want_name, want, md5 image))
       table want)

(* The root ramdisk, the MBR and the FAT32 boot sector and both FATs as a
   Prototype 5 boot leaves them. *)
let p5_disk_images_pinned () =
  let stage = Proto.Stage.boot ~prototype:5 () in
  let kernel = stage.Proto.Stage.kernel in
  let sd = kernel.Core.Kernel.board.Hw.Board.sd in
  let read ~lba ~count = fst (Result.get_ok (Hw.Sd.read sd ~lba ~count)) in
  let p2 = Core.Kernel.part2_lba in
  let bpb = read ~lba:p2 ~count:1 in
  let reserved = Bytes.get_uint16_le bpb 14 in
  let fat_sectors = Int32.to_int (Bytes.get_int32_le bpb 36) in
  let fat i = read ~lba:(p2 + reserved + (i * fat_sectors)) ~count:fat_sectors in
  check_pins "P5 disk images"
    [
      ( "ramdisk",
        "7f0bb54db1c58d724e64d8f11470f12a",
        md5 (Option.get (Core.Bufcache.backing_image kernel.Core.Kernel.root_bc)) );
      ("mbr", "b9fe645357f3e3ba68b1a25e28522655", md5 (read ~lba:0 ~count:1));
      ("fat32 boot sector", "c5f83ff2fd8cca5229147cad12e1ba22", md5 bpb);
      ("fat32 fat 0", "a4437ebcb7224409e0007cc3e817184b", md5 (fat 0));
      ("fat32 fat 1", "a4437ebcb7224409e0007cc3e817184b", md5 (fat 1));
    ]

let decoded_slides_pinned () =
  let open User in
  let bmp = check_ok "bmp" (Bmp.decode (Proto.Assets.slide_bmp ())) in
  let png = check_ok "pngl" (Pnglite.decode (Proto.Assets.slide_pngl ())) in
  let gif = check_ok "gifl" (Giflite.decode (Proto.Assets.slide_gifl ())) in
  check_pins "decoded slides"
    [
      ( "bmp",
        "54dde5ee8867fcd3df2a34e7990243cd",
        ints_md5 [ [| bmp.Bmp.width; bmp.Bmp.height |]; bmp.Bmp.pixels ] );
      ( "pngl",
        "f6084ca6e364390b12a1d23281e77a64",
        ints_md5 [ [| png.Pnglite.width; png.Pnglite.height |]; png.Pnglite.pixels ] );
      ( "gifl",
        "57a8ebe373261a525d8231601c347905",
        ints_md5
          ([| gif.Giflite.width; gif.Giflite.height; gif.Giflite.delay_ms |]
          :: gif.Giflite.palette
          :: Array.to_list gif.Giflite.frames) );
    ]

(* /dev/events keeps the low 32 bits of the microsecond timestamp and
   reads them back unsigned. *)
let kbd_record_pinned () =
  let ev ts_us =
    {
      Core.Kbd.ev_code = 0x52;
      ev_pressed = true;
      ev_modifiers = 0x02;
      ev_ts_ns = Int64.mul 1_000L ts_us;
    }
  in
  List.iter
    (fun (ts_us, want_hex, want_us) ->
      let b = Core.Kbd.encode (ev ts_us) in
      let hex =
        String.concat ""
          (List.init (Bytes.length b) (fun i ->
               Printf.sprintf "%02x" (Bytes.get_uint8 b i)))
      in
      check_string (Printf.sprintf "%Ld encodes" ts_us) want_hex hex;
      let back = Core.Kbd.decode (Bytes.cat (Bytes.of_string "xx") b) ~off:2 in
      check_bool "pressed" true back.Core.Kbd.ev_pressed;
      check_int "code" 0x52 back.Core.Kbd.ev_code;
      check_int "modifiers" 0x02 back.Core.Kbd.ev_modifiers;
      check_string (Printf.sprintf "%Ld decodes" ts_us)
        (Int64.to_string (Int64.mul 1_000L want_us))
        (Int64.to_string back.Core.Kbd.ev_ts_ns))
    [
      (0x1_2345_6789L, "0152020089674523", 0x2345_6789L);
      (0x1_fedc_ba98L, "0152020098badcfe", 0xfedc_ba98L);
      (0xffff_ffffL, "01520200ffffffff", 0xffff_ffffL);
    ]

(* /dev/sb takes signed 16-bit little-endian samples: the extremes and -1
   reach the PWM as written. *)
let audio_samples_signed () =
  let kernel = boot_kernel () in
  let samples = [| -32768; -1; 32767 |] in
  (match
     Benchlib.Measure.run_task kernel ~name:"pcm" (fun () ->
         let buf = Bytes.create (2 * Array.length samples) in
         Array.iteri (fun i v -> Bytes.set_int16_le buf (2 * i) v) samples;
         let fd = User.Usys.open_ "/dev/sb" Core.Abi.o_wronly in
         let n = User.Usys.write fd buf in
         ignore (User.Usys.close fd);
         n)
   with
  | Ok (n, _) -> check_int "bytes written" 6 n
  | Error e -> Alcotest.fail e);
  run_for kernel 1;
  let played =
    Hw.Pwm_audio.recent_output kernel.Core.Kernel.board.Hw.Board.pwm
    |> Array.to_list
    |> List.filter (fun s -> s <> 0)
  in
  Alcotest.(check (list int)) "samples played" (Array.to_list samples) played

(* Hostile copies of the staged assets: one to four bytes flipped, half of
   them in the first 64 bytes where the headers live, and every fifth copy
   also cut short. A decoder answers [Ok] or [Error]; it never raises. *)
let mutant_gen len =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 4)
         (pair
            (oneof [ int_bound (min 63 (len - 1)); int_bound (len - 1) ])
            (int_range 1 255)))
      (frequency [ (4, return None); (1, map Option.some (int_bound (len - 1))) ]))

let mutate data (flips, cut) =
  let b = Bytes.copy data in
  List.iter (fun (pos, x) -> Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor x)) flips;
  match cut with None -> b | Some n -> Bytes.sub b 0 n

let never_raises name asset decode =
  let data = lazy (asset ()) in
  qcheck ~count:300
    (name ^ " refuses hostile copies without raising")
    (QCheck.make
       ~print:(fun (flips, cut) ->
         Printf.sprintf "flips [%s] cut %s"
           (String.concat "; "
              (List.map (fun (p, x) -> Printf.sprintf "%d^%d" p x) flips))
           (match cut with None -> "none" | Some n -> string_of_int n))
       (QCheck.Gen.delay (fun () -> mutant_gen (Bytes.length (Lazy.force data)))))
    (fun m ->
      match decode (mutate (Lazy.force data) m) with Ok _ | Error _ -> true)

let hostile_inputs =
  let velf () =
    Core.Velf.build
      { Core.Velf.prog_name = "hello"; code_bytes = 3072; data_bytes = 1024 }
  in
  [
    never_raises "bmp" Proto.Assets.slide_bmp User.Bmp.decode;
    never_raises "pnglite" Proto.Assets.slide_pngl User.Pnglite.decode;
    never_raises "giflite" Proto.Assets.slide_gifl User.Giflite.decode;
    never_raises "vogg" Proto.Assets.track_vogg User.Adpcm.unpack;
    never_raises "mv1" Proto.Assets.clip_480p User.Mv1.unpack;
    never_raises "velf" velf Core.Velf.parse;
  ]

let suite =
  ( "formats",
    [
      quick "VELF images are pinned" velf_images_pinned;
      slow "P5 ramdisk, MBR and FAT32 are pinned" p5_disk_images_pinned;
      quick "decoded slides are pinned" decoded_slides_pinned;
      quick "kbd event record is pinned" kbd_record_pinned;
      quick "audio reads signed 16-bit samples" audio_samples_signed;
    ]
    @ hostile_inputs )
