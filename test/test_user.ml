(** Tests for the user library: the allocator, every codec, the crypto
    kernels (against published vectors) and the threading primitives that
    need a live kernel. *)

open Tharness
open User

(* ---- umalloc (needs a kernel for sbrk) ---- *)

let alloc_basic () =
  in_kernel (fun _ ->
      let m = Umalloc.create () in
      let a = Option.get (Umalloc.malloc m 100) in
      let b = Option.get (Umalloc.malloc m 200) in
      check_bool "distinct" true (a <> b);
      check_bool "no overlap" true (abs (a - b) >= 100);
      check_int "live count" 2 (Umalloc.live_count m);
      Umalloc.free m a;
      Umalloc.free m b;
      check_int "all freed" 0 (Umalloc.live_count m);
      check_int "live bytes zero" 0 (Umalloc.live_bytes m))

let alloc_reuses_freed () =
  in_kernel (fun _ ->
      let m = Umalloc.create () in
      let a = Option.get (Umalloc.malloc m 1000) in
      Umalloc.free m a;
      let b = Option.get (Umalloc.malloc m 1000) in
      check_int "first-fit reuses the hole" a b)

let alloc_coalesces () =
  in_kernel (fun _ ->
      let m = Umalloc.create () in
      let blocks = List.init 8 (fun _ -> Option.get (Umalloc.malloc m 2000)) in
      List.iter (Umalloc.free m) blocks;
      (* after freeing everything adjacent, a single large block must fit
         without growing the heap *)
      let heap0 = Umalloc.heap_bytes m in
      ignore (Option.get (Umalloc.malloc m 15_000));
      check_int "no sbrk needed after coalescing" heap0 (Umalloc.heap_bytes m))

let alloc_free_detects_bad_address () =
  in_kernel (fun _ ->
      let m = Umalloc.create () in
      ignore (Umalloc.malloc m 64);
      Alcotest.check_raises "bad free"
        (Invalid_argument "umalloc: free of unallocated address") (fun () ->
          Umalloc.free m 0x31337))

let alloc_random_no_overlap =
  qcheck ~count:20 "umalloc never hands out overlapping extents"
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 1 4096))
    (fun sizes ->
      in_kernel (fun _ ->
          let m = Umalloc.create () in
          let live = ref [] in
          let ok = ref true in
          List.iteri
            (fun i size ->
              match Umalloc.malloc m size with
              | None -> ok := false
              | Some addr ->
                  List.iter
                    (fun (a, s) ->
                      if addr < a + s && a < addr + size then ok := false)
                    !live;
                  live := (addr, size) :: !live;
                  (* occasionally free one to churn the free list *)
                  if i mod 3 = 2 then begin
                    match !live with
                    | (a, _) :: rest ->
                        Umalloc.free m a;
                        live := rest
                    | [] -> ()
                  end)
            sizes;
          !ok))

let suite_alloc =
  ( "user.umalloc",
    [
      quick "basic alloc/free" alloc_basic;
      quick "reuses freed blocks" alloc_reuses_freed;
      quick "coalesces neighbours" alloc_coalesces;
      quick "detects bad free" alloc_free_detects_bad_address;
      alloc_random_no_overlap;
    ] )

(* ---- codecs ---- *)

let bytes_gen = QCheck.(map Bytes.of_string (string_of_size (Gen.int_bound 2000)))

let deflate_stored_roundtrip =
  qcheck "deflate stored blocks roundtrip" bytes_gen (fun data ->
      Bytes.equal data (Deflate.inflate (Deflate.compress_stored data)))

let deflate_fixed_roundtrip =
  qcheck "deflate fixed-huffman roundtrip" bytes_gen (fun data ->
      Bytes.equal data (Deflate.inflate (Deflate.compress_fixed data)))

let deflate_fixed_code_lengths () =
  (* fixed Huffman: bytes < 144 cost 8 bits (no expansion), bytes >= 144
     cost 9 bits (slight expansion) - verify both regimes *)
  let low = Bytes.make 4000 'a' in
  let packed_low = Deflate.compress_fixed low in
  check_bool "low bytes stay ~1:1" true
    (Bytes.length packed_low <= Bytes.length low + 8);
  let high = Bytes.make 4000 '\xf0' in
  let packed_high = Deflate.compress_fixed high in
  check_in_range "high bytes cost 9/8"
    (float_of_int (Bytes.length high))
    (float_of_int (Bytes.length high * 9 / 8 + 8))
    (float_of_int (Bytes.length packed_high))

let deflate_rejects_garbage () =
  (match Deflate.inflate (Bytes.of_string "\007garbage-stream") with
  | exception Deflate.Corrupt _ -> ()
  | exception _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  (* stored-length check corruption *)
  let good = Deflate.compress_stored (Bytes.of_string "payload") in
  Bytes.set_uint8 good 2 (Bytes.get_uint8 good 2 lxor 0xff);
  match Deflate.inflate good with
  | exception Deflate.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupted length accepted"

let deflate_backref_stream () =
  (* hand-built fixed-huffman stream with an LZ77 match:
     "abcabc" as literals a b c + match(len 3, dist 3) *)
  let w_buf = Buffer.create 8 in
  let byte = ref 0 and bit = ref 0 in
  let push b =
    byte := !byte lor (b lsl !bit);
    incr bit;
    if !bit = 8 then begin
      Buffer.add_char w_buf (Char.chr !byte);
      byte := 0;
      bit := 0
    end
  in
  let push_lsb v n = for i = 0 to n - 1 do push ((v lsr i) land 1) done in
  let push_code code n = for i = n - 1 downto 0 do push ((code lsr i) land 1) done in
  push_lsb 1 1 (* final *);
  push_lsb 1 2 (* fixed *);
  let lit c = push_code (0x30 + Char.code c) 8 in
  lit 'a'; lit 'b'; lit 'c';
  (* length 3 = code 257 -> 7-bit code 1; distance 3 = code 2, 5 bits *)
  push_code 1 7;
  push_code 2 5;
  (* end of block: code 256 -> 7-bit zero *)
  push_code 0 7;
  if !bit > 0 then Buffer.add_char w_buf (Char.chr !byte);
  let out = Deflate.inflate (Buffer.to_bytes w_buf) in
  check_string "lz77 match resolved" "abcabc" (Bytes.to_string out)

let lzw_roundtrip =
  qcheck "lzw roundtrip" bytes_gen (fun data ->
      Bytes.equal data (Lzw.decode ~min_code_size:8 (Lzw.encode ~min_code_size:8 data)))

let lzw_compresses_repetitive () =
  let data = Bytes.make 4096 'r' in
  let packed = Lzw.encode ~min_code_size:8 data in
  check_bool "repetitive input shrinks a lot" true
    (Bytes.length packed < Bytes.length data / 8)

let lzw_small_alphabet =
  qcheck "lzw with 4-bit codes"
    QCheck.(list_of_size (Gen.int_bound 500) (int_bound 15))
    (fun symbols ->
      let data = Bytes.init (List.length symbols) (fun i -> Char.chr (List.nth symbols i)) in
      Bytes.equal data (Lzw.decode ~min_code_size:4 (Lzw.encode ~min_code_size:4 data)))

let adpcm_tracks_signal () =
  (* IMA ADPCM is lossy; a smooth sine must come back close *)
  let n = 8000 in
  let original =
    Array.init n (fun i -> int_of_float (12000.0 *. sin (float_of_int i /. 20.0)))
  in
  let decoded = Adpcm.decode (Adpcm.encode original) ~samples:n in
  let err = ref 0.0 and power = ref 0.0 in
  for i = 0 to n - 1 do
    let d = float_of_int (original.(i) - decoded.(i)) in
    err := !err +. (d *. d);
    power := !power +. (float_of_int original.(i) *. float_of_int original.(i))
  done;
  let snr_db = 10.0 *. log10 (!power /. Float.max 1.0 !err) in
  check_bool "SNR above 20dB" true (snr_db > 20.0)

let adpcm_container_roundtrip () =
  let samples = Array.init 1000 (fun i -> (i * 37 mod 4000) - 2000) in
  let packed = Adpcm.pack ~rate:44100 samples in
  let rate, n, _payload = check_ok "unpack" (Adpcm.unpack packed) in
  check_int "rate" 44100 rate;
  check_int "count" 1000 n;
  ignore (check_err "bad magic" (Adpcm.unpack (Bytes.of_string "WAVE1234567890123456")))

let yuv_roundtrip_tolerance =
  qcheck "yuv->rgb->yuv stays close"
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (r, g, b) ->
      let y, u, v = Yuv.rgb_to_yuv ((r lsl 16) lor (g lsl 8) lor b) in
      let px = Yuv.yuv_to_rgb ~y ~u ~v in
      let r' = (px lsr 16) land 0xff
      and g' = (px lsr 8) land 0xff
      and b' = px land 0xff in
      abs (r - r') <= 8 && abs (g - g') <= 8 && abs (b - b') <= 8)

let yuv_simd_same_pixels () =
  let width = 32 and height = 16 in
  let y = Bytes.init (width * height) (fun i -> Char.chr (16 + (i mod 220))) in
  let u = Bytes.init (width / 2 * (height / 2)) (fun i -> Char.chr (100 + (i mod 56))) in
  let v = Bytes.init (width / 2 * (height / 2)) (fun i -> Char.chr (90 + (i mod 70))) in
  let a = Bytes.make (4 * width * height) '\000' and b = Bytes.make (4 * width * height) '\000' in
  let convert out ~simd =
    Yuv.convert_420 ~width ~height ~y_plane:y ~u_plane:u ~v_plane:v ~out ~off:0
      ~stride:width ~cols:width ~rows:height ~simd
  in
  let cost_scalar = convert a ~simd:false in
  let cost_simd = convert b ~simd:true in
  check_bool "identical pixels" true (Bytes.equal a b);
  check_bool "simd much cheaper" true (cost_simd * 4 < cost_scalar)

let bmp_roundtrip =
  qcheck ~count:25 "bmp roundtrip"
    QCheck.(pair (int_range 1 40) (int_range 1 30))
    (fun (w, h) ->
      let img =
        {
          Bmp.width = w;
          height = h;
          pixels = Array.init (w * h) (fun i -> (i * 997) land 0xffffff);
        }
      in
      match Bmp.decode (Bmp.encode img) with
      | Ok back -> back.Bmp.pixels = img.Bmp.pixels
      | Error _ -> false)

let bmp_rejects_bad () =
  ignore (check_err "short" (Bmp.decode (Bytes.make 10 'x')));
  ignore (check_err "magic" (Bmp.decode (Bytes.make 60 'x')))

let pnglite_roundtrip =
  qcheck ~count:20 "pnglite roundtrip (both compressors)"
    QCheck.(triple (int_range 1 32) (int_range 1 24) bool)
    (fun (w, h, fixed) ->
      let img =
        {
          Pnglite.width = w;
          height = h;
          pixels = Array.init (w * h) (fun i -> (i * 131071) land 0xffffff);
        }
      in
      let compressor =
        if fixed then Deflate.compress_fixed else Deflate.compress_stored
      in
      match Pnglite.decode (Pnglite.encode ~compressor img) with
      | Ok back -> back.Pnglite.pixels = img.Pnglite.pixels
      | Error _ -> false)

let pnglite_checksum_detects_corruption () =
  let img =
    { Pnglite.width = 8; height = 8; pixels = Array.init 64 (fun i -> i * 999) }
  in
  let packed = Pnglite.encode img in
  (* flip a payload byte past the header *)
  Bytes.set_uint8 packed 24 (Bytes.get_uint8 packed 24 lxor 0x40);
  match Pnglite.decode packed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption not detected"

let giflite_roundtrip () =
  let width = 24 and height = 18 in
  let frames =
    Array.init 3 (fun f ->
        Array.init (width * height) (fun i -> (i + (f * 37)) land 0xff))
  in
  let palette = Array.init 256 (fun i -> i * 65793) in
  let gif = { Giflite.width; height; palette; frames; delay_ms = 100 } in
  let back = check_ok "decode" (Giflite.decode (Giflite.encode gif)) in
  check_int "frames" 3 (Array.length back.Giflite.frames);
  check_bool "indices preserved" true (back.Giflite.frames = frames);
  let out = Array.make (width * height) 0 in
  Giflite.render back 1 out;
  check_int "render uses palette" palette.(frames.(1).(0)) out.(0)

let mv1_psnr () =
  let width = 64 and height = 48 in
  let frame =
    {
      Mv1.y_plane =
        Bytes.init (width * height) (fun i ->
            let x = i mod width and y = i / width in
            (* smooth ramp: DCT-friendly, like natural video *)
            Char.chr (16 + (x * 2) + y));
      u_plane = Bytes.make (width / 2 * (height / 2)) '\110';
      v_plane = Bytes.make (width / 2 * (height / 2)) '\140';
    }
  in
  let payload = Mv1.encode_frame ~width ~height ~quality:Mv1.quality frame in
  let back = Mv1.decode_frame ~width ~height ~quality:Mv1.quality payload in
  (* DCT at quality 50 on smooth content: high PSNR expected *)
  let mse = ref 0.0 in
  Bytes.iteri
    (fun i v ->
      let d = float_of_int (Char.code v - Bytes.get_uint8 back.Mv1.y_plane i) in
      mse := !mse +. (d *. d))
    frame.Mv1.y_plane;
  let mse = !mse /. float_of_int (width * height) in
  let psnr = 10.0 *. log10 (255.0 *. 255.0 /. Float.max 0.001 mse) in
  check_bool "psnr above 30dB" true (psnr > 30.0);
  check_bool "compressed smaller than raw" true
    (Bytes.length payload < width * height)

let mv1_container_roundtrip () =
  let width = 32 and height = 32 in
  let mk t =
    {
      Mv1.y_plane = Bytes.init (width * height) (fun i -> Char.chr ((i + t) land 0xff));
      u_plane = Bytes.make (width / 2 * (height / 2)) '\128';
      v_plane = Bytes.make (width / 2 * (height / 2)) '\128';
    }
  in
  let frames = Array.init 4 (fun t -> Mv1.encode_frame ~width ~height ~quality:Mv1.quality (mk t)) in
  let packed = Mv1.pack { Mv1.width; height; fps = 30; frames } in
  let back = check_ok "unpack" (Mv1.unpack packed) in
  check_int "fps" 30 back.Mv1.fps;
  check_int "frames" 4 (Array.length back.Mv1.frames);
  ignore (check_err "bad dims rejected"
      (Mv1.unpack (Mv1.pack { Mv1.width = 30; height = 30; fps = 1; frames = [||] })));
  (* a hostile header: no frame at all (the player loops over the frame
     count), and a payload shorter than one end-of-block byte per block,
     which would have the decoder allocate its planes first; at the
     largest 16-aligned 32-bit dimensions, a product of the two wraps *)
  ignore (check_err "zero frames rejected"
      (Mv1.unpack (Mv1.pack { Mv1.width; height; fps = 30; frames = [||] })));
  let short = Bytes.sub frames.(0) 0 (Mv1.blocks_per_frame ~width ~height - 1) in
  ignore (check_err "short payload rejected"
      (Mv1.unpack (Mv1.pack { Mv1.width; height; fps = 30; frames = [| short |] })));
  ignore (check_err "huge dimensions rejected"
      (Mv1.unpack
         (Mv1.pack
            { Mv1.width = 0xffff_fff0; height = 0xffff_fff0; fps = 30; frames = [| frames.(0) |] })))

(* C[k][n], the DCT-II basis, built apart from the codec's own table. *)
let dct_matrix =
  let pi = 4.0 *. atan 1.0 in
  Array.init 8 (fun k ->
      Array.init 8 (fun n ->
          let ck = if k = 0 then sqrt (1.0 /. 8.0) else sqrt (2.0 /. 8.0) in
          ck *. cos ((2.0 *. float_of_int n +. 1.0) *. float_of_int k *. pi /. 16.0)))

(* The dense C^T * Y * C every block paid before the sparse IDCT: the
   oracle the decoder must match bit for bit. *)
let dense_idct =
  let c = dct_matrix in
  fun coeffs out ->
    let tmp = Array.make 64 0.0 in
    for n = 0 to 7 do
      for l = 0 to 7 do
        let s = ref 0.0 in
        for k = 0 to 7 do
          s := !s +. (c.(k).(n) *. coeffs.((k * 8) + l))
        done;
        tmp.((n * 8) + l) <- !s
      done
    done;
    for n = 0 to 7 do
      for m = 0 to 7 do
        let s = ref 0.0 in
        for l = 0 to 7 do
          s := !s +. (tmp.((n * 8) + l) *. c.(l).(m))
        done;
        out.((n * 8) + m) <- max 0 (min 255 (int_of_float (Float.round !s)))
      done
    done

let column_mask coeffs =
  let m = ref 0 in
  Array.iteri (fun i v -> if v <> 0.0 then m := !m lor (1 lsl (i land 7))) coeffs;
  !m

(* Dequantized blocks of seven shapes: all-zero, DC only, the DC column,
   one random column, dense, sparse, and every coefficient at
   +-32767 x quant. *)
let idct_block (kind, seed) =
  let rs = Random.State.make [| seed |] in
  let q = Mv1.quant_table ~quality:Mv1.quality in
  let v i lim = float_of_int ((Random.State.int rs ((2 * lim) + 1) - lim) * q.(i)) in
  let col = Random.State.int rs 8 in
  Array.init 64 (fun i ->
      match kind with
      | 0 -> 0.0
      | 1 -> if i = 0 then v i 255 else 0.0
      | 2 -> if i land 7 = 0 then v i 255 else 0.0
      | 3 -> if i land 7 = col then v i 255 else 0.0
      | 4 -> v i 60
      | 5 -> if Random.State.int rs 8 = 0 then v i 255 else 0.0
      | _ -> float_of_int ((if Random.State.bool rs then 32767 else -32767) * q.(i)))

let mv1_sparse_idct_exact =
  qcheck ~count:3000 "mv1 sparse idct = dense idct"
    QCheck.(
      make
        ~print:(fun (k, s) -> Printf.sprintf "kind %d seed %d" k s)
        Gen.(pair (int_bound 6) (int_bound 1_000_000)))
    (fun case ->
      let coeffs = idct_block case in
      let expect = Array.make 64 0 in
      dense_idct coeffs expect;
      let tmp = Array.make 64 0.0 and out = Array.make 64 (-1) in
      Mv1.idct ~cols:(column_mask coeffs) coeffs tmp out;
      let exact = out = expect in
      (* a superset of the non-zero columns only adds exact zeros *)
      Mv1.idct ~cols:0xff coeffs tmp out;
      exact && out = expect)

(* The dense C * X * C^T triple loop the encoder ran before its forward
   DCT was interleaved: every sum starts from 0.0 and adds in index
   order. The oracle the encoder must match bit for bit. *)
let dense_fdct block =
  let c = dct_matrix in
  let tmp = Array.make 64 0.0 and out = Array.make 64 0.0 in
  for k = 0 to 7 do
    for x = 0 to 7 do
      let s = ref 0.0 in
      for n = 0 to 7 do
        s := !s +. (c.(k).(n) *. float_of_int block.((n * 8) + x))
      done;
      tmp.((k * 8) + x) <- !s
    done
  done;
  for k = 0 to 7 do
    for l = 0 to 7 do
      let s = ref 0.0 in
      for x = 0 to 7 do
        s := !s +. (tmp.((k * 8) + x) *. c.(l).(x))
      done;
      out.((k * 8) + l) <- !s
    done
  done;
  out

(* Pixel blocks of four shapes: random bytes, all 0, all 255 and a
   0/255 checkerboard. *)
let fdct_block (kind, seed) =
  let rs = Random.State.make [| seed |] in
  Array.init 64 (fun i ->
      match kind with
      | 0 -> 0
      | 1 -> 255
      | 2 -> if ((i / 8) + i) land 1 = 0 then 0 else 255
      | _ -> Random.State.int rs 256)

let mv1_fdct_exact =
  qcheck ~count:2000 "mv1 forward dct = dense fdct, bit for bit"
    QCheck.(
      make
        ~print:(fun (k, s) -> Printf.sprintf "kind %d seed %d" k s)
        Gen.(pair (int_bound 5) (int_bound 1_000_000)))
    (fun case ->
      let block = fdct_block case in
      let expect = dense_fdct block in
      let out = Array.make 64 Float.nan in
      Mv1.fdct block out;
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        expect out)

let mv1_round_byte_exact =
  qcheck ~count:2000 "mv1 round_byte = clamped Float.round"
    QCheck.(
      make ~print:string_of_float
        Gen.(
          oneof
            [
              float_range (-1000.0) 1000.0;
              map float_of_int (int_range (-300) 300);
              map (fun k -> float_of_int k +. 0.5) (int_range (-300) 300);
              map (fun k -> Float.pred (float_of_int k +. 0.5)) (int_range (-300) 300);
              map (fun k -> Float.succ (float_of_int k +. 0.5)) (int_range (-300) 300);
            ]))
    (fun x -> Mv1.round_byte x = max 0 (min 255 (int_of_float (Float.round x))))

(* Decode with the dense oracle in place of the sparse IDCT and the
   DC-block path. Every block starts from all-zero coefficients, as if
   [decode_block] cleared all 64, so the oracle does not lean on the
   decoder's partial clear. *)
let reference_decode ~width ~height data =
  let r = Mv1.decoder ~width ~height ~quality:Mv1.quality in
  let block = Array.make 64 0 in
  let plane dst pos ~width ~height =
    let pos = ref pos in
    for by = 0 to (height / 8) - 1 do
      for bx = 0 to (width / 8) - 1 do
        Array.fill r.Mv1.coeffs 0 64 0.0;
        r.Mv1.last <- -1;
        pos := Mv1.decode_block r data !pos;
        dense_idct r.Mv1.coeffs block;
        for y = 0 to 7 do
          for x = 0 to 7 do
            Bytes.set dst (((by * 8 + y) * width) + (bx * 8) + x) (Char.chr block.((y * 8) + x))
          done
        done
      done
    done;
    !pos
  in
  let cw = width / 2 and ch = height / 2 in
  let f =
    {
      Mv1.y_plane = Bytes.make (width * height) '\000';
      u_plane = Bytes.make (cw * ch) '\000';
      v_plane = Bytes.make (cw * ch) '\000';
    }
  in
  let p = plane f.Mv1.y_plane 0 ~width ~height in
  let p = plane f.Mv1.u_plane p ~width:cw ~height:ch in
  ignore (plane f.Mv1.v_plane p ~width:cw ~height:ch);
  f

let check_frame name (expect : Mv1.frame) (got : Mv1.frame) =
  check_bool (name ^ " y") true (Bytes.equal expect.Mv1.y_plane got.Mv1.y_plane);
  check_bool (name ^ " u") true (Bytes.equal expect.Mv1.u_plane got.Mv1.u_plane);
  check_bool (name ^ " v") true (Bytes.equal expect.Mv1.v_plane got.Mv1.v_plane)

let mv1_clips_decode_exactly () =
  List.iter
    (fun (clip_name, clip) ->
      let v = check_ok clip_name (Mv1.unpack clip) in
      let width = v.Mv1.width and height = v.Mv1.height in
      let expect = Array.map (reference_decode ~width ~height) v.Mv1.frames in
      let d = Mv1.decoder ~width ~height ~quality:Mv1.quality in
      Array.iteri
        (fun i payload ->
          Mv1.decode_into d payload;
          check_frame (Printf.sprintf "%s frame %d" clip_name i) expect.(i) d.Mv1.frame)
        v.Mv1.frames;
      (* back to frame 0 after frame 1: no stale pixel may survive *)
      Mv1.decode_into d v.Mv1.frames.(1);
      Mv1.decode_into d v.Mv1.frames.(0);
      check_frame (clip_name ^ " frame 1 then 0") expect.(0) d.Mv1.frame)
    [ ("480p", Proto.Assets.clip_480p ()); ("720p", Proto.Assets.clip_720p ()) ]

let mv1_corrupt_payloads_fail () =
  let decode s =
    Mv1.decode_frame ~width:16 ~height:16 ~quality:Mv1.quality (Bytes.of_string s)
  in
  Alcotest.check_raises "triple cut after lo" (Failure "mv1: truncated block")
    (fun () -> ignore (decode "\000\001"));
  Alcotest.check_raises "triple cut after run" (Failure "mv1: truncated block")
    (fun () -> ignore (decode "\000\001\000\003"));
  Alcotest.check_raises "no end of block" (Failure "mv1: truncated block")
    (fun () -> ignore (decode "\000\001\000"));
  Alcotest.check_raises "run past coefficient 63" (Failure "mv1: run overflow")
    (fun () -> ignore (decode "\064\001\000\255"))

(* A 16x16 MV1 payload: four luma blocks, then one U and one V block.
   Each block is a list of (run, value) pairs; [] is an empty block. *)
let mv1_payload blocks =
  let buf = Buffer.create 64 in
  List.iter
    (fun pairs ->
      List.iter
        (fun (run, v) ->
          Buffer.add_char buf (Char.chr run);
          Buffer.add_char buf (Char.chr (v land 0xff));
          Buffer.add_char buf (Char.chr ((v asr 8) land 0xff)))
        pairs;
      Buffer.add_char buf '\255')
    blocks;
  Buffer.to_bytes buf

(* All 64 coefficients, none of them zero. *)
let mv1_dense_block =
  List.init 64 (fun i ->
      let v = (i * 37 mod 39) + 1 in
      (0, if i land 1 = 0 then v else -v))

(* The DC-block path and the partial clear, each against the dense
   oracle. One decoder decodes the frames in order, so whatever a block
   leaves in the decoder is seen by the next block and the next frame. *)
let mv1_dc_path_edges () =
  let width = 16 and height = 16 in
  let frames =
    [
      (* the only non-zero coefficient at raster (k,0), k > 0, after a
         run: zigzag 2, 3, 9 and 10 *)
      ( "AC in column 0",
        [ [ (2, 5) ]; [ (3, -7) ]; [ (9, 3) ]; [ (0, 0); (1, 0); (7, 12) ];
          [ (2, 1) ]; [ (2, -1) ] ] );
      (* explicit zero-valued pairs, at the DC and beyond it *)
      ( "explicit zeros",
        [ [ (0, 0) ]; [ (0, 0); (0, 0) ]; [ (0, 9); (4, 0) ]; [ (0, 0); (0, 4) ];
          [ (0, 0) ]; [ (5, 0) ] ] );
      ("empty blocks", [ []; []; []; []; []; [] ]);
      (* dense blocks followed by DC-only and sparse ones *)
      ( "dense then sparse",
        [ mv1_dense_block; [ (0, 40) ]; mv1_dense_block; [ (1, 6) ]; mv1_dense_block; [] ] );
      ( "DC only",
        [ [ (0, 20) ]; [ (0, -3) ]; [ (0, 255) ]; [ (0, 1) ]; [ (0, -128) ]; [ (0, 7) ] ] );
      ( "after DC only",
        [ [ (1, 8) ]; [ (0, 2); (0, 3) ]; []; [ (5, 4) ]; [ (0, 0) ]; [ (62, 9) ] ] );
    ]
  in
  let d = Mv1.decoder ~width ~height ~quality:Mv1.quality in
  List.iter
    (fun (name, blocks) ->
      let payload = mv1_payload blocks in
      Mv1.decode_into d payload;
      check_frame name (reference_decode ~width ~height payload) d.Mv1.frame)
    frames

(* A payload that fails halfway through a block must not leave
   coefficients behind for the next frame's blocks. *)
let mv1_decoder_reused_after_failure () =
  let width = 16 and height = 16 in
  let d = Mv1.decoder ~width ~height ~quality:Mv1.quality in
  let good = mv1_payload [ mv1_dense_block; [ (0, 3) ]; []; []; []; [] ] in
  Mv1.decode_into d good;
  let dense = Bytes.sub (mv1_payload [ mv1_dense_block ]) 0 (3 * 64) in
  let corrupt =
    [
      (* the block's 64 coefficients stored, then no end of block *)
      ("truncated after a dense block", dense);
      (* 40 stored, then a run past coefficient 63 *)
      ( "run overflow after 40",
        Bytes.cat (Bytes.sub dense 0 (3 * 40)) (Bytes.of_string "\040\001\000\255") );
      (* a DC-only block, then a cut in the next one *)
      ("cut in block 2", Bytes.of_string "\000\007\000\255\005\001");
    ]
  in
  let next =
    mv1_payload [ [ (1, 6) ]; [ (0, 2) ]; [ (3, 1) ]; []; [ (0, 0) ]; [ (4, -2) ] ]
  in
  let expect = reference_decode ~width ~height next in
  List.iter
    (fun (name, bad) ->
      (match Mv1.decode_into d bad with
      | () -> Alcotest.failf "%s: decoded" name
      | exception Failure _ -> ());
      Mv1.decode_into d next;
      check_frame ("good frame after " ^ name) expect d.Mv1.frame)
    corrupt

let yuv_planes rs ~width ~height =
  let plane n = Bytes.init n (fun _ -> Char.chr (Random.State.int rs 256)) in
  let cw = width / 2 and ch = height / 2 in
  (plane (width * height), plane (cw * ch), plane (cw * ch))

(* Any window of any even frame, at any offset and stride: each window
   pixel is the word 0xff000000 lor per-pixel [yuv_to_rgb], stored
   little-endian, and no other byte of [out] moves, a ragged tail past
   the last whole word included. *)
let yuv_convert_matches_per_pixel =
  qcheck ~count:200 "yuv convert_420 = per-pixel yuv_to_rgb"
    QCheck.(triple (int_range 1 24) (int_range 1 24) (int_bound 1_000_000))
    (fun (hw, hh, seed) ->
      let width = 2 * hw and height = 2 * hh in
      let rs = Random.State.make [| seed |] in
      let y, u, v = yuv_planes rs ~width ~height in
      let whole = Random.State.bool rs in
      let cols = if whole then width else Random.State.int rs (width + 1) in
      let rows = if whole then height else Random.State.int rs (height + 1) in
      let stride = if whole then width else cols + Random.State.int rs 5 in
      let off = if whole then 0 else Random.State.int rs 7 in
      let len = off + (max 0 (rows - 1) * stride) + cols + Random.State.int rs 4 in
      let bytes = (4 * len) + Random.State.int rs 4 in
      let out = Bytes.init bytes (fun _ -> Char.chr (Random.State.int rs 256)) in
      let expect = Bytes.copy out in
      let cost =
        Yuv.convert_420 ~width ~height ~y_plane:y ~u_plane:u ~v_plane:v ~out ~off ~stride
          ~cols ~rows ~simd:false
      in
      for row = 0 to rows - 1 do
        for col = 0 to cols - 1 do
          let c = (row / 2 * hw) + (col / 2) in
          let px =
            Yuv.yuv_to_rgb ~y:(Bytes.get_uint8 y ((row * width) + col))
              ~u:(Bytes.get_uint8 u c) ~v:(Bytes.get_uint8 v c)
          in
          let o = 4 * (off + (row * stride) + col) in
          Bytes.set_uint8 expect o (px land 0xff);
          Bytes.set_uint8 expect (o + 1) ((px lsr 8) land 0xff);
          Bytes.set_uint8 expect (o + 2) (px lsr 16);
          Bytes.set_uint8 expect (o + 3) 0xff
        done
      done;
      cost = width * height * Yuv.cycles_per_pixel ~simd:false && Bytes.equal out expect)

(* Odd dimensions used to read the next chroma row for the last column
   (and past the plane on the last row); they and every window that
   does not fit are refused before a byte is written. [len] counts
   pixels, [extra] bytes past the last whole pixel. *)
let yuv_convert_rejects_bad_geometry () =
  let rs = Random.State.make [| 11 |] in
  let convert ~width ~height ?(planes = (width, height)) ?(len = width * height)
      ?(extra = 0) ?(off = 0) ?(stride = width) ?(cols = width) ?(rows = height) () =
    let pw, ph = planes in
    let y, u, v = yuv_planes rs ~width:pw ~height:ph in
    let out = Bytes.make ((4 * len) + extra) '\xa5' in
    let r =
      match
        Yuv.convert_420 ~width ~height ~y_plane:y ~u_plane:u ~v_plane:v ~out ~off ~stride
          ~cols ~rows ~simd:true
      with
      | _ -> Ok ()
      | exception Invalid_argument m -> Error m
    in
    (r, out)
  in
  List.iter
    (fun (name, (r, out)) ->
      check_bool (name ^ " raises") true (r = Error "Yuv.convert_420");
      check_bool (name ^ " writes nothing") true (Bytes.for_all (( = ) '\xa5') out))
    [
      ("odd width", convert ~width:5 ~height:4 ~planes:(6, 4) ());
      ("odd height", convert ~width:4 ~height:3 ~planes:(4, 4) ());
      ("odd width and height", convert ~width:3 ~height:3 ~planes:(4, 4) ());
      ("cols past width", convert ~width:4 ~height:4 ~cols:5 ~stride:5 ~len:40 ());
      ("rows past height", convert ~width:4 ~height:4 ~rows:5 ~len:40 ());
      ("negative cols", convert ~width:4 ~height:4 ~cols:(-1) ());
      ("negative rows", convert ~width:4 ~height:4 ~rows:(-1) ());
      ("negative offset", convert ~width:4 ~height:4 ~off:(-1) ());
      ("stride below cols", convert ~width:4 ~height:4 ~stride:3 ());
      ("out one short", convert ~width:4 ~height:4 ~len:15 ());
      ("out one byte short", convert ~width:4 ~height:4 ~len:15 ~extra:3 ());
      ("offset pushes past the end", convert ~width:4 ~height:4 ~off:1 ());
      ("short luma plane", convert ~width:4 ~height:4 ~planes:(4, 2) ());
    ];
  (* the tightest fits are accepted *)
  List.iter
    (fun (name, (r, _)) -> check_bool name true (r = Ok ()))
    [
      ("exact fit", convert ~width:4 ~height:4 ());
      ("offset window", convert ~width:4 ~height:4 ~off:3 ~cols:3 ~rows:2 ~stride:3 ~len:9 ());
      ("empty window", convert ~width:4 ~height:4 ~cols:0 ~rows:0 ~len:0 ());
    ]

(* Every frame of both clips, decoded and then converted, pinned by MD5.
   A frame's planes are hashed one byte per sample, Y then U then V.
   Each frame is converted twice: into a whole 640x480 window, and into
   an offset window whose odd [cols] and [rows] leave a tail row and a
   tail column, with [stride > cols] and gaps between the rows. [out]
   starts as words whose X byte is 0, which [convert_420] never writes.
   A window is hashed as 8 little-endian bytes per pixel of [out]: a
   written word's low 24 bits, or -1 for a gap. The values were taken
   with [int array] planes and an [int array] [out] whose gaps held -1,
   so they also hold the plane and [out] representations to every
   sample and pixel. *)
let mv1_clip_frames_pinned () =
  let md5 b = Digest.to_hex (Digest.bytes b) in
  let out_bytes out =
    let n = Bytes.length out / 4 in
    let b = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      let w = Hw.Le.get_uint32 out (4 * i) in
      Bytes.set_int64_le b (8 * i) (Int64.of_int (if w lsr 24 = 0 then -1 else w land 0xffffff))
    done;
    b
  in
  let convert (f : Mv1.frame) ~width ~height ~len ~off ~stride ~cols ~rows =
    let out = Bytes.make (4 * len) '\000' in
    ignore
      (Yuv.convert_420 ~width ~height ~y_plane:f.Mv1.y_plane ~u_plane:f.Mv1.u_plane
         ~v_plane:f.Mv1.v_plane ~out ~off ~stride ~cols ~rows ~simd:false);
    md5 (out_bytes out)
  in
  List.iter
    (fun (clip_name, clip, pins) ->
      let v = check_ok clip_name (Mv1.unpack clip) in
      let width = v.Mv1.width and height = v.Mv1.height in
      let d = Mv1.decoder ~width ~height ~quality:Mv1.quality in
      check_int (clip_name ^ " frames") (List.length pins) (Array.length v.Mv1.frames);
      List.iteri
        (fun i (planes, whole, window) ->
          let name = Printf.sprintf "%s frame %d" clip_name i in
          Mv1.decode_into d v.Mv1.frames.(i);
          let f = d.Mv1.frame in
          check_string (name ^ " planes") planes
            (md5 (Bytes.concat Bytes.empty [ f.Mv1.y_plane; f.Mv1.u_plane; f.Mv1.v_plane ]));
          check_string (name ^ " whole window") whole
            (convert f ~width ~height ~len:(640 * 480) ~off:0 ~stride:640 ~cols:640
               ~rows:480);
          check_string (name ^ " offset window") window
            (convert f ~width ~height ~len:(5 + (238 * 331) + 327 + 3) ~off:5 ~stride:331
               ~cols:327 ~rows:239))
        pins)
    [
      ( "480p",
        Proto.Assets.clip_480p (),
        [
          ( "80ed7ab61570cb2e7546034fab9467ae",
            "48c0eecab889f41a69a7cc0dd490ca4c",
            "9ff3c632608afa4d005e35d0ebd829fe" );
          ( "df7e31bd43ffec43b8779310eaaa820a",
            "5486b43b6e3b5617048acec426cc2fe8",
            "e98e9790e9a32b83fcba2a566850e7d1" );
          ( "4aa8e18a147236333fb8ff62bac75798",
            "e43b1df17bb5c6679d175a7edf57042b",
            "6b03b0846c0822d1baf633a4a91e9bd9" );
          ( "a5949bc82227814fbb1f71e3378046ac",
            "76f7e8317734d7c696d8273ec71b2b1f",
            "7a6bb057e46cfa55ea01318b42b9f341" );
          ( "98d1e96be9b138736ad6352b9cffd841",
            "c600fde2cedc66ee7b536fc4c6692ce0",
            "e1133406421c5d4c201b3d90b00202dc" );
          ( "3d1df8c67e2a0014c04d82161cff7ba0",
            "3036d276dfbb06c66e0ce976a01c855d",
            "bc22e9625305c817eeb36eda114a54de" );
        ] );
      ( "720p",
        Proto.Assets.clip_720p (),
        [
          ( "736cb77d18c9bb7a70a5a33504c5d121",
            "d7b7b77e9630dffdb00ac4fe7b17ced5",
            "1c2ba6f76fd10632f73578e2bced27ec" );
          ( "914b09d5235540c0bf3a9b6a03e0db72",
            "485eec5be8644e1bff5fb361dc7ad081",
            "ec50dc9614085d1790475f9e25739a1c" );
          ( "e15574987390d54ba220a0e82268e9ca",
            "3229b1a6d2bc04d91f04caaa0bac40bd",
            "c320a8da7d3f9c1c48081b40e3141c10" );
          ( "0936e9153a7f6aa12ffc426cae8cfd4a",
            "97b7859381463d908298b4cba8b76110",
            "c84e49eb46fc36b7810a47b908656d3d" );
        ] );
    ]

let suite_codecs =
  ( "user.codecs",
    [
      deflate_stored_roundtrip;
      deflate_fixed_roundtrip;
      quick "fixed huffman code lengths" deflate_fixed_code_lengths;
      quick "deflate rejects garbage" deflate_rejects_garbage;
      quick "deflate resolves LZ77 back-references" deflate_backref_stream;
      lzw_roundtrip;
      quick "lzw compresses repetition" lzw_compresses_repetitive;
      lzw_small_alphabet;
      quick "adpcm tracks a sine (SNR)" adpcm_tracks_signal;
      quick "vogg container roundtrip" adpcm_container_roundtrip;
      yuv_roundtrip_tolerance;
      quick "simd yuv: same pixels, cheaper" yuv_simd_same_pixels;
      bmp_roundtrip;
      quick "bmp rejects bad input" bmp_rejects_bad;
      pnglite_roundtrip;
      quick "pnglite adler32 detects corruption" pnglite_checksum_detects_corruption;
      quick "giflite roundtrip" giflite_roundtrip;
      quick "mv1 psnr at q50" mv1_psnr;
      quick "mv1 container roundtrip" mv1_container_roundtrip;
      mv1_sparse_idct_exact;
      mv1_round_byte_exact;
      quick "mv1 clips: decode_into = dense reference" mv1_clips_decode_exactly;
      quick "mv1 corrupt payloads fail cleanly" mv1_corrupt_payloads_fail;
      quick "mv1 DC-block path edges = dense reference" mv1_dc_path_edges;
      quick "mv1 decoder reused after a failure" mv1_decoder_reused_after_failure;
      yuv_convert_matches_per_pixel;
      quick "yuv convert_420 rejects bad geometry" yuv_convert_rejects_bad_geometry;
      mv1_fdct_exact;
      quick "mv1 clip frames: planes and conversions pinned" mv1_clip_frames_pinned;
    ] )

(* ---- crypto, against published vectors ---- *)

let sha256_vectors () =
  check_string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex (Sha256.digest Bytes.empty));
  check_string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex (Sha256.digest (Bytes.of_string "abc")));
  check_string "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex
       (Sha256.digest
          (Bytes.of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))

let sha256_block_count () =
  let _, one = Sha256.digest_with_blocks (Bytes.make 10 'x') in
  let _, two = Sha256.digest_with_blocks (Bytes.make 60 'x') in
  check_int "one block" 1 one;
  check_int "padding spills" 2 two

let sha256_leading_zeros () =
  check_int "no zeros" 0 (Sha256.leading_zero_bits (Bytes.of_string "\x80rest"));
  check_int "one zero byte + msb set" 8
    (Sha256.leading_zero_bits (Bytes.of_string "\x00\x80rest"));
  check_int "12 bits" 12 (Sha256.leading_zero_bits (Bytes.of_string "\x00\x08rest"))

(* The padding boundaries: 55 bytes is the longest one-block message,
   56..64 spill the length into a second block, 119/120 straddle the
   same edge one block later. Expected values from Python's hashlib. *)
let sha256_padding_boundaries () =
  List.iter
    (fun (n, want) ->
      check_string (Printf.sprintf "%d x" n) want
        (Sha256.hex (Sha256.digest (Bytes.make n 'x'))))
    [
      (55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072");
      (56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e");
      (63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2");
      (64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
      (119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c");
      (120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98");
    ]

let sha256_million_a () =
  check_string "10^6 x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.digest (Bytes.make 1_000_000 'a')))

(* One scratch reused for two messages of different lengths, as the
   miner reuses it across nonces. *)
let sha256_scratch_double =
  qcheck "sha256 scratch double = digest (digest m)"
    QCheck.(pair (string_of_size (Gen.int_bound 200)) (string_of_size (Gen.int_bound 200)))
    (fun (m1, m2) ->
      let s = Sha256.scratch 200 in
      List.for_all
        (fun m ->
          let len = String.length m in
          Bytes.blit_string m 0 s.Sha256.msg 0 len;
          Sha256.double s len;
          let want = Sha256.digest (Sha256.digest (Bytes.of_string m)) in
          Bytes.equal (Sha256.result s) want
          && Sha256.zero_bits s = Sha256.leading_zero_bits want)
        [ m1; m2 ])

let sha256_zero_bits_across_words () =
  let s = Sha256.scratch 0 in
  Sha256.double s 0;
  s.Sha256.state.(0) <- 0;
  s.Sha256.state.(1) <- 0x0008_0000;
  check_int "one zero word + 12 bits" 44 (Sha256.zero_bits s);
  check_int "agrees with the digest" 44
    (Sha256.leading_zero_bits (Sha256.result s));
  Array.fill s.Sha256.state 0 8 0;
  check_int "all zero" 256 (Sha256.zero_bits s)

(* [hash_cycles] prices a batch before any hashing: it must equal the
   block counts of the header the miner actually hashes. *)
let miner_hash_cycles_match_blocks =
  qcheck "miner hash_cycles = header block counts"
    QCheck.(
      triple (int_bound 1_000_000)
        (string_of_size (Gen.int_bound 150))
        (int_bound 1_000_000_000))
    (fun (index, prev_hash, nonce) ->
      let first, b1 =
        Sha256.digest_with_blocks (Apps.Blockchain.header ~index ~prev_hash ~nonce)
      in
      let _, b2 = Sha256.digest_with_blocks first in
      Apps.Blockchain.hash_cycles ~index ~prev_len:(String.length prev_hash) ~nonce
      = (b1 + b2) * Sha256.cycles_per_block)

(* The offload batch against the plain definition: the first nonce whose
   double hash of the header clears the difficulty. *)
let miner_batch_matches_reference =
  qcheck "miner batch = first reference winner"
    QCheck.(
      quad (int_bound 100_000)
        (string_of_size (Gen.int_bound 80))
        (int_bound 50_000_000) (int_bound 8))
    (fun (index, prev_hash, n0, difficulty) ->
      let batch = 64 in
      let rec reference n =
        if n >= n0 + batch then None
        else
          let d =
            Sha256.digest (Sha256.digest (Apps.Blockchain.header ~index ~prev_hash ~nonce:n))
          in
          if Sha256.leading_zero_bits d >= difficulty then Some (n, Sha256.hex d)
          else reference (n + 1)
      in
      Apps.Blockchain.mine_batch ~index ~prev_hash ~difficulty ~n0 ~batch
      = reference n0)

let md5_vectors () =
  check_string "empty" "d41d8cd98f00b204e9800998ecf8427e"
    (Md5.hex (Md5.digest Bytes.empty));
  check_string "abc" "900150983cd24fb0d6963f7d28e17f72"
    (Md5.hex (Md5.digest (Bytes.of_string "abc")));
  check_string "alphabet" "c3fcd3d76192e4007dfb496cca67e13b"
    (Md5.hex (Md5.digest (Bytes.of_string "abcdefghijklmnopqrstuvwxyz")))

let suite_crypto =
  ( "user.crypto",
    [
      quick "sha256 FIPS vectors" sha256_vectors;
      quick "sha256 block counting" sha256_block_count;
      quick "sha256 difficulty bits" sha256_leading_zeros;
      quick "sha256 padding boundaries" sha256_padding_boundaries;
      quick "sha256 million a" sha256_million_a;
      sha256_scratch_double;
      quick "sha256 scratch zero bits across words" sha256_zero_bits_across_words;
      miner_hash_cycles_match_blocks;
      miner_batch_matches_reference;
      quick "md5 RFC vectors" md5_vectors;
    ] )

(* ---- gfx + events + minisdl against a live kernel ---- *)

let gfx_direct_rendering () =
  let kernel = boot_kernel () in
  (match
     Benchlib.Measure.run_task kernel ~name:"painter" (fun () ->
         let env = Uenv.create () in
         env.Uenv.e_fb <- kernel.Core.Kernel.fb;
         match Gfx.direct env with
         | Error e -> e
         | Ok gfx ->
             Gfx.fill gfx (Gfx.rgb 10 20 30);
             Gfx.put gfx ~x:5 ~y:5 0xffffff;
             Gfx.text gfx ~x:20 ~y:20 ~color:0x00ff00 "HI";
             Gfx.present gfx;
             0)
   with
  | Ok (0, _) -> ()
  | Ok (e, _) -> Alcotest.failf "painter failed: %d" e
  | Error e -> Alcotest.fail e);
  let fb = Option.get kernel.Core.Kernel.fb in
  check_int "pixel visible after present" 0xffffff
    (Hw.Framebuffer.display_pixel fb ~x:5 ~y:5);
  check_int "background" (Gfx.rgb 10 20 30) (Hw.Framebuffer.display_pixel fb ~x:600 ~y:400)

(* A windowed context over a [width] x [height] buffer of random bytes,
   built without a kernel: the draw calls touch only the buffer and the
   cycle tally. *)
let windowed_gfx rs ~width ~height =
  {
    Gfx.mode = Gfx.Windowed (-1);
    width;
    height;
    pixels = Bytes.init (4 * width * height) (fun _ -> Char.chr (Random.State.int rs 256));
    cost_cycles = 0;
  }

(* The per-pixel reference: [px]'s low 24 bits under an 0xff X byte,
   stored one byte at a time at (x, y) if it is on the buffer. *)
let store_ref (g : Gfx.t) b ~x ~y px =
  if x >= 0 && x < g.width && y >= 0 && y < g.height then begin
    let o = 4 * ((y * g.width) + x) in
    Bytes.set_uint8 b o (px land 0xff);
    Bytes.set_uint8 b (o + 1) ((px lsr 8) land 0xff);
    Bytes.set_uint8 b (o + 2) ((px lsr 16) land 0xff);
    Bytes.set_uint8 b (o + 3) 0xff
  end

(* put and fill_rect at every position from two pixels off each edge to
   two past it (rectangles of every size from -2 to two past the buffer,
   so each edge clips and a negative size draws and charges nothing),
   and fill of every buffer size up to 5x4, against per-pixel word
   stores: every byte of the buffer and the cycle tally must match,
   bytes off the drawn pixels untouched. Pixels have bits above 24 set. *)
let gfx_draw_matches_per_pixel () =
  let rs = Random.State.make [| 7 |] in
  let px () = Random.State.bits rs lor (Random.State.bits rs lsl 30) in
  let check name (g : Gfx.t) expect cost =
    check_bool (name ^ ": bytes") true (Bytes.equal g.pixels expect);
    check_int (name ^ ": cycles") cost g.cost_cycles
  in
  for width = 1 to 5 do
    for height = 1 to 4 do
      let g = windowed_gfx rs ~width ~height in
      let expect = Bytes.copy g.pixels in
      let c = px () in
      Gfx.fill g c;
      for y = 0 to height - 1 do
        for x = 0 to width - 1 do
          store_ref g expect ~x ~y c
        done
      done;
      check (Printf.sprintf "fill %dx%d" width height) g expect
        (width * height * Gfx.cost_fill_pixel)
    done
  done;
  let width = 5 and height = 4 in
  for y = -2 to height + 1 do
    for x = -2 to width + 1 do
      let g = windowed_gfx rs ~width ~height in
      let expect = Bytes.copy g.pixels in
      let c = px () in
      Gfx.put g ~x ~y c;
      store_ref g expect ~x ~y c;
      let on = x >= 0 && x < width && y >= 0 && y < height in
      check (Printf.sprintf "put %d,%d" x y) g expect (if on then Gfx.cost_pixel else 0);
      for h = -2 to height + 2 do
        for w = -2 to width + 2 do
          let g = windowed_gfx rs ~width ~height in
          let expect = Bytes.copy g.pixels in
          let c = px () in
          Gfx.fill_rect g ~x ~y ~w ~h c;
          for yy = y to y + h - 1 do
            for xx = x to x + w - 1 do
              store_ref g expect ~x:xx ~y:yy c
            done
          done;
          check (Printf.sprintf "fill_rect %dx%d at %d,%d" w h x y) g expect
            (max 0 w * max 0 h * Gfx.cost_fill_pixel)
        done
      done
    done
  done

(* The draw calls on a windowed context store into its bytes and
   allocate nothing: under half a minor word a call, over 10^4 calls
   each (text draws a four-glyph string). *)
let gfx_draw_allocates_nothing () =
  let g = windowed_gfx (Random.State.make [| 1 |]) ~width:64 ~height:48 in
  let n = 10_000 in
  let per_call name f =
    Gc.minor ();
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      f i
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int n in
    check_bool (Printf.sprintf "%s allocates nothing (%.3f words a call)" name words) true
      (words < 0.5)
  in
  per_call "put" (fun i -> Gfx.put g ~x:(i land 63) ~y:(i land 31) i);
  per_call "fill" (fun i -> Gfx.fill g i);
  per_call "fill_rect" (fun i -> Gfx.fill_rect g ~x:(i land 7) ~y:3 ~w:20 ~h:9 i);
  per_call "text" (fun i -> Gfx.text g ~x:(i land 15) ~y:2 ~color:i "AB:9");
  let src = Bytes.make (4 * 80) '\xff' in
  per_call "blit_row" (fun i -> Gfx.blit_row g ~y:(i land 63) ~src ~src_off:(i land 15) ~x:(i land 7) ~w:60)

(* Gfx stores unchecked, so a hand-built context whose [pixels] is
   shorter than [4 * width * height] must make a draw raise
   [Invalid_argument] before it stores: fill, fill_rect and blit_row
   whatever they cover, put when its word is past the end. A geometry
   whose product overflows is short too. blit_row also refuses a
   source too short for the span it would store. *)
let gfx_draws_refuse_a_short_buffer () =
  let raises name (g : Gfx.t) f =
    let before = Bytes.copy g.pixels in
    (match f g with
    | () -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ());
    check_bool (name ^ ": buffer untouched") true (Bytes.equal g.pixels before);
    check_int (name ^ ": nothing charged") 0 g.cost_cycles
  in
  let gfx ~width ~height bytes =
    { Gfx.mode = Gfx.Windowed (-1); width; height; pixels = Bytes.make bytes '\x11'; cost_cycles = 0 }
  in
  let one_word_short () = gfx ~width:5 ~height:4 ((4 * 5 * 4) - 4) in
  raises "fill" (one_word_short ()) (fun g -> Gfx.fill g 0x123456);
  raises "fill_rect 1x1 at 0,0" (one_word_short ()) (fun g ->
      Gfx.fill_rect g ~x:0 ~y:0 ~w:1 ~h:1 0x123456);
  raises "fill_rect over all" (one_word_short ()) (fun g ->
      Gfx.fill_rect g ~x:(-1) ~y:(-1) ~w:9 ~h:9 0x123456);
  raises "put at the last pixel" (one_word_short ()) (fun g -> Gfx.put g ~x:4 ~y:3 0x123456);
  let row = Bytes.make (4 * 5) '\xff' in
  raises "blit_row 1 word at 0,0" (one_word_short ()) (fun g ->
      Gfx.blit_row g ~y:0 ~src:row ~src_off:0 ~x:0 ~w:1);
  (* the clipped span is columns 0-4, words 2-6 of a 5-word source *)
  raises "blit_row, src short of the clipped span" (gfx ~width:5 ~height:4 80) (fun g ->
      Gfx.blit_row g ~y:1 ~src:row ~src_off:1 ~x:(-1) ~w:9);
  (* 4 * 2^61 wraps to byte 0 of [row], which holds the span *)
  raises "blit_row, src_off past the end by a wrapping multiple" (gfx ~width:5 ~height:4 80)
    (fun g -> Gfx.blit_row g ~y:1 ~src:row ~src_off:(1 lsl 61) ~x:0 ~w:5);
  let side = 1 lsl 40 in
  let overflowing () = gfx ~width:side ~height:side 16 in
  raises "fill, overflowing geometry" (overflowing ()) (fun g -> Gfx.fill g 0x123456);
  raises "fill_rect, overflowing geometry" (overflowing ()) (fun g ->
      Gfx.fill_rect g ~x:0 ~y:0 ~w:1 ~h:1 0x123456);
  raises "put, overflowing geometry" (overflowing ()) (fun g ->
      Gfx.put g ~x:0 ~y:(side - 1) 0x123456)

(* fill_rect stores unchecked, so coordinates whose [x + w], [y + h]
   or [y * width] overflow must not wrap into an index outside
   [pixels]: on a whole buffer each such call raises
   [Invalid_argument] or draws nothing. *)
let gfx_fill_rect_overflowing_coordinates () =
  let m = max_int and n = min_int in
  List.iter
    (fun (x, y, w, h) ->
      let g =
        { Gfx.mode = Gfx.Windowed (-1); width = 5; height = 4; pixels = Bytes.make 80 '\x11'; cost_cycles = 0 }
      in
      let before = Bytes.copy g.pixels in
      (try Gfx.fill_rect g ~x ~y ~w ~h 0x123456 with Invalid_argument _ -> ());
      check_bool (Printf.sprintf "fill_rect ~x:%d ~y:%d ~w:%d ~h:%d: buffer untouched" x y w h) true
        (Bytes.equal g.pixels before))
    [
      (m, 0, 1, 1); (0, m, 1, 1); (m, m, m, m); (1, 0, m, 1); (0, 1, 1, m); (4, 3, m, m);
      (n, 0, m, 1); (0, n, 1, m); (n, n, m, m); (m, 0, n, 1); (0, m, 1, n);
    ]

(* blit_row against a put loop over the same words: random geometry,
   rows on and off the buffer, columns from left of it to past it and
   spans out to an [x + w] of [max_int]. A put whose column is off the
   buffer stores and charges nothing, so the loop runs over the span's
   on-buffer columns only. The source words come from
   [words_of_ints] over ints with bits above 24 set, so the pass checks
   its masking too. *)
let gfx_blit_row_matches_put_loop =
  let open QCheck in
  let gen =
    Gen.(
      let* width = int_range 1 8 and* height = int_range 1 6 in
      let* x = int_range (-10) 10 and* y = int_range (-2) (height + 1) in
      let* w = oneof [ int_range (-3) 12; map (fun k -> max_int - k) (int_range 0 20) ] in
      let* src_off = int_range 0 5 and* seed = int in
      return (width, height, x, y, (if x > 0 then min w (max_int - x) else w), src_off, seed))
  in
  qcheck ~count:500 "gfx blit_row = put loop"
    (make ~print:(fun (wd, ht, x, y, w, o, _) ->
         Printf.sprintf "%dx%d ~x:%d ~y:%d ~w:%d ~src_off:%d" wd ht x y w o)
       gen)
    (fun (width, height, x, y, w, src_off, seed) ->
      let rs = Random.State.make [| seed |] in
      let g = windowed_gfx rs ~width ~height in
      let ref_g = { g with pixels = Bytes.copy g.pixels } in
      (* every on-buffer column [x + i] has [i < width + 10] *)
      let ints =
        Array.init (src_off + width + 11) (fun _ ->
            Random.State.bits rs lor (Random.State.bits rs lsl 30))
      in
      let src = Gfx.words_of_ints ints in
      Gfx.blit_row g ~y ~src ~src_off ~x ~w;
      for i = max 0 (-x) to min w (width - x) - 1 do
        Gfx.put ref_g ~x:(x + i) ~y ints.(src_off + i)
      done;
      Bytes.equal g.pixels ref_g.pixels && g.cost_cycles = ref_g.cost_cycles)

(* A span whose [x + w] overflows draws and charges nothing, as
   fill_rect's does. *)
let gfx_blit_row_overflowing_span () =
  List.iter
    (fun (x, w) ->
      let g =
        { Gfx.mode = Gfx.Windowed (-1); width = 5; height = 4; pixels = Bytes.make 80 '\x11'; cost_cycles = 0 }
      in
      Gfx.blit_row g ~y:1 ~src:(Bytes.make 40 '\xff') ~src_off:0 ~x ~w;
      check_bool (Printf.sprintf "blit_row ~x:%d ~w:%d: buffer untouched" x w) true
        (Bytes.equal g.pixels (Bytes.make 80 '\x11'));
      check_int (Printf.sprintf "blit_row ~x:%d ~w:%d: nothing charged" x w) 0 g.cost_cycles)
    [ (1, max_int); (4, max_int - 3); (max_int, 1); (max_int, max_int) ]

let event_encoding_roundtrip =
  qcheck "kbd event wire encoding roundtrip"
    QCheck.(triple (int_bound 255) bool (int_bound 255))
    (fun (code, pressed, mods) ->
      let ev =
        {
          Core.Kbd.ev_code = code;
          ev_pressed = pressed;
          ev_modifiers = mods;
          ev_ts_ns = 123_000L;
        }
      in
      let back = Core.Kbd.decode (Core.Kbd.encode ev) ~off:0 in
      back.Core.Kbd.ev_code = code
      && back.Core.Kbd.ev_pressed = pressed
      && back.Core.Kbd.ev_modifiers = mods
      && back.Core.Kbd.ev_ts_ns = 123_000L)

let key_mapping () =
  check_bool "arrows" true (Uevents.key_of_usage 0x52 = Uevents.Up);
  check_bool "enter" true (Uevents.key_of_usage 0x28 = Uevents.Enter);
  check_bool "letters" true (Uevents.key_of_usage 0x04 = Uevents.Char 'a');
  check_bool "digits" true (Uevents.key_of_usage 0x1e = Uevents.Char '1');
  check_bool "unknown" true (Uevents.key_of_usage 0xee = Uevents.Other 0xee)

let minisdl_audio_thread () =
  let kernel = boot_kernel () in
  (match
     Benchlib.Measure.run_task kernel ~name:"sdl-app" (fun () ->
         let env = Uenv.create () in
         env.Uenv.e_fb <- kernel.Core.Kernel.fb;
         match Minisdl.init env Minisdl.Fullscreen with
         | Error e -> e
         | Ok sdl ->
             let served = ref 0 in
             let callback n =
               served := !served + n;
               Array.init n (fun i -> (i * 13) land 0x3fff)
             in
             ignore (Minisdl.open_audio sdl callback);
             Minisdl.delay 400;
             Minisdl.quit sdl;
             if !served > 8192 then 0 else 1)
   with
  | Ok (0, _) -> ()
  | Ok (rc, _) -> Alcotest.failf "audio thread served too little (rc %d)" rc
  | Error e -> Alcotest.fail e);
  check_bool "samples flowed to the device" true
    (Hw.Pwm_audio.samples_played kernel.Core.Kernel.board.Hw.Board.pwm > 4096)

let suite_threads =
  ( "user.runtime",
    [
      quick "gfx direct rendering" gfx_direct_rendering;
      event_encoding_roundtrip;
      quick "hid key mapping" key_mapping;
      quick "minisdl audio thread streams" minisdl_audio_thread;
      quick "gfx draws = per-pixel word stores" gfx_draw_matches_per_pixel;
      quick "gfx draws allocate nothing" gfx_draw_allocates_nothing;
      quick "gfx draws refuse a short buffer" gfx_draws_refuse_a_short_buffer;
      quick "gfx fill_rect at overflowing coordinates" gfx_fill_rect_overflowing_coordinates;
      gfx_blit_row_matches_put_loop;
      quick "gfx blit_row over an overflowing span" gfx_blit_row_overflowing_span;
    ] )
