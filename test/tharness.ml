(** Shared fixtures for the kernel-level tests: boot small kernels, run
    user closures to completion, drive the clock. *)

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Every test kernel runs with the runtime sanitizer armed: lockdep,
   deadlock scans and refcount audits ride along for free (kcheck
   charges zero virtual cycles, so timing-sensitive expectations are
   untouched). *)
let test_config = { Core.Kconfig.full with kcheck = true }

(* A ready-to-use prototype-5 kernel with no programs. *)
let boot_kernel ?(config = test_config) ?(platform = Hw.Board.pi3) () =
  Core.Kernel.boot
    { Core.Kernel.default_spec with sp_platform = platform; sp_config = config }

(* Run a user closure to completion on a fresh kernel; returns its value. *)
let in_kernel ?config ?platform f =
  let kernel = boot_kernel ?config ?platform () in
  match Benchlib.Measure.run_task kernel ~name:"test" (fun () -> f kernel) with
  | Ok (v, _elapsed) -> v
  | Error e -> Alcotest.fail e

(* Run a user closure and also return the virtual time it took (ns). *)
let in_kernel_timed ?config f =
  let kernel = boot_kernel ?config () in
  match Benchlib.Measure.run_task kernel ~name:"test" (fun () -> f kernel) with
  | Ok (v, elapsed) -> (v, elapsed)
  | Error e -> Alcotest.fail e

let run_for kernel s = Core.Kernel.run_for kernel (Sim.Engine.sec s)

(* MD5 of a framebuffer plane read pixel by pixel through [f]
   ([read_pixel] for the CPU view, [display_pixel] for the display
   plane), each value as 8 little-endian bytes. *)
let fb_plane_md5 fb f =
  let w = Hw.Framebuffer.width fb and h = Hw.Framebuffer.height fb in
  let b = Bytes.create (8 * w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      Bytes.set_int64_le b (8 * ((y * w) + x)) (Int64.of_int (f fb ~x ~y))
    done
  done;
  Digest.to_hex (Digest.bytes b)

(* Assertions *)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let check_close ?(eps = 1e-6) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %g, got %g" name expected actual

let check_in_range name lo hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %g outside [%g, %g]" name actual lo hi

let check_ok name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" name e

let check_err name = function
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error e -> e

(* Filesystem results. A failure prints as its errno and message; an
   expected failure must match in constructor and text. *)
let fs_error =
  Alcotest.testable
    (fun ppf e ->
      Format.fprintf ppf "%s %S"
        (Core.Errno.name (Core.Errno.of_fs_error e))
        (Fs.Error.to_string e))
    ( = )

let check_fs_ok name = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: unexpected error: %a" name (Alcotest.pp fs_error) e

let check_fs_err name want = function
  | Ok _ -> Alcotest.failf "%s: expected %a" name (Alcotest.pp fs_error) want
  | Error e -> Alcotest.check fs_error name want e
