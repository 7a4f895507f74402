(** The process environment handed to apps at registration time.

    Real VOS programs discover the framebuffer through mmap's returned
    address; our apps get the backing object through this record, filled in
    by the stager once the board exists. The SIMD flag mirrors §5.2's
    NEON pixel paths — apps consult it to pick the fast conversion
    kernels. *)

type t = {
  mutable e_fb : Hw.Framebuffer.t option;  (** set after boot *)
  mutable e_simd : bool;  (** NEON-style pixel ops available *)
}

let create () = { e_fb = None; e_simd = true }

let fb t =
  match t.e_fb with
  | Some fb -> fb
  | None -> invalid_arg "uenv: framebuffer not present (did mmap succeed?)"
