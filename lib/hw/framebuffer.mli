(** The GPU framebuffer, with CPU-cache effects.

    Pi3's framebuffer lives in GPU-reserved memory; the paper's §4.3
    "see CPU cache in action" experience hinges on two hardware facts this
    model reproduces:

    - Mapping the framebuffer {e uncached} makes every store go to memory
      (slow but always coherent).
    - Mapping it {e cached} makes stores cheap, but the display scans out of
      memory, so frames are invisible (stale) until the CPU cache is flushed
      for the framebuffer range. On silicon, unflushed lines also leak to
      memory as cache lines are evicted, which is why the paper's artifacts
      "gradually disappear"; the model does not evict, so a [Cached] frame
      stays stale until it is flushed.

    The model keeps two pixel planes: the CPU view (cache) and the memory
    plane the display reads. [flush] copies dirty rows. Both are bytes
    in the layout the mailbox allocates and the /dev/fb and /dev/surface
    ABIs carry: 4 bytes a pixel, little-endian XRGB8888, row-major. The
    display ignores the X byte: [read_pixel], [display_pixel], [to_ppm]
    and [to_ascii] see each pixel's low 24 bits, 0xRRGGBB. *)

type mapping = Uncached | Cached

type t

val create : width:int -> height:int -> t

val width : t -> int
val height : t -> int

val set_mapping : t -> mapping -> unit
val mapping : t -> mapping

val write_pixel : t -> x:int -> y:int -> int -> unit
(** Store one 0xRRGGBB pixel (its low 24 bits; the X byte is 0) through
    the CPU view. Out-of-bounds writes are ignored (the real fb would
    wrap into GPU memory; apps must clip). *)

val read_pixel : t -> x:int -> y:int -> int
(** CPU-view load: the pixel's low 24 bits. *)

val cpu_view : t -> Bytes.t
(** The CPU view itself, [4 * width * height] bytes: a compositor, a
    direct-mode present or the /dev/fb write path builds rows in place
    here and then reports each one with [wrote_row]; a store that is not
    reported is neither published nor marked dirty. *)

val wrote_row : t -> int -> unit
(** [wrote_row t y] reports that row [y] of the CPU view was written,
    as [write_pixel] does after its store: [Uncached] publishes the row to
    the display plane, [Cached] marks it dirty until [flush]. Raises
    [Invalid_argument] if [y] is off the screen. *)

val flush : t -> unit
(** Cache-clean the framebuffer range: publish all dirty rows to the
    display plane. No-op under [Uncached]. *)

val display_pixel : t -> x:int -> y:int -> int
(** What the display scan-out reads at (x,y). *)

val stale_rows : t -> int
(** Number of rows whose CPU view differs from the display plane; the
    visible-artifact metric for the §4.3 experiment. *)

val frames_presented : t -> int
(** Count of [flush] calls that published at least one row. *)

val to_ppm : t -> string
(** Render the display plane as a binary PPM (P6), for dumping screenshots
    from examples. *)

val to_ascii : t -> cols:int -> rows:int -> string
(** Downsample the display plane to luminance ASCII art. *)
