(** The VideoCore property mailbox.

    On Pi3 the ARM cores talk to the GPU firmware through a mailbox carrying
    property tags; allocating the framebuffer is a multi-tag transaction
    (set physical size, set depth, allocate). The model implements the tags
    VOS uses. Each call costs a round-trip latency, returned to the caller
    for time accounting. *)

type tag =
  | Set_physical_size of int * int  (** width, height *)
  | Set_depth of int  (** bits per pixel; only 32 is accepted *)
  | Allocate_buffer
  | Get_pitch

type tag_result =
  | Size_set of int * int
  | Depth_set of int
  | Buffer of Framebuffer.t
  | Pitch of int  (** bytes per row *)

type t

val create : Sim.Engine.t -> t

val round_trip_ns : int64
(** Latency of one mailbox transaction (the ARM side polls for the GPU's
    response). *)

val call : t -> tag list -> (tag_result list * int64, string) result
(** Execute a transaction; returns results in tag order plus the time cost.
    Fails if [Allocate_buffer] is requested before a physical size is set,
    or on an unsupported depth. *)
