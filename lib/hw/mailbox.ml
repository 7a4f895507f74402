type tag =
  | Set_physical_size of int * int
  | Set_depth of int
  | Allocate_buffer
  | Get_pitch

type tag_result =
  | Size_set of int * int
  | Depth_set of int
  | Buffer of Framebuffer.t
  | Pitch of int

type t = {
  mutable size : (int * int) option;
  mutable depth : int;
  mutable fb : Framebuffer.t option;
}

let create _engine = { size = None; depth = 32; fb = None }

let round_trip_ns = 12_000L (* ~12 us: two mailbox polls + firmware work *)

let run_tag t tag =
  match tag with
  | Set_physical_size (w, h) ->
      if w <= 0 || h <= 0 || w > 4096 || h > 4096 then
        Error "mailbox: bad physical size"
      else begin
        t.size <- Some (w, h);
        Ok (Size_set (w, h))
      end
  | Set_depth d ->
      if d <> 32 then Error "mailbox: only 32bpp supported"
      else begin
        t.depth <- d;
        Ok (Depth_set d)
      end
  | Allocate_buffer -> (
      match t.size with
      | None -> Error "mailbox: allocate before size set"
      | Some (w, h) ->
          let fb =
            match t.fb with
            | Some fb when Framebuffer.width fb = w && Framebuffer.height fb = h
              ->
                fb
            | Some _ | None -> Framebuffer.create ~width:w ~height:h
          in
          t.fb <- Some fb;
          Ok (Buffer fb))
  | Get_pitch -> (
      match t.size with
      | None -> Error "mailbox: pitch before size set"
      | Some (w, _) -> Ok (Pitch (w * (t.depth / 8))))

let call t tags =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tag :: rest -> (
        match run_tag t tag with
        | Ok r -> go (r :: acc) rest
        | Error e -> Error e)
  in
  match go [] tags with
  | Ok results -> Ok (results, round_trip_ns)
  | Error e -> Error e
