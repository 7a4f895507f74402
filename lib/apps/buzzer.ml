(** buzzer — Prototype 4's first sound app: synthesizes a square wave and
    pushes it through /dev/sb, exercising the DMA pipeline end to end. *)


open User

let rate = 44100

(* argv: buzzer [freq_hz] [duration_ms] *)
let main _env argv =
  Usys.in_frame "buzzer_main" (fun () ->
      let freq = match argv with _ :: f :: _ -> int_of_string f | _ -> 440 in
      let dur_ms = match argv with _ :: _ :: d :: _ -> int_of_string d | _ -> 250 in
      let fd = Usys.open_ "/dev/sb" Core.Abi.o_wronly in
      if fd < 0 then -fd
      else begin
        let total = rate * dur_ms / 1000 in
        let half_period = max 1 (rate / (2 * freq)) in
        let chunk = 4096 in
        let buf = Bytes.create (chunk * 2) in
        let sent = ref 0 in
        while !sent < total do
          let n = min chunk (total - !sent) in
          for i = 0 to n - 1 do
            let phase = (!sent + i) / half_period mod 2 in
            Bytes.set_int16_le buf (2 * i) (if phase = 0 then 12000 else -12000)
          done;
          Usys.burn (n * 4) (* synth cost *);
          ignore (Usys.write fd (Bytes.sub buf 0 (2 * n)));
          sent := !sent + n
        done;
        ignore (Usys.close fd);
        0
      end)
