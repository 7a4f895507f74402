(** The audio output path behind /dev/sb — the paper's showcase
    producer-consumer pipeline (§4.4): the app writes PCM samples into the
    driver's ring buffer (blocking when full), the driver DMAs them to the
    PWM FIFO, and DMA-completion interrupts pull more. Any stall anywhere
    audibly stutters; {!Hw.Pwm_audio.underruns} counts the glitches. *)

let ring_capacity = 32768 (* samples *)
let dma_channel = 0
let dma_batch = 2048 (* samples per DMA transfer *)

type t = {
  board : Hw.Board.t;
  sched : Sched.t;
  ring : int Queue.t;
  mutable dma_active : bool;
}

let pump t =
  if not t.dma_active then begin
    let pwm = t.board.Hw.Board.pwm in
    let want = min dma_batch (min (Queue.length t.ring) (Hw.Pwm_audio.fifo_space pwm)) in
    if want > 0 then begin
      let batch = Array.init want (fun _ -> Queue.pop t.ring) in
      t.dma_active <- true;
      Hw.Dma.start t.board.Hw.Board.dma ~channel:dma_channel
        ~bytes_len:(2 * want)
        ~on_complete:(fun () ->
          ignore (Hw.Pwm_audio.push_samples pwm batch))
    end
  end

let on_dma_irq t () =
  Hw.Dma.ack t.board.Hw.Board.dma ~channel:dma_channel;
  t.dma_active <- false;
  Sched.wake_all t.sched Task.Audio_space;
  pump t

let create board sched =
  let t =
    {
      board;
      sched;
      ring = Queue.create ();
      dma_active = false;
    }
  in
  Sched.register_irq sched (Hw.Irq.Dma_channel dma_channel) (on_dma_irq t);
  (* The PWM "needs data" pacing also pumps, so playback starts without
     waiting for a full batch. *)
  Hw.Pwm_audio.set_drain_listener board.Hw.Board.pwm (fun () -> pump t);
  Hw.Pwm_audio.start board.Hw.Board.pwm;
  t

(* Write signed 16-bit little-endian samples. Blocks while the ring is
   full — the backpressure that paces the decoder thread. *)
let write ctx t data =
  let nsamples = Bytes.length data / 2 in
  let written = ref 0 in
  let rec step () =
    if !written >= nsamples then begin
      pump t;
      Sched.finish ctx (Abi.R_int (Bytes.length data))
    end
    else begin
      let space = ring_capacity - Queue.length t.ring in
      if space = 0 then begin
        pump t;
        Sched.block ctx ~chan:Task.Audio_space ~retry:step
      end
      else begin
        let n = min space (nsamples - !written) in
        for i = !written to !written + n - 1 do
          Queue.add (Bytes.get_int16_le data (2 * i)) t.ring
        done;
        Sched.charge ctx (Kcost.audio_per_sample * n);
        written := !written + n;
        step ()
      end
    end
  in
  if nsamples = 0 then Sched.finish ctx (Abi.R_int 0) else step ()
