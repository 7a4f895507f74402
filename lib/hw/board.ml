type platform = {
  plat_name : string;
  cpu_hz : int;
  num_cores : int;
  io_scale : float;
  firmware_boot_ns : int64;
}

let pi3 =
  {
    plat_name = "pi3";
    cpu_hz = 1_000_000_000;
    num_cores = 4;
    io_scale = 1.0;
    (* GPU firmware stages (bootcode.bin, start.elf) plus reading the
       kernel image off the card dominate the paper's 6 s boot. *)
    firmware_boot_ns = 4_700_000_000L;
  }

let qemu_wsl =
  {
    plat_name = "qemu-wsl";
    cpu_hz = 1_500_000_000;
    num_cores = 4;
    io_scale = 0.02;
    firmware_boot_ns = 150_000_000L;
  }

let qemu_vm =
  {
    plat_name = "qemu-vm";
    cpu_hz = 1_380_000_000;
    num_cores = 4;
    io_scale = 0.02;
    firmware_boot_ns = 150_000_000L;
  }

type t = {
  platform : platform;
  engine : Sim.Engine.t;
  intc : Intc.t;
  timer : Timer.t;
  uart : Uart.t;
  mailbox : Mailbox.t;
  gpio : Gpio.t;
  dma : Dma.t;
  pwm : Pwm_audio.t;
  sd : Sd.t;
  usb : Usb.t;
  supply : Power.supply;
}

let create ?(platform = pi3) ?(sd_mib = 64) () =
  let engine = Sim.Engine.create () in
  let supply = Power.supply () in
  let intc = Intc.create ~cores:platform.num_cores in
  let timer = Timer.create engine intc ~cores:platform.num_cores in
  let uart = Uart.create engine intc ~baud:115200 in
  let mailbox = Mailbox.create engine in
  let gpio = Gpio.create engine intc in
  let dma = Dma.create engine intc ~channels:4 in
  let pwm = Pwm_audio.create engine ~rate:44100 in
  let sd = Sd.create engine ~size_mib:sd_mib in
  Sd.set_supply sd supply;
  let usb = Usb.create engine intc in
  {
    platform;
    engine;
    intc;
    timer;
    uart;
    mailbox;
    gpio;
    dma;
    pwm;
    sd;
    usb;
    supply;
  }

let cycles_to_ns t cycles =
  assert (cycles >= 0);
  Int64.div
    (Int64.mul (Int64.of_int cycles) 1_000_000_000L)
    (Int64.of_int t.platform.cpu_hz)

let io_ns t cost =
  let scaled = Int64.to_float cost *. t.platform.io_scale in
  Int64.of_float (Float.max 1.0 scaled)

let now t = Sim.Engine.now t.engine
