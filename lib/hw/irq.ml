type line =
  | Core_timer of int
  | Ipi of int
  | Uart_rx
  | Usb_hc
  | Dma_channel of int
  | Gpio_bank
  | Sd_card
  | Fiq_button

let equal a b =
  match (a, b) with
  | Core_timer x, Core_timer y -> x = y
  | Ipi x, Ipi y -> x = y
  | Uart_rx, Uart_rx -> true
  | Usb_hc, Usb_hc -> true
  | Dma_channel x, Dma_channel y -> x = y
  | Gpio_bank, Gpio_bank -> true
  | Sd_card, Sd_card -> true
  | Fiq_button, Fiq_button -> true
  | ( ( Core_timer _ | Ipi _ | Uart_rx | Usb_hc | Dma_channel _ | Gpio_bank
      | Sd_card | Fiq_button ),
      _ ) ->
      false

let describe = function
  | Core_timer c -> Printf.sprintf "core%d-timer" c
  | Ipi c -> Printf.sprintf "core%d-ipi" c
  | Uart_rx -> "uart-rx"
  | Usb_hc -> "usb-hc"
  | Dma_channel c -> Printf.sprintf "dma%d" c
  | Gpio_bank -> "gpio"
  | Sd_card -> "sd"
  | Fiq_button -> "fiq-button"
