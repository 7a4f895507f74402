type t =
  | No_entry of string
  | Exists of string
  | Not_dir of string
  | Is_dir of string
  | Too_big of string
  | No_space of string
  | Not_empty of string
  | Invalid of string

let to_string = function
  | No_entry m | Exists m | Not_dir m | Is_dir m | Too_big m | No_space m
  | Not_empty m | Invalid m ->
      m
