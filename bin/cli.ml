(* Command-line conventions shared by radixvm-fuzz and radixvm-chaos. *)

(* Counts are checked at the CLI boundary: a negative count used to be
   silently clamped, or to run nothing and pass, which made typos look
   like tiny successful runs. *)
let count ?(min = 1) what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= min -> Ok v
    | Some v ->
        Error
          (`Msg (Printf.sprintf "%s must be at least %d, got %d" what min v))
    | None -> Error (`Msg (Printf.sprintf "invalid %s: %S" what s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

(* A time budget, finite and non-negative: a negative or NaN budget would
   still run one session and pass, and JSON has no NaN to record. *)
let seconds what =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v >= 0.0 -> Ok v
    | Some _ ->
        Error
          (`Msg
             (Printf.sprintf "%s must be a finite number >= 0, got %s" what s))
    | None -> Error (`Msg (Printf.sprintf "invalid %s: %S" what s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_float)
