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
