let read_line path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (String.trim (input_line ic)))
  with Sys_error _ | End_of_file -> None

let commit () =
  match read_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        Option.value ~default:"unknown" (read_line (Filename.concat ".git" r))
      else head
