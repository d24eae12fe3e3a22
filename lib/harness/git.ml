let read_line path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (String.trim (input_line ic)))
  with Sys_error _ | End_of_file -> None

(* [git pack-refs] moves loose refs into .git/packed-refs: one
   "<hash> <ref>" line each, under a "#" header, with a "^<hash>" line
   after each annotated tag giving the commit it peels to. *)
let packed_ref r =
  match In_channel.with_open_text ".git/packed-refs" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          if String.starts_with ~prefix:"#" line
             || String.starts_with ~prefix:"^" line
          then None
          else
            match String.split_on_char ' ' (String.trim line) with
            | [ hash; name ] when String.equal name r -> Some hash
            | _ -> None)
        (String.split_on_char '\n' text)

let commit () =
  match read_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        match read_line (Filename.concat ".git" r) with
        | Some hash -> hash
        | None -> Option.value ~default:"unknown" (packed_ref r)
      else head
