(* BENCHMARK.json, the single declaration of the benchmark's workloads and
   metrics: names, units, directions, regression bounds, and why each
   workload is there. The benchmark reads names and units from here and
   refuses to emit a metric that is not declared or to omit one that
   is. *)

module Json = Harness.Json

type metric = {
  name : string;
  unit_ : string;
  better : string;  (** "higher" or "lower" *)
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : int;  (** time one run spends on timed reps *)
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let string_field key j =
  match Json.member key j with
  | Some (Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" key)

let list_field key j =
  match Json.member key j with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing list field %S" key)

let all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let metric j =
  let* name = string_field "name" j in
  let* unit_ = string_field "unit" j in
  let* better = string_field "better" j in
  let bound =
    match Json.member "bound" j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  Ok { name; unit_; better; bound }

let of_json j =
  let* run_seconds =
    match Json.member "run_seconds" j with
    | Some (Json.Int n) when n > 0 -> Ok n
    | _ -> Error "missing positive integer field \"run_seconds\""
  in
  let* ws = list_field "workloads" j in
  let* workloads =
    all
      (fun w ->
        let* n = string_field "name" w in
        let* why = string_field "why" w in
        Ok (n, why))
      ws
  in
  let* e2e = list_field "end_to_end" j in
  let* end_to_end = all metric e2e in
  let* pl = list_field "per_layer" j in
  let* per_layer = all metric pl in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load path =
  match Json.of_file path with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j -> Result.map_error (fun e -> path ^ ": " ^ e) (of_json j)

(* [check ~what declared emitted] is [Error] naming every emitted name the
   declaration lacks and every declared name not emitted. *)
let check ~what declared emitted =
  let names = List.map (fun m -> m.name) declared in
  let undeclared = List.filter (fun n -> not (List.mem n names)) emitted in
  let missing = List.filter (fun n -> not (List.mem n emitted)) names in
  if undeclared = [] && missing = [] then Ok ()
  else
    Error
      (Printf.sprintf "%s metrics disagree with BENCHMARK.json:%s%s" what
         (if undeclared = [] then ""
          else " undeclared [" ^ String.concat ", " undeclared ^ "]")
         (if missing = [] then ""
          else " missing [" ^ String.concat ", " missing ^ "]"))
