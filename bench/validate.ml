(* Artifact validator for the bench-smoke alias: every BENCH_*.json given
   on the command line must exist, parse as JSON, and be structurally
   sane — a non-empty array of row objects (or, for BENCH_meta.json, an
   object carrying the required bookkeeping fields). Exits nonzero with a
   message naming the first offending file. *)

module Json = Harness.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* Artifacts with a known row schema get field-level checks on top of the
   generic shape check: the fields the writing target's registry entry
   declares. *)
let required_fields path =
  List.find_map
    (fun (t : Figures.target) ->
      if Figures.artifact_name t.name = Filename.basename path then
        Some t.fields
      else None)
    Figures.targets
  |> Option.value ~default:[]

let require_rows path = function
  | Json.List [] -> fail "%s: empty rows array" path
  | Json.List rows ->
      let fields = required_fields path in
      List.iteri
        (fun i row ->
          match row with
          | Json.Obj (_ :: _) ->
              List.iter
                (fun f ->
                  if Json.member f row = None then
                    fail "%s: row %d missing field %S" path i f)
                fields
          | _ -> fail "%s: row %d is not a non-empty object" path i)
        rows
  | Json.Obj (_ :: _) -> ()  (* scalar-shaped artifacts (pt-overhead, ablations) *)
  | _ -> fail "%s: expected an array of rows or an object" path

(* The chaos soak's artifact: a summary object carrying one row per
   session; the counts must be consistent with the rows. *)
let require_chaos path json =
  List.iter
    (fun key ->
      if Json.member key json = None then fail "%s: missing field %S" path key)
    [
      "schema_version";
      "seed";
      "budget_seconds";
      "wall_clock_seconds";
      "sessions";
      "passed";
      "failed";
      "crashes_injected";
      "livelocks";
      "rows";
    ];
  match Json.member "rows" json with
  | Some (Json.List (_ :: _ as rows)) ->
      List.iteri
        (fun i row ->
          List.iter
            (fun f ->
              if Json.member f row = None then
                fail "%s: row %d missing field %S" path i f)
            [
              "seed"; "backend"; "cores"; "ops"; "passed"; "crashes";
              "livelocked"; "wall_clock_seconds";
            ])
        rows;
      (match (Json.member "sessions" json, Json.member "passed" json,
              Json.member "failed" json) with
      | Some (Json.Int n), Some (Json.Int p), Some (Json.Int f) ->
          if n <> List.length rows then
            fail "%s: sessions=%d but %d rows" path n (List.length rows);
          if p + f <> n then
            fail "%s: passed(%d) + failed(%d) <> sessions(%d)" path p f n
      | _ -> fail "%s: sessions/passed/failed must be integers" path)
  | Some (Json.List []) -> fail "%s: empty rows array" path
  | _ -> fail "%s: missing or malformed rows" path

let require_meta path json =
  List.iter
    (fun key ->
      if Json.member key json = None then fail "%s: missing field %S" path key)
    [
      "schema_version";
      "targets";
      "jobs";
      "wall_clock_seconds";
      "target_wall_clock_seconds";
      "commit";
    ];
  (* Per-target times must cover exactly the targets that ran. *)
  match
    (Json.member "targets" json, Json.member "target_wall_clock_seconds" json)
  with
  | Some (Json.List targets), Some (Json.Obj walls) ->
      List.iter
        (fun t ->
          match t with
          | Json.String name ->
              if not (List.mem_assoc name walls) then
                fail "%s: no wall clock recorded for target %S" path name
          | _ -> ())
        targets
  | _ -> fail "%s: malformed targets / target_wall_clock_seconds" path

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then fail "usage: validate.exe BENCH_*.json...";
  List.iter
    (fun path ->
      if not (Sys.file_exists path) then fail "%s: missing artifact" path;
      match Json.of_file path with
      | Error m -> fail "%s: invalid JSON: %s" path m
      | Ok json ->
          if Filename.basename path = "BENCH_meta.json" then
            require_meta path json
          else if Filename.basename path = "BENCH_chaos.json" then
            require_chaos path json
          else require_rows path json)
    paths;
  Printf.printf "validate: %d artifacts ok\n" (List.length paths)
