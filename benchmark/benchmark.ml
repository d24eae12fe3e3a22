(* The repo benchmark (see README.md):

     benchmark.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                   [--out FILE]

   With --workload, runs that workload: one untraced warm-up rep, a
   correctness pre-flight, untraced timed reps for S seconds (at least
   three; default: BENCHMARK.json's run_seconds), then one traced rep. Prints every
   metric as "workload metric value unit", writes the rows to FILE
   (default BENCH_benchmark.json), and ends with one JSON line holding the
   end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
   Without --workload, runs every workload declared in BENCHMARK.json,
   each in its own child process, one after another, and merges their
   rows into FILE. Exits 1 if an output-correctness gate fails, 2 on
   misuse or a metric set that disagrees with BENCHMARK.json. *)

module Json = Harness.Json
open Benchkit

let min_reps = 3

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("benchmark: " ^ m);
      exit 2)
    fmt

type args = {
  workload : string option;
  seed : int;
  seconds : int option;
  trace : bool;
  out : string;
}

let usage =
  "usage: benchmark.exe [--workload NAME] [--seed N] [--seconds S] [--trace \
   0|1] [--out FILE]"

let parse argv =
  let int_arg flag v ~min =
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | _ -> fail "%s wants an integer >= %d, got %S\n%s" flag min v usage
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v ~min:0 } rest
    | "--seconds" :: v :: rest ->
        go { a with seconds = Some (int_arg "--seconds" v ~min:1) } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--out" :: f :: rest -> go { a with out = f } rest
    | x :: _ -> fail "unexpected argument %S\n%s" x usage
  in
  go
    { workload = None; seed = 1; seconds = None; trace = false;
      out = "BENCH_benchmark.json" }
    argv

let declared (spec : Spec.t) name =
  List.find (fun (m : Spec.metric) -> m.name = name) (spec.end_to_end @ spec.per_layer)

let row spec ~workload (name, samples) =
  let m = declared spec name in
  let q1, q3 = Span.quartiles samples in
  Json.Obj
    ([
       ("name", Json.String (workload ^ "." ^ name));
       ("value", Json.Float (Span.median samples));
       ("unit", Json.String m.unit_);
       ("better", Json.String m.better);
     ]
    @ (match m.bound with Some b -> [ ("tolerance", Json.Float b) ] | None -> [])
    @ [
        ("q1", Json.Float q1);
        ("q3", Json.Float q3);
        ("samples", Json.Int (List.length samples));
      ])

let document ~seed ~workloads ~metrics ~layer_metrics =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("seed", Json.Int seed);
      ("workloads", Json.List (List.map (fun w -> Json.String w) workloads));
      ("metrics", Json.List metrics);
      ("layer_metrics", Json.List layer_metrics);
    ]

let run_one (spec : Spec.t) (w : Suite.workload) a =
  let seconds = Option.value a.seconds ~default:spec.run_seconds in
  let errors = ref [] in
  let gate ok fmt =
    Printf.ksprintf (fun m -> if not ok then errors := m :: !errors) fmt
  in
  (* Every rep starts after a full collection, so no rep pays for the
     previous one's garbage. *)
  let rep ~traced =
    Gc.compact ();
    w.rep ~traced ~seed:a.seed
  in
  (* The first rep warms the process (heap growth, caches) and is not
     timed. The heap peak is read right after it: the peak of one rep in
     a fresh process, which later reps' floating garbage would otherwise
     tie to how many reps fit in the time budget. *)
  let warm = rep ~traced:false in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  (match w.preflight ~seed:a.seed with
  | Ok () -> ()
  | Error e -> gate false "pre-flight: %s" e);
  let t0 = Span.now_ns () in
  let rec timed acc n =
    if n >= min_reps && Span.now_ns () - t0 >= seconds * 1_000_000_000 then
      List.rev acc
    else timed (rep ~traced:false :: acc) (n + 1)
  in
  let reps = timed [] 0 in
  let traced = rep ~traced:true in
  List.iteri
    (fun i (r : Suite.rep) ->
      gate (r.digest = traced.digest)
        "rep %d simulated digest %s differs from the traced rep's %s" i
        r.digest traced.digest)
    (warm :: reps);
  let attempted, failed =
    List.fold_left
      (fun (a, f) (r : Suite.rep) -> (a + r.ops, f + r.failed))
      (0, 0) (warm :: traced :: reps)
  in
  gate (failed = 0) "%d of %d operations failed" failed attempted;
  let e2e = Suite.end_to_end ~heap_mb reps in
  let layers =
    Suite.layers
      ~untraced_window_s:(Span.median (List.map (fun (r : Suite.rep) -> r.window_s) reps))
      traced.obs
  in
  let names l = List.map fst l in
  (match
     ( Spec.check ~what:"end-to-end" spec.Spec.end_to_end (names e2e),
       Spec.check ~what:"per-layer" spec.per_layer (names layers) )
   with
  | Ok (), Ok () -> ()
  | Error e, _ | _, Error e -> fail "%s" e);
  let layers = List.map (fun (n, v) -> (n, [ v ])) layers in
  List.iter
    (fun (name, samples) ->
      Printf.printf "%s %s %.12g %s\n" w.name name (Span.median samples)
        (declared spec name).unit_)
    (e2e @ layers);
  Json.to_file ~pretty:true a.out
    (document ~seed:a.seed ~workloads:[ w.name ]
       ~metrics:(List.map (row spec ~workload:w.name) e2e)
       ~layer_metrics:(List.map (row spec ~workload:w.name) layers));
  List.iter (fun e -> prerr_endline (w.name ^ ": FAIL " ^ e)) (List.rev !errors);
  let correct = !errors = [] in
  let shown = if a.trace then layers else e2e in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, samples) ->
                     ( name,
                       Json.Obj
                         [
                           ("value", Json.Float (Span.median samples));
                           ("unit", Json.String (declared spec name).unit_);
                         ] ))
                   shown) );
          ]));
  exit (if correct then 0 else 1)

(* One child process per workload, strictly one at a time, so no
   workload's set-up or heap peak lands in another's numbers. *)
let run_all (spec : Spec.t) a =
  let rows key j =
    match Json.member key j with Some (Json.List l) -> l | _ -> []
  in
  let results =
    List.map
      (fun (name, _) ->
        let part =
          Printf.sprintf "%s.%s.json" (Filename.remove_extension a.out) name
        in
        let argv =
          Array.of_list
            ([ Sys.executable_name; "--workload"; name; "--seed";
               string_of_int a.seed; "--trace"; (if a.trace then "1" else "0");
               "--out"; part ]
            @ Option.fold ~none:[]
                ~some:(fun s -> [ "--seconds"; string_of_int s ])
                a.seconds)
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
            Unix.stderr
        in
        let ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
        let doc =
          if not (Sys.file_exists part) then Json.Null
          else
            match Json.of_file part with
            | Ok j ->
                Sys.remove part;
                j
            | Error e -> fail "%s" e
        in
        (ok, rows "metrics" doc, rows "layer_metrics" doc))
      spec.workloads
  in
  Json.to_file ~pretty:true a.out
    (document ~seed:a.seed ~workloads:(List.map fst spec.workloads)
       ~metrics:(List.concat_map (fun (_, m, _) -> m) results)
       ~layer_metrics:(List.concat_map (fun (_, _, l) -> l) results));
  Printf.printf "wrote %s\n" a.out;
  exit (if List.for_all (fun (ok, _, _) -> ok) results then 0 else 1)

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let spec =
    match Spec.load "BENCHMARK.json" with Ok s -> s | Error e -> fail "%s" e
  in
  let suite = Suite.all () in
  let known = List.map (fun (w : Suite.workload) -> w.name) suite in
  if List.sort compare known <> List.sort compare (List.map fst spec.workloads)
  then
    fail "workloads disagree with BENCHMARK.json: built [%s]"
      (String.concat ", " known);
  match a.workload with
  | None -> run_all spec a
  | Some name -> (
      match List.find_opt (fun (w : Suite.workload) -> w.name = name) suite with
      | Some w -> (
          (* A simulated workload raises on a failed operation. *)
          try run_one spec w a
          with e ->
            prerr_endline (name ^ ": FAIL " ^ Printexc.to_string e);
            exit 1)
      | None -> fail "unknown workload %S (known: %s)" name (String.concat ", " known))
