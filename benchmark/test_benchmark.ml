(* Tests for the repo benchmark: the order statistics every metric is
   reported with, a tiny-window run of each workload through the same
   code path the benchmark times (the traced rep must reproduce the
   untraced rep's simulated outcome), and the agreement between the
   metrics the code emits and the ones BENCHMARK.json declares. *)

open Benchkit
module Json = Harness.Json

let spec_path = "../BENCHMARK.json"

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let hist_of_span values =
  let s = Span.make "test.hist" in
  List.iter (fun (v, n) -> for _ = 1 to n do Span.record s ~host_ns:1 ~cycles:v done) values;
  s

let test_percentiles () =
  let uniform = List.init 100 (fun i -> (i + 1, 1)) in
  Alcotest.(check int) "p50 of 1..100" 50 (Span.percentile 0.5 uniform);
  Alcotest.(check int) "p99.99 of 1..100" 100 (Span.percentile 0.9999 uniform);
  (* 99,980 fast ops and 20 stalls: the stalls sit beyond rank 99,990,
     so p99.99 sees them and p50 does not. *)
  let s = hist_of_span [ (5, 99_980); (255_000, 10); (300_000, 10) ] in
  let h = Span.histogram [ s ] in
  Alcotest.(check int) "p50" 5 (Span.percentile 0.5 h);
  Alcotest.(check int) "p99.99" 255_000 (Span.percentile 0.9999 h);
  Alcotest.(check int) "max" 300_000 (Span.percentile 1.0 h);
  Alcotest.(check int) "calls" 100_000 s.calls;
  Alcotest.(check int) "total cycles"
    ((5 * 99_980) + (255_000 * 10) + (300_000 * 10))
    (Span.total_cycles s);
  (* Two spans merge into one distribution. *)
  let t = hist_of_span [ (300_000, 20) ] in
  Alcotest.(check int) "merged p99.99" 300_000
    (Span.percentile 0.9999 (Span.histogram [ s; t ]));
  Alcotest.(check int) "empty" 0 (Span.percentile 0.5 [])

let feq = Alcotest.float 1e-9

let test_median_iqr () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "median even" 5.5 (Span.median xs);
  Alcotest.check feq "median odd" 2.0 (Span.median [ 3.0; 1.0; 2.0 ]);
  (* The values Python's statistics.quantiles(xs, n=4) gives. *)
  let q1, q3 = Span.quartiles xs in
  Alcotest.check feq "q1 of 1..10" 2.75 q1;
  Alcotest.check feq "q3 of 1..10" 8.25 q3;
  let q1, q3 = Span.quartiles [ 2.0; 1.0 ] in
  Alcotest.check feq "q1 of two" 0.75 q1;
  Alcotest.check feq "q3 of two" 2.25 q3;
  let q1, q3 = Span.quartiles [ 7.0 ] in
  Alcotest.check feq "q1 of one" 7.0 q1;
  Alcotest.check feq "q3 of one" 7.0 q3

(* ------------------------------------------------------------------ *)
(* Tiny runs of every workload                                         *)

let tiny = Suite.all ~tiny:true ()

let tiny_run (w : Suite.workload) =
  (match w.preflight ~seed:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (w.name ^ ": " ^ e));
  let plain = w.rep ~traced:false ~seed:1 in
  let traced = w.rep ~traced:true ~seed:1 in
  Alcotest.(check string) (w.name ^ ": traced digest") plain.digest traced.digest;
  Alcotest.(check bool) (w.name ^ ": ops") true (plain.ops > 0);
  Alcotest.(check int) (w.name ^ ": failed") 0 (plain.failed + traced.failed);
  (plain, traced)

let test_tiny_runs () =
  List.iter
    (fun (w : Suite.workload) ->
      let _, traced = tiny_run w in
      (* A simulated workload's traced rep times its op in the window. *)
      match traced.obs.machine with
      | None -> ()
      | Some _ ->
          Alcotest.(check bool) (w.name ^ ": op spans") true
            (List.exists (fun (s : Span.t) -> s.calls > 0) traced.obs.op_spans))
    tiny

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

let spec () =
  match Spec.load spec_path with Ok s -> s | Error e -> Alcotest.fail e

let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

let test_names_match_declaration () =
  let spec = spec () in
  Alcotest.(check (list string)) "workloads"
    (List.map fst spec.workloads)
    (List.map (fun (w : Suite.workload) -> w.name) tiny);
  let w = List.hd tiny in
  let rep = w.rep ~traced:true ~seed:1 in
  ok_or_fail
    (Spec.check ~what:"end-to-end" spec.end_to_end
       (List.map fst (Suite.end_to_end ~heap_mb:1.0 [ rep ])));
  ok_or_fail
    (Spec.check ~what:"per-layer" spec.per_layer
       (List.map fst (Suite.layers ~untraced_window_s:1.0 rep.obs)));
  (match Spec.check ~what:"x" spec.end_to_end [ "setup_s"; "bogus" ] with
  | Ok () -> Alcotest.fail "undeclared and missing names accepted"
  | Error _ -> ())

(* The format rules a benchmark declaration must obey to be run at all. *)
let test_declaration_format () =
  let j = match Json.of_file spec_path with Ok j -> j | Error e -> Alcotest.fail e in
  let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
  Alcotest.(check (list string)) "top-level keys"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    keys;
  let spec = spec () in
  let name_ok n =
    String.length n <= 64
    && n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
         n
  in
  let unit_ok u =
    String.length u <= 16
    && u <> ""
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
           | _ -> false)
         u
  in
  let names =
    List.map fst spec.workloads
    @ List.map (fun (m : Spec.metric) -> m.name) (spec.end_to_end @ spec.per_layer)
  in
  List.iter (fun n -> Alcotest.(check bool) ("name " ^ n) true (name_ok n)) names;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) ("unit of " ^ m.name) true (unit_ok m.unit_);
      Alcotest.(check bool) ("better of " ^ m.name) true
        (m.better = "higher" || m.better = "lower"))
    (spec.end_to_end @ spec.per_layer);
  List.iter
    (fun (_, why) ->
      Alcotest.(check bool) "why is one short line" true
        (String.length why <= 200 && not (String.contains why '\n')))
    spec.workloads;
  let n = List.length in
  Alcotest.(check bool) "2..8 workloads" true (n spec.workloads >= 2 && n spec.workloads <= 8);
  Alcotest.(check bool) "1..16 end-to-end" true (n spec.end_to_end >= 1 && n spec.end_to_end <= 16);
  Alcotest.(check bool) "1..128 per-layer" true (n spec.per_layer >= 1 && n spec.per_layer <= 128);
  let bounds = List.filter_map (fun (m : Spec.metric) -> m.bound) spec.end_to_end in
  Alcotest.(check int) "every end-to-end metric has a bound" (n spec.end_to_end) (n bounds);
  List.iter (fun b -> Alcotest.(check bool) "bound in [0, 0.25]" true (b >= 0.0 && b <= 0.25)) bounds;
  match List.find_opt (fun (m : Spec.metric) -> m.name = "setup_s") spec.end_to_end with
  | None -> Alcotest.fail "no setup_s"
  | Some m ->
      Alcotest.(check string) "setup_s unit" "s" m.unit_;
      Alcotest.(check string) "setup_s better" "lower" m.better;
      Alcotest.(check bool) "setup_s has the largest bound" true
        (List.for_all (fun b -> Some b <= m.bound) bounds)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "benchmark"
    [
      ( "statistics",
        [
          tc "exact percentiles" `Quick test_percentiles;
          tc "median and quartiles" `Quick test_median_iqr;
        ] );
      ("workloads", [ tc "tiny runs, traced = untraced" `Quick test_tiny_runs ]);
      ( "declaration",
        [
          tc "names match BENCHMARK.json" `Quick test_names_match_declaration;
          tc "format rules" `Quick test_declaration_format;
        ] );
    ]
