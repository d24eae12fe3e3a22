(* Acceptance tests for simlint (lib/lint + bin/simlint.exe): each
   known-bad fixture under test/lint_fixtures must trip its rule family
   with a file:line finding, the clean control must stay silent, and the
   allowlist must both suppress and go stale loudly. The fixtures are
   scanned with --all-scopes, where every rule family applies everywhere
   (the real-tree scan's scoping is exercised by `dune build @lint`).

   The tests drive the real executable, not the library, so exit codes
   and output format are part of the contract. Dune runs tests from
   test/; we chdir to the build-context root so the fixture cmts' load
   paths resolve exactly as they do under `dune build @lint`. *)

let () = if Sys.file_exists "../bin/simlint.exe" then Sys.chdir ".."

let fixture_root = "test/lint_fixtures"

let run_simlint args =
  let cmd = Printf.sprintf "./bin/simlint.exe %s 2>/dev/null" args in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (code, List.rev !lines)

(* One full --all-scopes fixture scan shared by the assertions below. *)
let scan = lazy (run_simlint ("--all-scopes " ^ fixture_root))

let findings () =
  let _, lines = Lazy.force scan in
  List.filter (fun l -> not (String.length l >= 8 && String.sub l 0 8 = "simlint:")) lines

(* [contains needle l]: [needle] occurs somewhere in the line [l]. *)
let contains needle l =
  let n = String.length needle and ln = String.length l in
  let rec go i = i + n <= ln && (String.sub l i n = needle || go (i + 1)) in
  go 0

let has_finding ~file ~rule ~site =
  List.exists
    (fun l ->
      contains (file ^ ":") l
      && contains (Printf.sprintf "[%s]" rule) l
      && contains (site ^ ":") l)
    (findings ())

let check_fires ~file ~rule ~site () =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s at %s" file rule site)
    true
    (has_finding ~file ~rule ~site)

let check_silent ~file ~site msg () =
  Alcotest.(check bool) msg false
    (List.exists
       (fun l -> contains (file ^ ":") l && contains (site ^ ":") l)
       (findings ()))

let test_exit_code () =
  let code, _ = Lazy.force scan in
  Alcotest.(check int) "fixture scan exits 1" 1 code

let test_finding_format () =
  (* Every finding line is machine-readable: path:line: [rule-id] ... *)
  List.iter
    (fun l ->
      let ok =
        match String.index_opt l ':' with
        | None -> false
        | Some i -> (
            String.length l > i + 1
            &&
            match String.index_from_opt l (i + 1) ':' with
            | None -> false
            | Some j -> (
                (match int_of_string_opt (String.sub l (i + 1) (j - i - 1)) with
                | Some n -> n > 0
                | None -> false)
                && j + 2 < String.length l
                && l.[j + 2] = '['))
      in
      Alcotest.(check bool) (Printf.sprintf "parseable finding: %s" l) true ok)
    (findings ());
  Alcotest.(check bool) "scan produced findings" true (findings () <> [])

let test_good_clean () =
  let _, lines = Lazy.force scan in
  Alcotest.(check bool) "good_clean.ml has zero findings" false
    (List.exists (contains "good_clean.ml:") lines)

let with_temp_allow contents f =
  let path = Filename.temp_file "lint_allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_allow_suppresses () =
  with_temp_allow
    "det-entropy:Bad_determinism # fixture pin for the acceptance test\n"
    (fun allow ->
      let _, lines =
        run_simlint
          (Printf.sprintf "--all-scopes --allow %s %s" allow fixture_root)
      in
      Alcotest.(check bool) "det-entropy suppressed for Bad_determinism" false
        (List.exists (contains "[det-entropy] Bad_determinism") lines))

let test_allow_rule_ids_independent () =
  (* The additive wall-clock rule has its own id: pinning det-entropy for
     the module must leave the det-wallclock findings standing. *)
  with_temp_allow
    "det-entropy:Bad_wallclock # fixture pin for the acceptance test\n"
    (fun allow ->
      let code, lines =
        run_simlint
          (Printf.sprintf "--all-scopes --allow %s %s" allow fixture_root)
      in
      Alcotest.(check int) "det-wallclock still fails the scan" 1 code;
      Alcotest.(check bool) "det-wallclock survives a det-entropy pin" true
        (List.exists (contains "[det-wallclock] Bad_wallclock") lines))

let test_allow_stale () =
  with_temp_allow "hot-marshal:No_such_module.nowhere # stale on purpose\n"
    (fun allow ->
      let code, lines =
        run_simlint
          (Printf.sprintf "--all-scopes --allow %s %s" allow fixture_root)
      in
      Alcotest.(check int) "stale entry still fails" 1 code;
      Alcotest.(check bool) "allow-stale reported" true
        (List.exists (contains "[allow-stale] No_such_module.nowhere") lines))

let test_allow_malformed () =
  with_temp_allow "det-entropy:Bad_determinism\n" (fun allow ->
      let code, lines =
        run_simlint
          (Printf.sprintf "--all-scopes --allow %s %s" allow fixture_root)
      in
      Alcotest.(check int) "malformed entry fails" 1 code;
      Alcotest.(check bool) "allow-malformed reported" true
        (List.exists (contains "[allow-malformed]") lines))

let fires file rule site =
  Alcotest.test_case
    (Printf.sprintf "%s: %s" rule site)
    `Quick
    (check_fires ~file ~rule ~site)

let () =
  Alcotest.run "lint"
    [
      ( "cli",
        [
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "finding format" `Quick test_finding_format;
          Alcotest.test_case "clean control" `Quick test_good_clean;
        ] );
      ( "domain-safety",
        [
          fires "bad_domain.ml" "ds-toplevel-mutable" "Bad_domain.counter";
          fires "bad_domain.ml" "ds-toplevel-mutable" "Bad_domain.cfg";
          fires "bad_domain.ml" "ds-toplevel-mutable" "Bad_domain.cache";
          fires "bad_domain.ml" "ds-toplevel-mutable" "Bad_domain.scratch";
          fires "bad_domain.ml" "ds-toplevel-mutable" "Bad_domain.deep";
          Alcotest.test_case "Atomic.t exempt" `Quick
            (check_silent ~file:"bad_domain.ml" ~site:"Bad_domain.hits"
               "Atomic.t at top level is not flagged");
        ] );
      ( "determinism",
        [
          fires "bad_determinism.ml" "det-entropy"
            "Bad_determinism.seed_the_world";
          fires "bad_determinism.ml" "det-entropy" "Bad_determinism.state";
          fires "bad_determinism.ml" "det-entropy" "Bad_determinism.cpu_now";
          fires "bad_determinism.ml" "det-entropy" "Bad_determinism.wall_now";
          fires "bad_determinism.ml" "det-entropy" "Bad_determinism.coarse_now";
          fires "bad_getenv.ml" "det-getenv" "Bad_getenv.debug_enabled";
          fires "bad_getenv.ml" "det-getenv" "Bad_getenv.home";
          fires "bad_getenv.ml" "det-getenv" "Bad_getenv.path";
          fires "bad_getenv.ml" "det-getenv" "Bad_getenv.whole_env";
          fires "bad_wallclock.ml" "det-wallclock" "Bad_wallclock.stamp";
          fires "bad_wallclock.ml" "det-wallclock" "Bad_wallclock.epoch";
          fires "bad_wallclock.ml" "det-wallclock" "Bad_wallclock.sneaky";
          fires "bad_wallclock.ml" "det-wallclock" "Bad_wallclock.opened";
          fires "bad_wallclock.ml" "det-wallclock" "Bad_wallclock.sampler";
          (* Additive by design: the same sites also trip det-entropy, so
             a det-entropy pin alone can never cover a sim-core clock. *)
          fires "bad_wallclock.ml" "det-entropy" "Bad_wallclock.stamp";
          fires "bad_wallclock.ml" "det-entropy" "Bad_wallclock.epoch";
          fires "bad_wallclock.ml" "det-entropy" "Bad_wallclock.sneaky";
          fires "bad_wallclock.ml" "det-entropy" "Bad_wallclock.opened";
          fires "bad_wallclock.ml" "det-entropy" "Bad_wallclock.sampler";
          fires "bad_determinism.ml" "det-wallclock" "Bad_determinism.wall_now";
          fires "bad_determinism.ml" "det-wallclock"
            "Bad_determinism.coarse_now";
          fires "bad_order.ml" "det-hashtbl-order" "Bad_order.dump";
          fires "bad_order.ml" "det-hashtbl-order" "Bad_order.keys";
          fires "bad_order.ml" "det-hashtbl-order" "Bad_order.stream";
          fires "bad_order.ml" "det-hashtbl-order" "Bad_order.key_stream";
          fires "bad_order.ml" "det-hashtbl-order" "Bad_order.val_stream";
          fires "bad_float.ml" "det-float-format" "Bad_float.render";
          fires "bad_float.ml" "det-float-format" "Bad_float.wide";
          fires "bad_float.ml" "det-float-format" "Bad_float.general";
          fires "bad_float.ml" "det-float-format" "Bad_float.stringly";
          fires "bad_float.ml" "det-float-format" "Bad_float.stdlibly";
        ] );
      ( "hot-path",
        [
          fires "bad_hot.ml" "hot-polycompare" "Bad_hot.same";
          fires "bad_hot.ml" "hot-polycompare" "Bad_hot.rank";
          fires "bad_hot.ml" "hot-polycompare" "Bad_hot.differs";
          fires "bad_hot.ml" "hot-polycompare" "Bad_hot.smallest";
          fires "bad_hot.ml" "hot-polycompare" "Bad_hot.int_min";
          fires "bad_hot.ml" "hot-polycompare" "Bad_hot.digest";
          Alcotest.test_case "specialized int (=) exempt" `Quick
            (check_silent ~file:"bad_hot.ml" ~site:"Bad_hot.int_eq"
               "int (=) is specialized, not flagged");
          Alcotest.test_case "specialized float (<=) exempt" `Quick
            (check_silent ~file:"bad_hot.ml" ~site:"Bad_hot.float_le"
               "float (<=) is specialized, not flagged");
          Alcotest.test_case "specialized string (=) exempt" `Quick
            (check_silent ~file:"bad_hot.ml" ~site:"Bad_hot.str_eq"
               "string (=) is specialized, not flagged");
          fires "bad_hot.ml" "hot-hashtbl" "Bad_hot.lookup";
          fires "bad_hot.ml" "hot-hashtbl" "Bad_hot.store";
          (* A top-level Hashtbl.create has no enclosing binding: the
             finding names the module. *)
          fires "bad_hot.ml" "hot-hashtbl" "Bad_hot";
          fires "bad_domain.ml" "hot-hashtbl" "Bad_domain.bump";
          (* Additive with det-hashtbl-order: iteration is a probe too. *)
          fires "bad_order.ml" "hot-hashtbl" "Bad_order.dump";
          fires "bad_hot.ml" "hot-marshal" "Bad_hot.save";
          fires "bad_hot.ml" "hot-marshal" "Bad_hot.load";
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "suppression" `Quick test_allow_suppresses;
          Alcotest.test_case "rule ids independent" `Quick
            test_allow_rule_ids_independent;
          Alcotest.test_case "stale entry fails" `Quick test_allow_stale;
          Alcotest.test_case "malformed entry fails" `Quick test_allow_malformed;
        ] );
    ]
