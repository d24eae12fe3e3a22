(* Deterministic host gates on RadixVM's allocation and state size:
   - the minor words the operation path allocates per simulated page
     write, over small fixed windows of the Figure 5 local and global
     microbenchmarks (8 cores, 1M cycles of warmup, 4M measured);
   - the minor words per served operation of the 32-core file-backed
     cache-serving window (256 slots, seed 1, 1M + 8M cycles);
   - the live heap words one [R.create] adds on an 80-core machine (its
     per-core delta caches and line directories), read after a full
     major collection on either side;
   - the minor words of the seed-42 checked fuzz session (600 ops, 4
     cores: the benchmark's fuzz-checked session).
   For a fixed program and input each count does not depend on host
   load, unlike a wall-clock gate, so each bound is tight: the count
   measured under the default (dev) build profile when the bound was
   set, plus 1%. A change that allocates more on the mmap, fault, serve
   or munmap path, in a checked session, or grows an address space's
   state, fails here; one that allocates less should lower the bound.
   Two more gates compare runs instead of a fixed count: the live words
   at the end of a local window must not grow with the window's length
   (16M cycles against 4M, within 1%), since host memory should track
   the live simulated state, not everything the run has freed; and a
   checked run must allocate exactly the same words whatever ran before
   it in the process, since nothing created before the checker attached
   (another machine's locks, an earlier run) may shape its state. *)

module R = Vm.Radixvm.Default
module MB = Workloads.Microbench.Make (R)
module CS = Workloads.Cache_serve

let ncores = 8
let warmup = 1_000_000
let duration = 4_000_000

(* Minor words allocated from the warmup/measure boundary to the end of
   the run, per operation of the measured window. *)
let words_per_op run ~ops =
  let start = ref 0. in
  let r = run ~on_measure:(fun () -> start := Gc.minor_words ()) in
  let words = Gc.minor_words () -. !start in
  let n = ops r in
  Alcotest.(check bool) "the window holds operations" true (n > 0);
  words /. float_of_int n

let page_writes r = r.Workloads.Microbench.page_writes

let serve ~on_measure =
  let module S = CS.Make (R) in
  S.serve ~warmup:1_000_000 ~slots:256 ~seed:1 ~file:3
    ~cache_ops:(CS.radixvm_cache_ops ~file:3) ~on_measure ~ncores:32
    ~duration:8_000_000 R.create

(* Live words after a full major collection, before and after one
   [R.create] on a fresh 80-core machine. *)
let create_words () =
  let m = Ccsim.Machine.create (Ccsim.Params.default ~ncores:80 ()) in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let vm = R.create m in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity vm);
  float_of_int (after - before)

(* Live words after a full major collection at the end of a local window
   of [duration] cycles, with the VM still reachable. *)
let local_live_words ~duration =
  let vm = ref None in
  let r =
    MB.local ~warmup ~ncores ~duration (fun m ->
        let v = R.create m in
        vm := Some v;
        v)
  in
  Alcotest.(check bool) "the window writes pages" true (page_writes r > 0);
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity !vm);
  float_of_int live

let fuzz_session_words () =
  let before = Gc.minor_words () in
  let o =
    Fuzz.run_session
      { Fuzz.default with seed = 42; ops = 600; ncores = 4; check = true }
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list string)) "the session passes" [] o.Fuzz.failures;
  words

(* Minor words of a small local window of RadixVM under a full checker,
   whose locksets are keyed by lock number. *)
let checked_local_words () =
  let before = Gc.minor_words () in
  let r =
    MB.local ~warmup ~ncores ~duration
      ~on_machine:(fun m -> ignore (Check.attach m))
      R.create
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the window writes pages" true (page_writes r > 0);
  words

(* [count] run again after a throwaway machine creates 1,000 locks, and
   once more right after that run, must allocate what its first run
   did. *)
let order_independent count () =
  let first = count () in
  let throwaway = Ccsim.Machine.create (Ccsim.Params.default ~ncores:1 ()) in
  for _ = 1 to 1_000 do
    ignore (Ccsim.Lock.create (Ccsim.Machine.core throwaway 0))
  done;
  let after_locks = count () in
  let after_run = count () in
  let words = int_of_float in
  Alcotest.(check int) "minor words after another machine's 1,000 locks"
    (words first) (words after_locks);
  Alcotest.(check int) "minor words after another run" (words first)
    (words after_run)

let gate ~unit_ ~measured count () =
  let value = count () in
  let bound = measured *. 1.01 in
  if value > bound then
    Alcotest.failf "%.3f %s, over the bound %.3f (%.3f + 1%%)" value unit_
      bound measured

let () =
  let tc = Alcotest.test_case in
  let per_write = "minor words per page write" in
  Alcotest.run "alloc"
    [
      ( "minor words per session",
        [
          tc "checked fuzz session, seed 42" `Quick
            (gate ~unit_:"minor words" ~measured:11_195_281.
               fuzz_session_words);
          tc "checked fuzz session, order-independent" `Quick
            (order_independent fuzz_session_words);
          tc "full checker on a local window, order-independent" `Quick
            (order_independent checked_local_words);
        ] );
      ( per_write,
        [
          tc "local" `Quick
            (gate ~unit_:per_write ~measured:205.147 (fun () ->
                 words_per_op ~ops:page_writes (fun ~on_measure ->
                     MB.local ~warmup ~on_measure ~ncores ~duration R.create)));
          tc "global" `Quick
            (gate ~unit_:per_write ~measured:36.594 (fun () ->
                 words_per_op ~ops:page_writes (fun ~on_measure ->
                     MB.global ~warmup ~on_measure ~ncores ~duration R.create)));
        ] );
      ( "minor words per served op",
        [
          tc "file-backed serve, 32 cores" `Quick
            (gate ~unit_:"minor words per op" ~measured:12.614 (fun () ->
                 words_per_op serve ~ops:(fun r -> r.CS.ops)));
        ] );
      ( "state size",
        [
          tc "one 80-core create" `Quick
            (gate ~unit_:"live words" ~measured:2_093_236. create_words);
          tc "local, 16M-cycle window against 4M" `Quick (fun () ->
              let short = local_live_words ~duration in
              gate ~unit_:"live words" ~measured:short
                (fun () -> local_live_words ~duration:(4 * duration))
                ());
        ] );
    ]
