(* A deterministic host gate: the minor words RadixVM's operation path
   allocates per simulated page write, over small fixed windows of the
   Figure 5 local and global microbenchmarks (8 cores, 1M cycles of
   warmup, 4M measured). For a fixed program and input the count does
   not depend on host load, unlike a wall-clock gate, so each bound is
   tight: the count measured under the default (dev) build profile when
   the bound was set, plus 1%. A change that allocates more on the mmap,
   fault or munmap path fails here; one that allocates less should lower
   the bound. *)

module R = Vm.Radixvm.Default
module MB = Workloads.Microbench.Make (R)

let ncores = 8
let warmup = 1_000_000
let duration = 4_000_000

(* Minor words allocated from the warmup/measure boundary to the end of
   the run, per page write of the measured window. *)
let words_per_write run =
  let start = ref 0. in
  let r = run ~on_measure:(fun () -> start := Gc.minor_words ()) in
  let words = Gc.minor_words () -. !start in
  let writes = r.Workloads.Microbench.page_writes in
  Alcotest.(check bool) "the window holds page writes" true (writes > 0);
  words /. float_of_int writes

let gate ~measured run () =
  let words = words_per_write run in
  let bound = measured *. 1.01 in
  if words > bound then
    Alcotest.failf
      "%.3f minor words per page write, over the bound %.3f (%.3f + 1%%)"
      words bound measured

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "alloc"
    [
      ( "minor words per page write",
        [
          tc "local" `Quick
            (gate ~measured:669.4 (fun ~on_measure ->
                 MB.local ~warmup ~on_measure ~ncores ~duration R.create));
          tc "global" `Quick
            (gate ~measured:147.872 (fun ~on_measure ->
                 MB.global ~warmup ~on_measure ~ncores ~duration R.create));
        ] );
    ]
