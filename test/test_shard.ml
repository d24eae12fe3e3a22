(* Tests for the epoch-barrier shard engine (Harness.Shard): cross-shard
   IPI ordering and delivery-time quantization must be independent of how
   nodes are laid out over host domains, and the Shard_bench worlds must
   produce bit-identical results at shard widths 1, 2, and 4 (used as
   given, so even a one-CPU host runs 2 and 4 real domains). *)

open Ccsim
module Shard = Harness.Shard
module SB = Workloads.Shard_bench.Make (Vm.Radixvm.Default)

let widths = [ 1; 2; 4 ]

(* A 4-node world in which node 0's core 0 issues remote shootdown
   rounds to (node 2, core 1) and (node 1, core 0) at fixed virtual
   times, then retires. Returns the canonical delivery log (rendered)
   plus each node's effective core clocks at the end. *)
let shootdown_world ~shards =
  let params = List.init 4 (fun _ -> Params.default ~ncores:2 ()) in
  let w = Shard.create ~keep_log:true ~epoch:20_000 params in
  let nd0 = Shard.node w 0 in
  let m0 = Shard.machine nd0 in
  let core0 = Machine.core m0 0 in
  let rounds = ref 0 in
  Machine.set_workload m0 0 (fun () ->
      incr rounds;
      Ipi.remote m0 core0 ~targets:[ (2, 1); (1, 0) ];
      Core.tick core0 7_000;
      !rounds < 5);
  Shard.run ~shards w;
  let log =
    List.map
      (fun (d : Shard.delivery) ->
        Format.asprintf "e%d %d->%d sent=%d at=%d %s" d.Shard.d_epoch
          d.Shard.d_src d.Shard.d_dst d.Shard.d_sent d.Shard.d_time
          (match d.Shard.d_payload with
          | Machine.Xshootdown { core; handler } ->
              Printf.sprintf "sd(core=%d,h=%d)" core handler
          | Machine.Xrc _ -> "rc"
          | Machine.Xmsg _ -> "msg"))
      (Shard.log w)
  in
  let clocks =
    List.concat_map
      (fun n ->
        let m = Shard.machine (Shard.node w n) in
        List.map
          (fun c ->
            let core = Machine.core m c in
            core.Core.clock + core.Core.pending_intr)
          [ 0; 1 ])
      [ 0; 1; 2; 3 ]
  in
  (log, clocks, Shard.sent w, Shard.delivered w)

let test_ipi_ordering_layout_independent () =
  let reference = shootdown_world ~shards:1 in
  let log1, clocks1, sent1, delivered1 = reference in
  Alcotest.(check bool) "events flowed" true (sent1 > 0);
  Alcotest.(check int) "all delivered" sent1 delivered1;
  List.iter
    (fun shards ->
      let log, clocks, sent, delivered = shootdown_world ~shards in
      Alcotest.(check (list string))
        (Printf.sprintf "delivery log at shards=%d" shards)
        log1 log;
      Alcotest.(check (list int))
        (Printf.sprintf "core clocks at shards=%d" shards)
        clocks1 clocks;
      Alcotest.(check (pair int int))
        (Printf.sprintf "counters at shards=%d" shards)
        (sent1, delivered1) (sent, delivered))
    widths

let test_ipi_delivery_quantized () =
  let log, _, _, _ = shootdown_world ~shards:1 in
  (* Every delivery lands exactly at the boundary of the epoch after its
     send: d_time = (floor(sent / epoch) + 1) * epoch. *)
  List.iter
    (fun line ->
      Scanf.sscanf line "e%d %d->%d sent=%d at=%d"
        (fun _e _src _dst sent at ->
          Alcotest.(check int)
            (Printf.sprintf "quantized delivery for %s" line)
            (((sent / 20_000) + 1) * 20_000)
            at))
    log

let test_remote_requires_uplink () =
  let m = Machine.create (Params.default ~ncores:2 ()) in
  Alcotest.check_raises "standalone machine"
    (Invalid_argument "Machine.uplink_send: no uplink installed")
    (fun () -> Ipi.remote m (Machine.core m 0) ~targets:[ (1, 0) ])

(* Handlers and channel posts: a fork-style round trip must complete and
   be counted identically at any width. *)
let bench_cfg scenario =
  {
    Workloads.Shard_bench.nodes = 4;
    cores = 2;
    shards = 1;
    duration = 400_000;
    epoch = 50_000;
  }
  |> fun cfg ->
  match scenario with
  | "disjoint" -> { cfg with Workloads.Shard_bench.cores = 3 }
  (* A fork iteration costs ~285k simulated cycles, so the spawn/reap
     round trip needs a few of those within the duration. *)
  | "fork" -> { cfg with Workloads.Shard_bench.duration = 1_500_000 }
  | _ -> cfg

let strip_shards (r : Workloads.Shard_bench.result) =
  Format.asprintf
    "%s n=%d c=%d ops=%d acks=%d epochs=%d sent=%d del=%d sim=%d ipis=%d \
     sd=%d %s"
    r.scenario r.nodes r.cores r.ops r.remote_acks r.epochs r.xs_sent
    r.xs_delivered r.sim_cycles r.ipis r.shootdown_events r.digest

let test_bench_deterministic_across_widths () =
  List.iter
    (fun scenario ->
      let cfg = bench_cfg scenario in
      let reference =
        strip_shards (SB.run { cfg with shards = 1 } ~scenario)
      in
      List.iter
        (fun shards ->
          let r = SB.run { cfg with shards } ~scenario in
          Alcotest.(check int) "reported width" shards r.shards;
          Alcotest.(check string)
            (Printf.sprintf "%s at shards=%d" scenario shards)
            reference (strip_shards r))
        widths)
    Workloads.Shard_bench.scenarios

let test_bench_cross_traffic_flows () =
  (* The fork and shared scenarios must actually exercise the epoch
     batch: events sent, delivered, and (for fork) acknowledged. *)
  let fork = SB.run (bench_cfg "fork") ~scenario:"fork" in
  Alcotest.(check bool) "fork sends" true (fork.xs_sent > 0);
  Alcotest.(check bool) "fork acks" true (fork.remote_acks > 0);
  let shared = SB.run (bench_cfg "shared") ~scenario:"shared" in
  Alcotest.(check bool) "shared sends" true (shared.xs_sent > 0);
  Alcotest.(check bool) "shared shootdowns land" true (shared.ipis > 0);
  let disjoint = SB.run (bench_cfg "disjoint") ~scenario:"disjoint" in
  Alcotest.(check int) "disjoint is traffic-free" 0 disjoint.xs_sent

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "shard"
    [
      ( "ipi",
        [
          tc "layout independence" `Quick test_ipi_ordering_layout_independent;
          tc "epoch quantization" `Quick test_ipi_delivery_quantized;
          tc "standalone machines reject remote" `Quick
            test_remote_requires_uplink;
        ] );
      ( "bench",
        [
          tc "widths 1/2/4 identical" `Quick
            test_bench_deterministic_across_widths;
          tc "cross-shard traffic flows" `Quick test_bench_cross_traffic_flows;
        ] );
    ]
