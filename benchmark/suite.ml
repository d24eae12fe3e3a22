(* The benchmark's four workloads, each runnable as one untraced or traced
   rep, and the per-layer metrics a traced rep yields.

   Untraced reps run exactly what the figures run: the workload functors
   over plain [Vm.Radixvm.Default]. The traced rep runs the same workload
   over [Traced.Make (Vm.Radixvm.Default)]; since tracing only reads
   clocks, its simulated outcome (the [digest]) must equal the untraced
   reps'. *)

open Ccsim
module R = Vm.Radixvm.Default
module RT = Traced.Make (R)
module PC = Vm.Page_cache.Make (Refcnt.Refcache_counter)
module CS = Workloads.Cache_serve

(* What one rep observed, beyond its timings. Parts a workload cannot see
   are [None] and read as zero in {!layers}. *)
type obs = {
  window_ns : int;  (** host ns of the measured window *)
  machine : (Stats.t * int * int) option;
      (** window counters, cores, window cycles *)
  sim_ops_per_s : float;  (** workload ops per simulated second *)
  op_spans : Span.t list;  (** spans timing one workload op each *)
  vm_state : (int * int * int) option;
      (** Refcache epochs advanced in the window, then objects pending
          review and radix nodes at its end *)
  cache : CS.result option;
  fuzz : fuzz_obs option;
}

and fuzz_obs = {
  transcript : string;
  unchecked_ns : int;  (** host ns of the same session without the checker *)
}

type rep = {
  setup_s : float;  (** host seconds from rep start to the measure boundary *)
  window_s : float;  (** host seconds of the measured window *)
  ops : int;  (** workload ops attempted in the window *)
  failed : int;  (** of those, the ones that failed *)
  digest : string;  (** the simulated outcome, for the determinism gate *)
  obs : obs;
}

type workload = {
  name : string;
  preflight : seed:int -> (unit, string) result;
      (** an output-correctness gate run once before the reps *)
  rep : traced:bool -> seed:int -> rep;
}

let sim_digest ~ops machine =
  let clocks = Array.map (fun c -> c.Core.clock) (Machine.cores machine) in
  Digest.to_hex
    (Digest.string
       (Format.asprintf "ops %d@.%a@.clocks %s" ops Stats.pp
          (Machine.stats machine)
          (String.concat " " (Array.to_list (Array.map string_of_int clocks)))))

(* The timing and observation scaffolding shared by the simulated
   workloads: [run ~on_machine ~on_measure make_vm] is one workload run
   returning (ops, ops per simulated second, cache result). These
   workloads raise on a failed operation, so none is counted. *)
let sim_rep ~traced ~ncores ~duration ~op_spans run =
  let t0 = Span.now_ns () in
  let t_measure = ref t0 in
  let machine = ref None and vm = ref None in
  let epoch () = Option.fold ~none:0 ~some:(fun v -> Refcnt.Refcache.epoch (R.refcache v)) !vm in
  let epoch0 = ref 0 in
  let on_measure () =
    if traced then Span.reset_all ();
    epoch0 := epoch ();
    t_measure := Span.now_ns ()
  in
  let make_vm m =
    let v = R.create m in
    vm := Some v;
    v
  in
  let ops, per_sec, cache =
    run ~on_machine:(fun m -> machine := Some m) ~on_measure make_vm
  in
  let t_end = Span.now_ns () in
  let m = Option.get !machine and v = Option.get !vm in
  {
    setup_s = float_of_int (!t_measure - t0) /. 1e9;
    window_s = float_of_int (t_end - !t_measure) /. 1e9;
    ops;
    failed = 0;
    digest = sim_digest ~ops m;
    obs =
      {
        window_ns = t_end - !t_measure;
        machine = Some (Machine.stats m, ncores, duration);
        sim_ops_per_s = per_sec;
        op_spans;
        vm_state =
          Some
            ( epoch () - !epoch0,
              Refcnt.Refcache.pending_review (R.refcache v),
              R.radix_nodes v );
        cache;
        fuzz = None;
      };
  }

let no_preflight ~seed:_ = Ok ()

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)

module MB = Workloads.Microbench.Make (R)
module MBT = Workloads.Microbench.Make (RT)

(* The paper's headline disjoint case; no sharing, no IPIs. Seed-free:
   the only randomness is the simulator's fixed per-core rngs. *)
let local ~ncores ~warmup ~duration =
  let rep ~traced ~seed:_ =
    sim_rep ~traced ~ncores ~duration ~op_spans:[ Traced.touch_span ]
      (fun ~on_machine ~on_measure make_vm ->
        let r =
          (if traced then MBT.local else MB.local)
            ~warmup ~on_machine ~on_measure ~ncores ~duration make_vm
        in
        (r.page_writes, r.writes_per_sec, None))
  in
  { name = Printf.sprintf "local-%d" ncores; preflight = no_preflight; rep }

(* Every page shared: fill faults, broadcast shootdowns, barriers. *)
let global ~ncores ~warmup ~duration =
  let rep ~traced ~seed:_ =
    sim_rep ~traced ~ncores ~duration ~op_spans:[ Traced.touch_span ]
      (fun ~on_machine ~on_measure make_vm ->
        let r =
          (if traced then MBT.global else MB.global)
            ~warmup ~on_machine ~on_measure ~ncores ~duration make_vm
        in
        (r.page_writes, r.writes_per_sec, None))
  in
  { name = Printf.sprintf "global-%d" ncores; preflight = no_preflight; rep }

module CSR = CS.Make (R)
module CST = CS.Make (RT)

let evict_span = Span.make "page_cache.evict"
let writeback_span = Span.make "page_cache.writeback"

let spanned span f vm (core : Core.t) ~page =
  let c0 = core.Core.clock and t0 = Span.now_ns () in
  f vm core ~page;
  Traced.finish span core c0 t0

(* The page-cache hooks the file-backed serve loop needs from RadixVM.
   The traced rep wraps the two that do page-cache work in spans. *)
let cache_ops ~fd ~traced =
  let evict vm core ~page = R.evict_file_page vm core ~file:fd ~page in
  let clear vm core ~page =
    PC.clear_dirty (R.page_cache vm) core ~file:fd ~page
  in
  {
    CS.co_evict = (if traced then spanned evict_span evict else evict);
    co_mark_dirty =
      (fun vm core ~page -> PC.set_dirty (R.page_cache vm) core ~file:fd ~page);
    co_dirty = (fun vm ~page -> PC.dirty (R.page_cache vm) ~file:fd ~page);
    co_clear_dirty = (if traced then spanned writeback_span clear else clear);
  }

(* The access path: Zipf get/set/del over a file-backed shared mapping,
   with an LRU eviction sweep under live traffic. The seed drives the
   key stream. *)
let cacheserve ~ncores ~slots ~warmup ~duration =
  let fd = 3 in
  let preflight ~seed =
    match (CS.Session.run ~slots ~seed ()).divergences with
    | [] -> Ok ()
    | d :: _ -> Error ("cache model divergence: " ^ d)
  in
  let rep ~traced ~seed =
    sim_rep ~traced ~ncores ~duration
      ~op_spans:[ Traced.read_span; Traced.touch_span ]
      (fun ~on_machine ~on_measure make_vm ->
        let cache_ops = cache_ops ~fd ~traced in
        let r =
          (if traced then CST.serve else CSR.serve)
            ~warmup ~slots ~file:fd ~cache_ops ~seed ~on_machine ~on_measure
            ~ncores ~duration make_vm
        in
        (* A lost access raced the eviction of its slot and was served
           as a miss, the behaviour the workload models; it is counted
           in cache_serve.lost, not as a failure. *)
        (r.ops, r.ops_per_sec, Some r))
  in
  { name = Printf.sprintf "cacheserve-%d" ncores; preflight; rep }

(* The checked fuzz session developers wait on (the one @fuzz-smoke and
   radixvm_selfbench run): the checker dominates host time and heap.
   Seed-free like local and global: one program's checker cost varies by
   tens of percent from seed to seed, which would swamp any bound on
   host throughput. Set-up is the fixed cost of a session (machine,
   checker, fault plan, teardown drains), timed as the median of a few
   one-op sessions. The fuzzer exposes no simulated clock, so the
   simulated-machine metrics of this workload read zero. *)
let fuzz ~ops =
  let cfg = { Fuzz.default with seed = 42; ops; ncores = 4; check = true } in
  let timed cfg =
    let t = Span.now_ns () in
    let o = Fuzz.run_session cfg in
    (Span.now_ns () - t, o)
  in
  let rep ~traced ~seed:_ =
    let setups = List.init 5 (fun _ -> timed { cfg with ops = 1 }) in
    let window_ns, o = timed cfg in
    let unchecked_ns =
      if traced then fst (timed { cfg with check = false }) else 0
    in
    {
      setup_s =
        Span.median (List.map (fun (ns, _) -> float_of_int ns /. 1e9) setups);
      window_s = float_of_int window_ns /. 1e9;
      ops;
      failed =
        List.fold_left
          (fun n (_, (o : Fuzz.outcome)) -> n + List.length o.failures)
          0 ((window_ns, o) :: setups);
      digest = Digest.to_hex (Digest.string o.transcript);
      obs =
        {
          window_ns;
          machine = None;
          sim_ops_per_s = 0.0;
          op_spans = [];
          vm_state = None;
          cache = None;
          fuzz = Some { transcript = o.transcript; unchecked_ns };
        };
    }
  in
  { name = "fuzz-checked"; preflight = no_preflight; rep }

(* The configurations. [tiny] shrinks every window to a smoke-test size
   that still crosses the same code path. *)
let all ?(tiny = false) () =
  let s n = if tiny then max 1 (n / 100) else n in
  [
    local ~ncores:80 ~warmup:(s 12_000_000) ~duration:(s 30_000_000);
    global ~ncores:32 ~warmup:(s 48_000_000) ~duration:(s 128_000_000);
    cacheserve ~ncores:32 ~slots:(if tiny then 64 else 256)
      ~warmup:(s 35_520_000) ~duration:(s 240_000_000);
    fuzz ~ops:(if tiny then 60 else 600);
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* The end-to-end metrics, each with its samples: one per untraced rep,
   except the heap peak, read once after them. *)
let end_to_end ~heap_mb reps =
  [
    ("setup_s", List.map (fun r -> r.setup_s) reps);
    ( "sim_ops_per_host_s",
      List.map (fun r -> float_of_int r.ops /. r.window_s) reps );
    ("host_peak_heap_mb", [ heap_mb ]);
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let span_metrics prefix (s : Span.t) =
  [
    (prefix ^ ".calls", float_of_int s.calls);
    (prefix ^ ".host_ns_per_call", ratio s.host_ns s.calls);
    (prefix ^ ".sim_cycles_per_call", ratio (Span.total_cycles s) s.calls);
  ]

let transcript_line transcript prefix =
  List.find_opt
    (fun l -> String.starts_with ~prefix l)
    (String.split_on_char '\n' transcript)

(* A "key=value" field of the transcript line starting with [prefix]
   (the "summary:" and "injected:" lines the golden digest pins). *)
let transcript_field transcript prefix key =
  Option.bind (transcript_line transcript prefix) (fun l ->
      List.find_map
        (fun w ->
          match String.split_on_char '=' w with
          | [ k; v ] when k = key -> int_of_string_opt v
          | _ -> None)
        (String.split_on_char ' ' l))
  |> Option.value ~default:0

let checker_accesses transcript =
  Option.bind (transcript_line transcript "checker:") (fun l ->
      Scanf.sscanf_opt l "checker: %d" Fun.id)
  |> Option.value ~default:0

(* Every per-layer metric of one traced rep, in a fixed order; parts the
   workload cannot observe read zero. [untraced_window_s] is the median
   untraced window, the base of the tracing overhead. *)
let layers ~untraced_window_s (o : obs) =
  let window_ns = float_of_int o.window_ns in
  let vm_ns =
    List.fold_left (fun acc (s : Span.t) -> acc + s.host_ns) 0 Traced.vm_spans
  in
  let pc_ns = evict_span.host_ns + writeback_span.host_ns in
  let stats, ncores, cycles =
    Option.value o.machine ~default:(Stats.create (), 0, 0)
  in
  let observed = o.machine <> None in
  let hist = Span.histogram o.op_spans in
  let epochs, pending, nodes = Option.value o.vm_state ~default:(0, 0, 0) in
  let f = float_of_int in
  let line_accesses =
    stats.l1_hits + Stats.total_transfers stats + stats.dram_fills
  in
  let of_transcript g = match o.fuzz with None -> 0 | Some z -> g z.transcript in
  let fuzz_field p k = of_transcript (fun t -> transcript_field t p k) in
  let accesses = of_transcript checker_accesses in
  let check_ns =
    match o.fuzz with
    | None -> 0.0
    | Some z -> window_ns -. float_of_int z.unchecked_ns
  in
  let cache g = match o.cache with None -> 0.0 | Some r -> f (g r) in
  [
    ("sim.ops_per_s", o.sim_ops_per_s);
    ("sim.op_p50_cycles", f (Span.percentile 0.5 hist));
    ("sim.op_p9999_cycles", f (Span.percentile 0.9999 hist));
  ]
  @ List.concat_map (fun (s : Span.t) -> span_metrics s.name s) Traced.vm_spans
  @ [
      ("vm.host_share", if observed then fratio (f vm_ns) window_ns else 0.0);
      ("vm.fault.count", f stats.pagefaults);
      ("vm.fault.alloc", f stats.alloc_faults);
      ("vm.fault.refault_ratio", ratio stats.fill_faults stats.pagefaults);
      ( "ccsim.sched.host_share",
        if observed then fratio (window_ns -. f (vm_ns + pc_ns)) window_ns
        else 0.0 );
      ( "ccsim.host_ns_per_core_kcycle",
        if observed then fratio window_ns (f (ncores * cycles) /. 1000.0)
        else 0.0 );
      ("ccsim.line.l1_hits", f stats.l1_hits);
      ("ccsim.line.transfers", f (Stats.total_transfers stats));
      ("ccsim.line.dram_fills", f stats.dram_fills);
      ("ccsim.line.stall_cycles", f stats.line_stall_cycles);
      ("ccsim.line.hit_ratio", ratio stats.l1_hits line_accesses);
      ("ccsim.lock.acquires", f stats.lock_acquires);
      ("ccsim.lock.contended_ratio", ratio stats.lock_contended stats.lock_acquires);
      ("ccsim.lock.wait_cycles", f stats.lock_wait_cycles);
      ("ccsim.ipi.ipis", f stats.ipis);
      ("ccsim.ipi.shootdowns", f stats.shootdown_events);
      ( "ccsim.ipi.targets_per_shootdown",
        ratio stats.shootdown_targets stats.shootdown_events );
      ("ccsim.ipi.wait_cycles", f stats.shootdown_wait_cycles);
      ("ccsim.ipi.retries", f stats.shootdown_retries);
      ("ccsim.tlb.hit_ratio", ratio stats.tlb_hits (stats.tlb_hits + stats.tlb_misses));
      ("ccsim.tlb.misses", f stats.tlb_misses);
      ("ccsim.tlb.hw_walks", f stats.hw_walks);
      ("ccsim.physmem.frames_allocated", f stats.frames_allocated);
      ("ccsim.physmem.frames_freed", f stats.frames_freed);
    ]
  @ span_metrics "page_cache.evict" evict_span
  @ span_metrics "page_cache.writeback" writeback_span
  @ [
      ("refcache.epochs", f epochs);
      ("refcache.pending_review", f pending);
      ("radix.nodes", f nodes);
      ("cache_serve.evictions", cache (fun r -> r.evictions));
      ("cache_serve.writebacks", cache (fun r -> r.writebacks));
      ("cache_serve.resizes", cache (fun r -> r.resizes));
      ("cache_serve.lost", cache (fun r -> r.lost));
      ("check.accesses", f accesses);
      ("check.host_share", fratio check_ns window_ns);
      ("check.ns_per_access", fratio check_ns (f accesses));
      ("fuzz.ok", f (fuzz_field "summary:" "ok"));
      ("fuzz.segv", f (fuzz_field "summary:" "segv"));
      ("fuzz.enomem", f (fuzz_field "summary:" "enomem"));
      ("fuzz.aborted", f (fuzz_field "summary:" "aborted"));
      ("fuzz.ipi_delays", f (fuzz_field "injected:" "ipi_delays"));
      ("fuzz.shootdown_retries", f (fuzz_field "injected:" "shootdown_retries"));
      ("trace.overhead_frac", fratio (window_ns /. 1e9) untraced_window_s -. 1.0);
    ]
