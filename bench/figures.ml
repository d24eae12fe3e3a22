(* Figure drivers for the paper's evaluation (section 5), refactored from
   print-as-you-go to build-rows-then-render: every figure first describes
   its sweep as a list of independent [(name, config) -> row] jobs, runs
   them on a {!Harness.Pool} (each job builds its own simulated machine,
   so jobs are deterministic and mutually independent), then renders the
   human-readable table from the ordered rows *and* returns a
   machine-readable JSON artifact. Result ordering is submission order
   regardless of worker count, so tables and artifacts are byte-identical
   for any [--jobs]. *)

module Json = Harness.Json
module Pool = Harness.Pool
module Radixvm = Vm.Radixvm.Default
module CB_refcache = Workloads.Counter_bench.Make (Refcnt.Refcache_counter)
module CB_shared = Workloads.Counter_bench.Make (Refcnt.Shared_counter)
module CB_snzi = Workloads.Counter_bench.Make (Refcnt.Snzi)
module CB_dist = Workloads.Counter_bench.Make (Refcnt.Distributed_counter)

type ctx = {
  quick : bool;  (* shrink sweeps for smoke testing *)
  check : bool;  (* attach the dynamic checker to instrumented runs *)
  jobs : int;  (* worker domains; 1 = serial *)
  ppf : Format.formatter;  (* table output; jobs themselves never print *)
}

(* One instrumented run's verdict. [report] is the full Check.report
   (sharing census and findings), rendered inside the job — pooled jobs
   must not print — and only when the run is not clean. *)
type verdict = { check_name : string; clean : bool; report : string }

type output = {
  json : Json.t;  (* the BENCH_<target>.json payload *)
  checks : verdict list;  (* checker verdicts, in job order *)
}

(* ------------------------------------------------------------------ *)
(* Sweep parameters (unchanged from the serial harness)                *)

let core_counts ctx = if ctx.quick then [ 1; 4; 16 ] else [ 1; 10; 20; 40; 60; 80 ]
let micro_duration ctx = if ctx.quick then 400_000 else 2_000_000

(* The global benchmark's iteration (every core writes every page, then a
   machine-wide shootdown storm) grows with core count; size its windows
   so several iterations fit. *)
let global_duration ctx n =
  if ctx.quick then 2_000_000 else max 8_000_000 (n * 500_000)

(* Startup transients (initial radix expansion, first Refcache epochs,
   channel priming) lengthen with core count; warm up accordingly. *)
let micro_warmup ctx n = if ctx.quick then 1_000_000 else max 4_000_000 (n * 150_000)
let index_duration ctx = if ctx.quick then 200_000 else 800_000
let counter_duration ctx = if ctx.quick then 200_000 else 1_000_000
let metis_words ctx = if ctx.quick then 40_000 else 400_000

(* ------------------------------------------------------------------ *)
(* Rendering helpers                                                   *)

let header ctx title =
  Format.fprintf ctx.ppf "\n================ %s ================\n" title;
  Format.pp_print_flush ctx.ppf ()

let row_header ctx name cols =
  Format.fprintf ctx.ppf "%-24s" name;
  List.iter (fun c -> Format.fprintf ctx.ppf "%14s" c) cols;
  Format.pp_print_newline ctx.ppf ()

let row ctx name cells =
  Format.fprintf ctx.ppf "%-24s" name;
  List.iter (fun v -> Format.fprintf ctx.ppf "%14s" v) cells;
  Format.pp_print_newline ctx.ppf ();
  Format.pp_print_flush ctx.ppf ()

let k v =
  if v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

(* One table row per distinct [key] of [rows], in first-appearance
   order: [name] labels it, [cell] renders each of its rows. *)
let render_rows ctx ~key ~name ~cell rows =
  let keys =
    List.fold_left
      (fun acc r -> if List.mem (key r) acc then acc else acc @ [ key r ])
      [] rows
  in
  List.iter
    (fun kk ->
      row ctx (name kk)
        (List.filter_map
           (fun r -> if key r = kk then Some (cell r) else None)
           rows))
    keys

let report_checks ctx checks =
  if ctx.check then begin
    let total = List.length checks in
    let bad = List.filter (fun v -> not v.clean) checks in
    Format.fprintf ctx.ppf
      "\ncheck: %d instrumented runs, %d clean, %d with findings\n" total
      (total - List.length bad)
      (List.length bad);
    List.iter
      (fun v ->
        Format.fprintf ctx.ppf "  findings: %s\n%s" v.check_name v.report)
      bad;
    Format.pp_print_flush ctx.ppf ()
  end

(* Each instrumented run carries its verdict in its own row (rather than
   pushing onto a process-global list), so `--check` output is identical
   under any `--jobs N`: verdicts aggregate in job-submission order.

   The verdict asserts what the run actually claims. Lock-order cycles,
   stale TLB entries and refcount faults are hard invariants for every
   system on every workload, as is the run's own result check [holds].
   Race reports are filtered through [race_allow], the per-system list
   of line labels whose concurrency
   discipline the line-granular lockset analysis cannot express: the
   baselines' shared page table and Bonsai's RCU-style root are written
   or read lock-free by design (that sharing IS the figure), and RadixVM
   interior nodes pack eight per-slot lock bits onto one line, so two
   cores writing different slots under their own locks empty the line's
   lockset even though the words are disjoint (word-granular Eraser
   would not flag it). Any race outside that list fails the verdict.
   The zero-sharing census is additionally asserted only where the
   paper claims it ([zero_sharing]): RadixVM with per-core page tables
   on the disjoint-region (local) benchmark — pipeline/global share the
   region's pages by design. *)
let checked ~ctx ~name ~allow ?(race_allow = []) ?(zero_sharing = false)
    ?(holds = fun _ -> true) run =
  if not ctx.check then (run ~on_machine:ignore ~on_measure:ignore, None)
  else begin
    let chk = ref None in
    let r =
      run
        ~on_machine:(fun m -> chk := Some (Check.attach m))
        ~on_measure:(fun () -> Option.iter Check.reset_window !chk)
    in
    match !chk with
    | Some c ->
        let unexpected_races =
          List.filter
            (fun r -> not (List.mem r.Check.race_label race_allow))
            (Check.races c)
        in
        let clean =
          holds r && unexpected_races = [] && Check.cycles c = []
          && Check.tlb_violations c = []
          && Check.rc_violations c = []
          && ((not zero_sharing) || Check.multi_writer_lines ~allow c = [])
        in
        let report =
          if clean then ""
          else Format.asprintf "%a@." (Check.report ~allow ~race_allow) c
        in
        Check.detach c;
        (r, Some { check_name = name; clean; report })
    | None -> (r, None)
  end

let check_fields = function
  | None -> []
  | Some v ->
      [
        ("check_name", Json.String v.check_name);
        ("check_clean", Json.Bool v.clean);
      ]

let checks_of_rows rows = List.filter_map (fun (_, c) -> c) rows

(* ------------------------------------------------------------------ *)
(* Systems under test                                                  *)

(* A VM system packed with its constructor. The workload functors are
   applied to it in one place each: [micro_run], [metis_run], [serve]. *)
type vm =
  | Vm : (module Vm.Vm_intf.S with type t = 'v) * (Ccsim.Machine.t -> 'v) -> vm

type system = {
  sys_name : string;
  sys_vm : vm;
  sys_allow : string list;  (* multi-writer line labels the census admits *)
  sys_race_allow : string list;
      (* line labels with documented lock-free or sub-line discipline *)
  sys_zero : string list;
      (* benches on which this system claims a zero-sharing census *)
}

(* RadixVM claims zero sharing only with per-core page tables and its
   embedded range locks, and only on the local benchmark: pipeline hands
   pages between cores and global maps one region from every core, so
   those share application lines by design. "radix:slot" is race-allowed
   because interior nodes keep eight per-slot lock bits on one line (see
   [checked]). External range-lock backends share their lock lines and
   walk the tree lock-free under range protection — admit exactly those
   labels (Range_lock.labels), nothing more. With a shared page table,
   PTE writes come from every faulting core: that sharing (and its
   lock-free writes) is the point of Figure 9. *)
let radixvm ?(name = "RadixVM") ?(mmu = Vm.Page_table.Per_core)
    ?(rangelock = Locks.Range_lock.Radix_embedded) ?partition () =
  let rl = Locks.Range_lock.labels rangelock in
  let per_core = mmu = Vm.Page_table.Per_core in
  {
    sys_name = name;
    sys_vm =
      Vm
        ( (module Radixvm),
          fun m -> Radixvm.create_with ~mmu ~rangelock ?partition m );
    sys_allow = Check.radixvm_allow @ rl;
    sys_race_allow =
      ("radix:slot" :: rl) @ if per_core then [] else [ "pt:shared" ];
    sys_zero =
      (if per_core && rangelock = Locks.Range_lock.Radix_embedded then
         [ "local" ]
       else []);
  }

(* The baselines' shared page table is written lock-free by design, and
   Bonsai's root is RCU-style lock-free. *)
let linux =
  {
    sys_name = "Linux";
    sys_vm = Vm ((module Baselines.Linux_vm), Baselines.Linux_vm.create);
    sys_allow = [];
    sys_race_allow = [ "pt:shared" ];
    sys_zero = [];
  }

let bonsai =
  {
    sys_name = "Bonsai";
    sys_vm = Vm ((module Baselines.Bonsai_vm), Baselines.Bonsai_vm.create);
    sys_allow = [];
    sys_race_allow = [ "pt:shared"; "bonsai:root" ];
    sys_zero = [];
  }

(* The section-5.3 microbenchmarks, plus the range-lock figure's bigmap
   fault storm, on any system. *)
let micro_run (Vm ((module V), make)) ~bench ~warmup ~ncores ~duration
    ~on_machine ~on_measure =
  let module MB = Workloads.Microbench.Make (V) in
  match bench with
  | "local" -> MB.local ~warmup ~on_machine ~on_measure ~ncores ~duration make
  | "pipeline" ->
      MB.pipeline ~warmup ~on_machine ~on_measure ~ncores ~duration make
  | "global" -> MB.global ~warmup ~on_machine ~on_measure ~ncores ~duration make
  | "bigmap" ->
      let module RL = Workloads.Rangelock_bench.Make (V) in
      RL.bigmap ~warmup ~on_machine ~on_measure ~ncores ~duration make
  | other -> invalid_arg ("unknown microbenchmark " ^ other)

let metis_run (Vm ((module V), make)) ~total_words ~unit_pages ~ncores =
  let module M = Workloads.Metis.Make (V) in
  M.run ~total_words ~unit_pages ~ncores make

(* Takes the module unpacked so RadixVM's file-backed rows can pass
   page-cache hooks typed against it. *)
let serve (type v) (module V : Vm.Vm_intf.S with type t = v) ?file ?cache_ops
    (make : Ccsim.Machine.t -> v) ~warmup ~slots ~ncores ~duration ~on_machine
    ~on_measure =
  let module CS = Workloads.Cache_serve.Make (V) in
  CS.serve ~warmup ~slots ?file ?cache_ops ~on_machine ~on_measure ~ncores
    ~duration make

(* ------------------------------------------------------------------ *)
(* Table 1: major RadixVM components (line counts of this repo)        *)

(* The source tree whose lines Table 1 counts: the nearest ancestor of
   the working directory — or, failing that, of the executable — that
   holds a dune-project. Running under dune resolves to _build/default,
   whose copied sources have the same line counts; resolving against the
   bare working directory would silently count nothing when the driver
   runs from elsewhere (e.g. an --out-dir scratch directory). *)
let repo_root () =
  let rec ascend dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else ascend parent
  in
  let absolute p =
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  List.find_map ascend
    [ Sys.getcwd (); absolute (Filename.dirname Sys.executable_name) ]

let count_lines root dir =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry -> walk acc (Filename.concat path entry))
        acc (Sys.readdir path)
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then begin
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> close_in ic);
      acc + !n
    end
    else acc
  in
  match root with
  | None -> 0
  | Some root -> (
      try walk 0 (Filename.concat root dir) with Sys_error _ -> 0)

let table1 ctx =
  header ctx "Table 1: major RadixVM components (lines of code)";
  let components =
    [
      ("Radix tree", [ "lib/radix" ], "1,376");
      ("Refcache", [ "lib/refcache" ], "932");
      ("MMU abstraction + VM ops", [ "lib/core" ], "889 + 632");
      ("Machine substrate (ccsim)", [ "lib/ccsim" ], "(kernel infra)");
      ("Baselines + structures", [ "lib/baselines"; "lib/structures" ], "-");
      ("Workloads", [ "lib/workloads" ], "-");
    ]
  in
  let root = repo_root () in
  let rows =
    List.map
      (fun (name, dirs, paper) ->
        ( name,
          List.fold_left (fun acc d -> acc + count_lines root d) 0 dirs,
          paper ))
      components
  in
  Format.fprintf ctx.ppf "%-28s %10s %16s\n" "Component" "this repo"
    "paper (sv6 C++)";
  List.iter
    (fun (name, lines, paper) ->
      Format.fprintf ctx.ppf "%-28s %10d %16s\n" name lines paper)
    rows;
  Format.pp_print_flush ctx.ppf ();
  {
    json =
      Json.List
        (List.map
           (fun (name, lines, paper) ->
             Json.Obj
               [
                 ("component", Json.String name);
                 ("lines", Json.Int lines);
                 ("paper_lines", Json.String paper);
               ])
           rows);
    checks = [];
  }

(* ------------------------------------------------------------------ *)
(* Figure 4: Metis scalability                                         *)

let fig4 ctx =
  let units = [ ("8MB", 2048); ("64KB", 16) ] in
  let jobs =
    List.concat_map
      (fun (uname, unit_pages) ->
        List.concat_map
          (fun sys ->
            List.map
              (fun n ->
                Pool.job
                  ~name:(Printf.sprintf "%s/%s %d cores" sys.sys_name uname n)
                  (fun () ->
                    ( uname,
                      sys.sys_name,
                      n,
                      metis_run sys.sys_vm ~total_words:(metis_words ctx)
                        ~unit_pages ~ncores:n )))
              (core_counts ctx))
          [ radixvm (); bonsai; linux ])
      units
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  header ctx "Figure 4: Metis throughput (jobs/hour), word-position index";
  List.iter
    (fun (uname, _) ->
      Format.fprintf ctx.ppf "\n-- allocation unit %s --\n" uname;
      row_header ctx "cores" (List.map string_of_int (core_counts ctx));
      render_rows ctx
        ~key:(fun (_, s, _, _) -> s)
        ~name:(fun s -> s ^ "/" ^ uname)
        ~cell:(fun (_, _, _, r) -> k r.Workloads.Metis.jobs_per_hour)
        (List.filter (fun (u, _, _, _) -> u = uname) rows))
    units;
  {
    json =
      Json.List
        (List.map
           (fun (u, s, n, (r : Workloads.Metis.report)) ->
             Json.Obj
               [
                 ("unit", Json.String u);
                 ("system", Json.String s);
                 ("cores", Json.Int n);
                 ("jobs_per_hour", Json.Float r.jobs_per_hour);
                 ("job_cycles", Json.Int r.job_cycles);
                 ("mmaps", Json.Int r.mmaps);
                 ("pagefaults", Json.Int r.pagefaults);
                 ("ipis", Json.Int r.ipis);
               ])
           rows);
    checks = [];
  }

(* ------------------------------------------------------------------ *)
(* Figures 5 and 9: microbenchmarks                                    *)

let micro_benches = [ "local"; "pipeline"; "global" ]

(* One job: run [bench] on [sys] at column [n] and return the result row
   with its verdict. Names carry the effective core count (the pipeline
   benchmark needs at least two), matching the machine the run actually
   simulates; the global and bigmap benchmarks size both windows to the
   core count. *)
let micro_job ~ctx ~prefix ~label ~sys ~bench n =
  let effective = if bench = "pipeline" then max 2 n else n in
  let name =
    Printf.sprintf "%s%s %s %d cores" prefix sys.sys_name (label bench)
      effective
  in
  let warmup, duration =
    match bench with
    | "global" | "bigmap" ->
        let d = global_duration ctx n in
        (d, d)
    | _ -> (micro_warmup ctx n, micro_duration ctx)
  in
  Pool.job ~name (fun () ->
      let result, verdict =
        checked ~ctx ~name ~allow:sys.sys_allow ~race_allow:sys.sys_race_allow
          ~zero_sharing:(List.mem bench sys.sys_zero)
          (micro_run sys.sys_vm ~bench ~warmup ~ncores:effective ~duration)
      in
      ((bench, sys.sys_name, n, result), verdict))

(* Every row's metrics after its sweep coordinates [coords] (which end
   with "cores"). When a benchmark's floor lifts the simulated count
   (pipeline needs a producer and a consumer), the machine actually built
   is recorded as "effective_cores". *)
let micro_json coords
    ((bench, _, cores, (r : Workloads.Microbench.result)), verdict) =
  Json.Obj
    (coords
    @ (if bench = "pipeline" && cores < 2 then
         [ ("effective_cores", Json.Int 2) ]
       else [])
    @ [
        ("writes_per_sec", Json.Float r.writes_per_sec);
        ("page_writes", Json.Int r.page_writes);
        ("cycles", Json.Int r.cycles);
        ("ipis", Json.Int r.ipis);
        ("shootdowns", Json.Int r.shootdown_events);
        ("transfers", Json.Int r.transfers);
        ("lock_wait", Json.Int r.lock_wait);
        ("shootdown_wait", Json.Int r.shootdown_wait);
        ("line_stall", Json.Int r.line_stall);
      ]
    @ check_fields verdict)

(* Sweep [benches] x [systems] x cores, then render one page-writes table
   per bench (titled [label bench]), the checker summary, and one artifact
   row per run whose coordinates are [coords bench system cores]. *)
let micro_figure ctx ~title ?(prefix = "") ?(label = Fun.id) ~coords benches
    systems =
  let jobs =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun sys ->
            List.map
              (micro_job ~ctx ~prefix ~label ~sys ~bench)
              (core_counts ctx))
          systems)
      benches
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  header ctx title;
  List.iter
    (fun bench ->
      Format.fprintf ctx.ppf "\n-- %s (total page writes/sec) --\n"
        (label bench);
      row_header ctx "cores" (List.map string_of_int (core_counts ctx));
      render_rows ctx
        ~key:(fun ((_, s, _, _), _) -> s)
        ~name:Fun.id
        ~cell:(fun ((_, _, _, r), _) -> k r.Workloads.Microbench.writes_per_sec)
        (List.filter (fun ((b, _, _, _), _) -> b = bench) rows))
    benches;
  let checks = checks_of_rows rows in
  report_checks ctx checks;
  {
    json =
      Json.List
        (List.map
           (fun (((b, s, n, _), _) as row) -> micro_json (coords b s n) row)
           rows);
    checks;
  }

let fig5 ctx =
  micro_figure ctx ~title:"Figure 5: local / pipeline / global microbenchmarks"
    micro_benches [ radixvm (); bonsai; linux ] ~coords:(fun b s n ->
      [
        ("bench", Json.String b);
        ("system", Json.String s);
        ("cores", Json.Int n);
      ])

let fig9 ctx =
  micro_figure ctx ~title:"Figure 9: per-core vs shared page tables (RadixVM)"
    micro_benches
    [
      radixvm ~name:"Per-core" ();
      radixvm ~name:"Shared" ~mmu:Vm.Page_table.Shared ();
    ]
    ~coords:(fun b s n ->
      [
        ("page_tables", Json.String s);
        ("bench", Json.String b);
        ("system", Json.String "RadixVM");
        ("cores", Json.Int n);
      ])

(* ------------------------------------------------------------------ *)
(* Range-lock crossover: backends x operation mixes                    *)

(* The four points in the backend space the crossover figure compares.
   Partitioning is a variant of the embedded backend, not a separate
   backend, so it appears here as "radix-part64" (split folds wider than
   64 pages instead of propagating locks into them). *)
let rangelock_variants =
  [
    radixvm ~name:"radix" ();
    radixvm ~name:"radix-part64" ~partition:64 ();
    radixvm ~name:"list" ~rangelock:Locks.Range_lock.List_based ();
    radixvm ~name:"global" ~rangelock:Locks.Range_lock.Global ();
  ]

(* Two operation mixes bracket the design space: "disjoint" is the
   Figure 5 local benchmark (per-core private regions — the embedded
   backend's best case, pure per-slot locality), "bigmap" is the fault
   storm on one freshly-folded huge mapping (its worst case — the first
   fault's expansion propagates the lock to every new slot, which is
   exactly what the partition variant avoids and what the external
   backends never do). Where the curves cross is the figure. *)
let mix_of_bench = function "local" -> "disjoint" | b -> b

let rangelock ctx =
  micro_figure ctx
    ~title:"Range-lock crossover: backend x mix (page writes/sec)" ~prefix:"rangelock " ~label:mix_of_bench [ "local"; "bigmap" ]
    rangelock_variants ~coords:(fun b s n ->
      [
        ("backend", Json.String s);
        ("mix", Json.String (mix_of_bench b));
        ("cores", Json.Int n);
      ])

(* ------------------------------------------------------------------ *)
(* Table 2: memory overhead                                            *)

let table2 ctx =
  let jobs =
    List.map
      (fun p ->
        Pool.job ~name:("snapshot " ^ p.Workloads.Snapshots.name) (fun () ->
            Workloads.Snapshots.measure p))
      Workloads.Snapshots.all
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  header ctx "Table 2: memory usage for alternate VM representations";
  List.iter (fun r -> Format.fprintf ctx.ppf "%a@." Workloads.Snapshots.pp_row r) rows;
  Format.fprintf ctx.ppf
    "(paper: Firefox 2.4x, Chrome 2.0x, Apache 1.5x, MySQL 2.7x)\n";
  Format.pp_print_flush ctx.ppf ();
  {
    json =
      Json.List
        (List.map
           (fun (r : Workloads.Snapshots.row) ->
             Json.Obj
               [
                 ("profile", Json.String r.profile.Workloads.Snapshots.name);
                 ("vma_count", Json.Int r.profile.Workloads.Snapshots.vma_count);
                 ("rss_bytes", Json.Int r.rss_bytes);
                 ("linux_vma_bytes", Json.Int r.linux_vma_bytes);
                 ("linux_pt_bytes", Json.Int r.linux_pt_bytes);
                 ("radix_bytes", Json.Int r.radix_bytes);
                 ("ratio", Json.Float r.ratio);
               ])
           rows);
    checks = [];
  }

(* ------------------------------------------------------------------ *)
(* Section 5.4: per-core page table overhead for Metis                 *)

let pt_overhead ctx =
  let ncores = if ctx.quick then 16 else 80 in
  let measure mmu () =
    let captured = ref None in
    let make machine =
      let vm = Radixvm.create_with ~mmu machine in
      captured := Some vm;
      vm
    in
    let _metis =
      metis_run
        (Vm ((module Radixvm), make))
        ~total_words:(metis_words ctx) ~unit_pages:16 ~ncores
    in
    match !captured with
    | Some vm ->
        let pt = Radixvm.pt_bytes vm in
        let rss =
          Ccsim.Physmem.live_frames (Ccsim.Machine.physmem (Radixvm.machine vm))
          * Vm.Vm_types.page_size
        in
        (pt, rss)
    | None -> assert false
  in
  let jobs =
    [
      Pool.job ~name:"pt-overhead per-core" (measure Vm.Page_table.Per_core);
      Pool.job ~name:"pt-overhead shared" (measure Vm.Page_table.Shared);
    ]
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  let (pt_per_core, rss), (pt_shared, _) =
    match rows with [ a; b ] -> (a, b) | _ -> assert false
  in
  header ctx "Section 5.4: Metis page-table overhead, per-core vs shared";
  Format.fprintf ctx.ppf
    "Metis at %d cores: app memory %s, shared PT %s (%.1f%%), per-core PT %s (%.1f%%), ratio %.1fx\n"
    ncores
    (k (float_of_int rss))
    (k (float_of_int pt_shared))
    (100. *. float_of_int pt_shared /. float_of_int rss)
    (k (float_of_int pt_per_core))
    (100. *. float_of_int pt_per_core /. float_of_int rss)
    (float_of_int pt_per_core /. float_of_int (max 1 pt_shared));
  Format.fprintf ctx.ppf
    "(paper: shared 0.3%% of app memory, per-core 3.6%%, 13x)\n";
  Format.pp_print_flush ctx.ppf ();
  {
    json =
      Json.Obj
        [
          ("cores", Json.Int ncores);
          ("app_rss_bytes", Json.Int rss);
          ("pt_bytes_shared", Json.Int pt_shared);
          ("pt_bytes_per_core", Json.Int pt_per_core);
          ( "ratio",
            Json.Float (float_of_int pt_per_core /. float_of_int (max 1 pt_shared))
          );
        ];
    checks = [];
  }

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: index structure lookups vs writers                 *)

let fig_index ctx ~title ~structure ~writer_counts run =
  let jobs =
    List.concat_map
      (fun writers ->
        List.map
          (fun readers ->
            Pool.job
              ~name:
                (Printf.sprintf "%s %d writers %d readers" structure writers
                   readers)
              (fun () ->
                ( writers,
                  readers,
                  run ~readers ~writers ~duration:(index_duration ctx) )))
          (core_counts ctx))
      writer_counts
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  header ctx title;
  row_header ctx "reader cores" (List.map string_of_int (core_counts ctx));
  render_rows ctx
    ~key:(fun (w, _, _) -> w)
    ~name:(Printf.sprintf "%d writers")
    ~cell:(fun (_, _, r) -> k r.Workloads.Index_bench.lookups_per_sec)
    rows;
  {
    json =
      Json.List
        (List.map
           (fun (w, rd, (r : Workloads.Index_bench.result)) ->
             Json.Obj
               [
                 ("structure", Json.String structure);
                 ("readers", Json.Int rd);
                 ("writers", Json.Int w);
                 ("lookups_per_sec", Json.Float r.lookups_per_sec);
                 ("lookups", Json.Int r.lookups);
                 ("write_pairs_per_sec", Json.Float r.write_pairs_per_sec);
               ])
           rows);
    checks = [];
  }

let fig6 ctx =
  fig_index ctx
    ~title:"Figure 6: skip list lookups under concurrent inserts/deletes"
    ~structure:"skiplist" ~writer_counts:[ 0; 1; 5 ]
    (fun ~readers ~writers ~duration ->
      Workloads.Index_bench.skiplist ~readers ~writers ~duration ())

let fig7 ctx =
  fig_index ctx
    ~title:"Figure 7: radix tree lookups under concurrent inserts/deletes"
    ~structure:"radix" ~writer_counts:[ 0; 10; 40 ]
    (fun ~readers ~writers ~duration ->
      Workloads.Index_bench.radix ~readers ~writers ~duration ())

(* ------------------------------------------------------------------ *)
(* Figure 8: reference counting schemes                                *)

let fig8 ctx =
  let schemes =
    [
      ("Refcache", fun ~ncores ~duration -> CB_refcache.run ~ncores ~duration ());
      ("SNZI", fun ~ncores ~duration -> CB_snzi.run ~ncores ~duration ());
      ("Shared counter", fun ~ncores ~duration -> CB_shared.run ~ncores ~duration ());
      ("Distributed", fun ~ncores ~duration -> CB_dist.run ~ncores ~duration ());
    ]
  in
  let jobs =
    List.concat_map
      (fun (name, run) ->
        List.map
          (fun n ->
            Pool.job
              ~name:(Printf.sprintf "%s %d cores" name n)
              (fun () ->
                (name, n, run ~ncores:n ~duration:(counter_duration ctx))))
          (core_counts ctx))
      schemes
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  header ctx "Figure 8: page-sharing throughput by refcount scheme (iters/sec)";
  row_header ctx "cores" (List.map string_of_int (core_counts ctx));
  render_rows ctx
    ~key:(fun (s, _, _) -> s)
    ~name:Fun.id
    ~cell:(fun (_, _, r) -> k r.Workloads.Counter_bench.iters_per_sec)
    rows;
  {
    json =
      Json.List
        (List.map
           (fun (s, n, (r : Workloads.Counter_bench.result)) ->
             Json.Obj
               [
                 ("scheme", Json.String s);
                 ("cores", Json.Int n);
                 ("iters_per_sec", Json.Float r.iters_per_sec);
                 ("iterations", Json.Int r.iterations);
                 ("transfers", Json.Int r.transfers);
               ])
           rows);
    checks = [];
  }

(* ------------------------------------------------------------------ *)
(* Ablations: design knobs the paper discusses but does not plot        *)

(* A. MMU policy sweep (section 3.3's page-table sharing compromise). *)
let ablation_mmu ctx =
  let policies =
    [
      ("Per-core", Vm.Page_table.Per_core);
      ("Per-socket (10)", Vm.Page_table.Grouped 10);
      ("Shared", Vm.Page_table.Shared);
    ]
  in
  let jobs =
    List.concat_map
      (fun (name, mmu) ->
        List.map
          (fun n ->
            Pool.job
              ~name:(Printf.sprintf "mmu %s %d cores" name n)
              (fun () ->
                let r =
                  micro_run (radixvm ~mmu ()).sys_vm ~bench:"local"
                    ~warmup:(micro_warmup ctx n) ~ncores:n
                    ~duration:(micro_duration ctx) ~on_machine:ignore
                    ~on_measure:ignore
                in
                (name, n, r.Workloads.Microbench.writes_per_sec)))
          (core_counts ctx))
      policies
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  Format.fprintf ctx.ppf
    "\n-- A. MMU policy, local benchmark (page writes/sec) --\n";
  row_header ctx "cores" (List.map string_of_int (core_counts ctx));
  render_rows ctx ~key:(fun (p, _, _) -> p) ~name:Fun.id
    ~cell:(fun (_, _, w) -> k w) rows;
  Json.List
    (List.map
       (fun (p, n, w) ->
         Json.Obj
           [
             ("policy", Json.String p);
             ("cores", Json.Int n);
             ("writes_per_sec", Json.Float w);
           ])
       rows)

(* B. Refcache delta-cache size: conflict rate as the space/scalability
   knob — a hot working set with a tiny cache evicts constantly. *)
let ablation_cache_size ctx =
  let run_one slots () =
    let machine = Ccsim.Machine.create (Ccsim.Params.default ~ncores:16 ()) in
    let rc = Refcnt.Refcache.create ~cache_slots:slots machine in
    let core0 = Ccsim.Machine.core machine 0 in
    let objs =
      Array.init 256 (fun _ ->
          Refcnt.Refcache.make_obj rc core0 ~init:1 ~free:(fun _ -> ()))
    in
    let ops = ref 0 in
    for c = 0 to 15 do
      let core = Ccsim.Machine.core machine c in
      (* Hold references across operations so deltas stay cached between
         steps: cache conflicts then evict live deltas to the shared
         global counts. *)
      let held = Queue.create () in
      Ccsim.Machine.set_workload machine c (fun () ->
          if Queue.length held >= 8 then
            Refcnt.Refcache.dec rc core (Queue.pop held);
          let o = objs.(Random.State.int core.Ccsim.Core.rng 256) in
          Refcnt.Refcache.inc rc core o;
          Queue.push o held;
          incr ops;
          true)
    done;
    let duration = if ctx.quick then 200_000 else 1_000_000 in
    Ccsim.Machine.run_for machine ~cycles:duration;
    (slots, float_of_int !ops /. Ccsim.Machine.seconds machine duration)
  in
  let jobs =
    List.map
      (fun slots ->
        Pool.job ~name:(Printf.sprintf "refcache %d slots" slots) (run_one slots))
      [ 8; 32; 256; 4096 ]
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  Format.fprintf ctx.ppf
    "\n-- B. Refcache delta-cache size (16 cores, 256 hot objects; ops/sec) --\n";
  List.iter
    (fun (slots, ops) ->
      Format.fprintf ctx.ppf "%6d slots: %12s ops/sec\n" slots (k ops))
    rows;
  Format.pp_print_flush ctx.ppf ();
  Json.List
    (List.map
       (fun (slots, ops) ->
         Json.Obj [ ("slots", Json.Int slots); ("ops_per_sec", Json.Float ops) ])
       rows)

(* C. Epoch length: reclamation latency vs scalability. *)
let ablation_epoch ctx =
  let run_one epoch () =
    let machine =
      Ccsim.Machine.create (Ccsim.Params.default ~ncores:2 ~epoch_cycles:epoch ())
    in
    let vm = Radixvm.create machine in
    let core = Ccsim.Machine.core machine 0 in
    Radixvm.mmap vm core ~vpn:0 ~npages:16 ();
    for p = 0 to 15 do
      ignore (Radixvm.touch vm core ~vpn:p)
    done;
    (* Settle the maintenance backlog accumulated during setup so the
       measurement starts from a clean epoch boundary. *)
    Ccsim.Machine.drain machine ~cycles:1;
    Radixvm.munmap vm core ~vpn:0 ~npages:16;
    let unmapped_at = Ccsim.Machine.elapsed machine in
    let pm = Ccsim.Machine.physmem machine in
    let freed_at = ref None in
    let guard = ref 0 in
    while !freed_at = None && !guard < 1000 do
      incr guard;
      Ccsim.Machine.drain machine ~cycles:(epoch / 4);
      if Ccsim.Physmem.live_frames pm = 0 then
        freed_at := Some (Ccsim.Machine.elapsed machine)
    done;
    (epoch, Option.map (fun t -> t - unmapped_at) !freed_at)
  in
  let jobs =
    List.map
      (fun epoch ->
        Pool.job ~name:(Printf.sprintf "epoch %d" epoch) (run_one epoch))
      [ 100_000; 1_000_000; 10_000_000 ]
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  Format.fprintf ctx.ppf
    "\n-- C. Refcache epoch length vs frame reclamation latency --\n";
  List.iter
    (fun (epoch, latency) ->
      match latency with
      | Some l ->
          Format.fprintf ctx.ppf
            "epoch %8d cycles: frames reclaimed %8d cycles after munmap (%.1f epochs)\n"
            epoch l
            (float_of_int l /. float_of_int epoch)
      | None ->
          Format.fprintf ctx.ppf "epoch %8d cycles: frames never reclaimed!\n"
            epoch)
    rows;
  Format.pp_print_flush ctx.ppf ();
  Json.List
    (List.map
       (fun (epoch, latency) ->
         Json.Obj
           [
             ("epoch_cycles", Json.Int epoch);
             ( "reclaim_cycles",
               match latency with Some l -> Json.Int l | None -> Json.Null );
           ])
       rows)

(* D. Fork cost vs address-space size (COW: no frames are copied). *)
let ablation_fork ctx =
  let run_one npages () =
    let machine = Ccsim.Machine.create (Ccsim.Params.default ~ncores:2 ()) in
    let vm = Radixvm.create machine in
    let core = Ccsim.Machine.core machine 0 in
    Radixvm.mmap vm core ~vpn:0 ~npages ();
    for p = 0 to npages - 1 do
      ignore (Radixvm.touch vm core ~vpn:p)
    done;
    let t0 = Ccsim.Core.now core in
    let child = Radixvm.fork vm core in
    let cycles = Ccsim.Core.now core - t0 in
    ignore child;
    let eager = npages * (Ccsim.Machine.params machine).Ccsim.Params.page_zero in
    (npages, cycles, eager)
  in
  let jobs =
    List.map
      (fun npages ->
        Pool.job ~name:(Printf.sprintf "fork %d pages" npages) (run_one npages))
      [ 64; 512; 4096 ]
  in
  let rows = Pool.run ~jobs:ctx.jobs jobs in
  Format.fprintf ctx.ppf
    "\n-- D. fork cost vs faulted pages (COW: no frames are copied) --\n";
  List.iter
    (fun (npages, cycles, eager) ->
      Format.fprintf ctx.ppf
        "%6d pages: fork %9d cycles (%5d/page) | eager copy would cost >= %9d\n"
        npages cycles (cycles / max 1 npages) eager)
    rows;
  Format.pp_print_flush ctx.ppf ();
  Json.List
    (List.map
       (fun (npages, cycles, eager) ->
         Json.Obj
           [
             ("pages", Json.Int npages);
             ("fork_cycles", Json.Int cycles);
             ("eager_copy_cycles", Json.Int eager);
           ])
       rows)

let ablations ctx =
  header ctx "Ablations: design knobs beyond the paper's figures";
  let mmu = ablation_mmu ctx in
  let cache = ablation_cache_size ctx in
  let epoch = ablation_epoch ctx in
  let fork = ablation_fork ctx in
  {
    json =
      Json.Obj
        [
          ("mmu_policy", mmu);
          ("refcache_cache_size", cache);
          ("epoch_reclaim", epoch);
          ("fork_cost", fork);
        ];
    checks = [];
  }

(* ------------------------------------------------------------------ *)
(* Wall-clock microbenchmarks of the real data structures (Bechamel)   *)

(* Real elapsed time, not simulated: inherently serial and not
   deterministic, so it bypasses the pool and its JSON artifact is for
   humans and trend dashboards, not byte-identity checks. *)
let wallclock ctx =
  header ctx "Wall-clock microbenchmarks (Bechamel, real time not simulated)";
  let open Bechamel in
  let open Toolkit in
  let machine = Ccsim.Machine.create (Ccsim.Params.default ~ncores:4 ()) in
  let rc = Refcnt.Refcache.create machine in
  let core = Ccsim.Machine.core machine 0 in
  let tree = Radix.create ~bits:9 ~levels:3 machine rc core in
  let lk = Radix.lock_range tree core ~lo:0 ~hi:4096 in
  Radix.fill_range tree core lk 42;
  Radix.unlock_range tree core lk;
  let obj = Refcnt.Refcache.make_obj rc core ~init:1 ~free:(fun _ -> ()) in
  let sl = Structures.Skiplist.create core in
  for i = 0 to 999 do
    Structures.Skiplist.insert core sl (i * 17) i
  done;
  let counter = ref 0 in
  let tests =
    Test.make_grouped ~name:"radixvm" ~fmt:"%s %s"
      [
        Test.make ~name:"radix lookup"
          (Staged.stage (fun () ->
               incr counter;
               ignore (Radix.lookup tree core (!counter * 7 mod 4096))));
        Test.make ~name:"refcache inc/dec"
          (Staged.stage (fun () ->
               Refcnt.Refcache.inc rc core obj;
               Refcnt.Refcache.dec rc core obj));
        Test.make ~name:"skiplist find"
          (Staged.stage (fun () ->
               incr counter;
               ignore
                 (Structures.Skiplist.find core sl (!counter * 17 mod 17000))));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw_results in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let est =
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Some est
          | _ -> None
        in
        (name, est) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Format.fprintf ctx.ppf "%-32s %10.1f ns/op\n" name est
      | None -> Format.fprintf ctx.ppf "%-32s (no estimate)\n" name)
    rows;
  Format.pp_print_flush ctx.ppf ();
  {
    json =
      Json.List
        (List.map
           (fun (name, est) ->
             Json.Obj
               [
                 ("name", Json.String name);
                 ( "ns_per_op",
                   match est with Some e -> Json.Float e | None -> Json.Null );
               ])
           rows);
    checks = [];
  }

(* ------------------------------------------------------------------ *)
(* Cache serving ("mmap in anger"): a shared-memory cache's service
   throughput, per system x range-lock backend x cores. Unlike the
   microbenchmarks, the VM operations here (eviction munmap/remap,
   slot-resize mprotect, page-cache reload) sit on the serving hot path,
   so the row is ops/sec of the *cache*, not of mmap itself. *)

let cacheserve_slots ctx = if ctx.quick then 64 else 256

(* File-backed rows must pull the working set through the page cache's
   disk latency before the window opens: every slot's first toucher pays
   a full disk read, and late cores straggle behind hot-bucket queues —
   so the budget scales with both the slot count and the core count.
   Anonymous rows only need the microbenchmark warmup. *)
let cacheserve_warmup ctx n ~slots ~file =
  micro_warmup ctx n + (if file then 80_000 * (slots + (4 * n)) else 0)

let cacheserve_backends =
  [
    ("radix", Locks.Range_lock.Radix_embedded);
    ("list", Locks.Range_lock.List_based);
    ("global", Locks.Range_lock.Global);
  ]

(* A row's label in job names and the table: RadixVM's anonymous rows
   are told apart by backend. *)
let cacheserve_label (sys, backend) =
  if sys = "RadixVM" then sys ^ "/" ^ backend else sys

let cacheserve ctx =
  let slots = cacheserve_slots ctx in
  let duration = micro_duration ctx in
  let fd = 3 in
  (* File-backed rows reload evicted slots through the 80k-cycle disk
     latency; give them a window several misses deep so every core lands
     in it. *)
  let duration_file = max duration (slots * 80_000 / 2) in
  let job sys ~backend n run =
    let name =
      Printf.sprintf "cacheserve %s %d cores"
        (cacheserve_label (sys.sys_name, backend))
        n
    in
    Pool.job ~name (fun () ->
        let r, v =
          checked ~ctx ~name ~allow:sys.sys_allow
            ~race_allow:sys.sys_race_allow run
        in
        ((sys.sys_name, backend, n, r), v))
  in
  let anon sys ~backend n =
    let (Vm (m, make)) = sys.sys_vm in
    job sys ~backend n
      (serve m make ~warmup:(cacheserve_warmup ctx n ~slots ~file:false) ~slots
         ~ncores:n ~duration)
  in
  let perf_jobs =
    List.concat_map
      (fun n ->
        let warm_file = cacheserve_warmup ctx n ~slots ~file:true in
        (* The cross-system comparison runs anonymous — the baselines
           have no page cache, so charging only RadixVM the disk would
           measure the disk, not the VM design. The full-stack rows
           (page cache, dirty writeback, disk reloads) are RadixVM-only:
           "RadixVM-pc" in-process and "RadixVM-procs" via syscalls. *)
        List.map
          (fun (backend, rangelock) -> anon (radixvm ~rangelock ()) ~backend n)
          cacheserve_backends
        @ [
            job (radixvm ~name:"RadixVM-pc" ()) ~backend:"radix" n
              (serve (module Radixvm) ~file:fd
                 ~cache_ops:(Workloads.Cache_serve.radixvm_cache_ops ~file:fd)
                 Radixvm.create ~warmup:warm_file ~slots ~ncores:n
                 ~duration:duration_file);
            job (radixvm ~name:"RadixVM-procs" ()) ~backend:"radix" n
              (fun ~on_machine ~on_measure ->
                Workloads.Cache_serve.Procs.serve ~warmup:warm_file ~slots
                  ~on_machine ~on_measure ~ncores:n ~duration:duration_file ());
            anon linux ~backend:"-" n;
            anon bonsai ~backend:"-" n;
          ])
      (core_counts ctx)
  in
  let rows = Pool.run ~jobs:ctx.jobs perf_jobs in
  (* Under --check, additionally replay the model-checked session per
     backend (and through the syscall layer): every observable get/set/
     delete cross-checked against Cache_model, with the dynamic checker
     watching TLB coherence and the Refcache ledger. *)
  let model_rows =
    if not ctx.check then []
    else begin
      let session_ops = if ctx.quick then 1_500 else 6_000 in
      let session_slots = if ctx.quick then 32 else 64 in
      let model_job ~name ~rangelock ~via_kernel =
        let sys = radixvm ~rangelock () in
        Pool.job ~name (fun () ->
            let o, v =
              checked ~ctx ~name ~allow:sys.sys_allow
                ~race_allow:sys.sys_race_allow
                ~holds:(fun o ->
                  o.Workloads.Cache_serve.Session.divergences = [])
                (fun ~on_machine ~on_measure:_ ->
                  Workloads.Cache_serve.Session.run ~procs:3
                    ~slots:session_slots ~ops:session_ops ~rangelock
                    ~via_kernel ~compact_every:(session_ops / 2) ~on_machine
                    ())
            in
            ((name, o), v))
      in
      Pool.run ~jobs:ctx.jobs
        (List.map
           (fun (backend, rangelock) ->
             model_job
               ~name:("cacheserve-model:" ^ backend)
               ~rangelock ~via_kernel:false)
           cacheserve_backends
        @ [
            model_job ~name:"cacheserve-model:kernel"
              ~rangelock:Locks.Range_lock.Radix_embedded ~via_kernel:true;
          ])
    end
  in
  header ctx "Cache serving (\"mmap in anger\"): service ops/sec";
  row_header ctx "cores" (List.map string_of_int (core_counts ctx));
  render_rows ctx
    ~key:(fun ((s, b, _, _), _) -> (s, b))
    ~name:cacheserve_label
    ~cell:(fun ((_, _, _, r), _) -> k r.Workloads.Cache_serve.ops_per_sec)
    rows;
  List.iter
    (fun ((name, (o : Workloads.Cache_serve.Session.outcome)), v) ->
      Format.fprintf ctx.ppf
        "%s: %d ops, %d evictions, %d writebacks, %d compactions, %d \
         divergences%s\n"
        name o.ops_done o.evictions o.writebacks o.compactions
        (List.length o.divergences)
        (if Option.fold ~none:true ~some:(fun v -> v.clean) v then ""
         else "  [FINDINGS]"))
    model_rows;
  Format.pp_print_flush ctx.ppf ();
  let checks = checks_of_rows rows @ checks_of_rows model_rows in
  report_checks ctx checks;
  {
    json =
      Json.List
        (List.map
           (fun ((sys, backend, n, (r : Workloads.Cache_serve.result)), v) ->
             Json.Obj
               ([
                  ("system", Json.String sys);
                  ("backend", Json.String backend);
                  ("cores", Json.Int n);
                  ("ops_per_sec", Json.Float r.ops_per_sec);
                  ("ops_per_core", Json.Float r.ops_per_core);
                  ("ops", Json.Int r.ops);
                  ("gets", Json.Int r.gets);
                  ("sets", Json.Int r.sets);
                  ("dels", Json.Int r.dels);
                  ("lost", Json.Int r.lost);
                  ("evictions", Json.Int r.evictions);
                  ("writebacks", Json.Int r.writebacks);
                  ("resizes", Json.Int r.resizes);
                  ("cycles", Json.Int r.cycles);
                  ("ipis", Json.Int r.ipis);
                  ("shootdowns", Json.Int r.shootdown_events);
                  ("lock_wait", Json.Int r.lock_wait);
                  ("shootdown_wait", Json.Int r.shootdown_wait);
                  ("line_stall", Json.Int r.line_stall);
                ]
               @ check_fields v))
           rows);
    checks;
  }

(* ------------------------------------------------------------------ *)

(* The target registry. [fields] is the row schema validate.exe checks
   every row of the target's artifact against: the sweep coordinates
   and the metrics every consumer plots. *)
type target = { name : string; run : ctx -> output; fields : string list }

let targets =
  let t ?(fields = []) name run = { name; run; fields } in
  [
    t "table1" table1;
    t "fig4" fig4;
    t "fig5" fig5;
    t "table2" table2;
    t "pt-overhead" pt_overhead;
    t "fig6" fig6;
    t "fig7" fig7;
    t "fig8" fig8;
    t "fig9" fig9;
    t "ablations" ablations;
    t "rangelock" rangelock
      ~fields:[ "backend"; "mix"; "cores"; "writes_per_sec" ];
    t "wallclock" wallclock;
    t "cacheserve" cacheserve
      ~fields:[ "system"; "backend"; "cores"; "ops_per_sec"; "ops_per_core" ];
  ]

let target_names = List.map (fun t -> t.name) targets
let find_target name = List.find_opt (fun t -> t.name = name) targets
let run_target ctx name = Option.map (fun t -> t.run ctx) (find_target name)

let artifact_name target =
  "BENCH_" ^ String.map (fun c -> if c = '-' then '_' else c) target ^ ".json"
