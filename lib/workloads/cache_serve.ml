open Ccsim
module T = Vm.Vm_types
module R = Vm.Radixvm.Default
module PC = Vm.Page_cache.Make (Refcnt.Refcache_counter)
module K = Os.Kernel

type result = {
  name : string;
  system : string;
  ncores : int;
  ops : int;
  gets : int;
  sets : int;
  dels : int;
  lost : int;
  evictions : int;
  writebacks : int;
  resizes : int;
  ops_per_sec : float;
  ops_per_core : float;
  cycles : int;
  ipis : int;
  shootdown_events : int;
  lock_wait : int;
  shootdown_wait : int;
  line_stall : int;
}

type 'vm cache_ops = {
  co_evict : 'vm -> Ccsim.Core.t -> page:int -> unit;
  co_mark_dirty : 'vm -> Ccsim.Core.t -> page:int -> unit;
  co_dirty : 'vm -> page:int -> bool;
  co_clear_dirty : 'vm -> Ccsim.Core.t -> page:int -> unit;
}

let radixvm_cache_ops ~file =
  {
    co_evict = (fun vm core ~page -> R.evict_file_page vm core ~file ~page);
    co_mark_dirty =
      (fun vm core ~page -> PC.set_dirty (R.page_cache vm) core ~file ~page);
    co_dirty = (fun vm ~page -> PC.dirty (R.page_cache vm) ~file ~page);
    co_clear_dirty =
      (fun vm core ~page -> PC.clear_dirty (R.page_cache vm) core ~file ~page);
  }

(* ------------------------------------------------------------------ *)
(* The process shape: what every entry point drives                    *)

type load_step = [ `Val of int | `Absent | `Nomem | `Abort | `Crashed ]
type acc_step = [ `Ok | `Seg | `Nomem | `Abort | `Crashed ]
type unit_step = [ `Ok | `Nomem | `Abort | `Crashed ]

(* The sweep's page-cache hooks, bound to the address space that owns
   the page cache. *)
type hooks = {
  evict : Core.t -> page:int -> unit;
  dirty : page:int -> bool;
  mark : Core.t -> page:int -> unit;
  clean : Core.t -> page:int -> unit;
}

(* Eta-expanded, not partially applied: [mark] runs on every store of
   the serving loop, and a partial application would go through the
   generic (allocating) apply path on each call. *)
let hooks co vm =
  {
    evict = (fun core ~page -> co.co_evict vm core ~page);
    dirty = (fun ~page -> co.co_dirty vm ~page);
    mark = (fun core ~page -> co.co_mark_dirty vm core ~page);
    clean = (fun core ~page -> co.co_clear_dirty vm core ~page);
  }

(* No page cache: eviction is munmap + remap only, nothing is dirty. *)
let no_hooks =
  let skip _ ~page:_ = () in
  { evict = skip; dirty = (fun ~page:_ -> false); mark = skip; clean = skip }

(* The region at [base] as process [p] (the int argument) sees it — its
   user accesses and VM calls — plus the page-cache hooks, whole-file
   compaction, crash reap and exit. Slot [s] is page [base + s] in every
   process. Built for threads of one address space ([Make.threads]),
   forked RadixVM spaces ([forked]) or kernel processes ([processes]). *)
type shape = {
  base : int;
  load : int -> Core.t -> vpn:int -> load_step;
  store : int -> Core.t -> vpn:int -> int -> acc_step;
  munmap : int -> Core.t -> vpn:int -> npages:int -> unit_step;
  map : int -> Core.t -> vpn:int -> npages:int -> unit_step;
  mprotect : int -> Core.t -> vpn:int -> T.prot -> unit_step;
  cache : hooks;
  compact : Core.t -> unit;
  reap : int -> Core.t -> unit;
  destroy : int -> Core.t -> unit;
}

let access = function T.Ok -> `Ok | T.Segfault -> `Seg | T.Oom -> `Nomem
let value = function Some w -> `Val w | None -> `Absent
let ok () = `Ok

let of_vm f = function
  | Ok v -> f v
  | Error T.Enomem -> `Nomem
  | Error (T.Aborted _) -> `Abort

let of_errno f = function
  | Ok v -> f v
  | Error K.ENOMEM -> `Nomem
  | Error _ -> `Abort

(* The cache file, sized to cover the region at [base], and its
   compaction (truncate to zero and back). Truncation drops every cached
   page beyond the new EOF through [vm]'s page cache; keys in the page
   cache are vpns, so the sweep starts at the region base. *)
let cache_file vfs ~base ~slots vm c0 =
  let fd = Os.Vfs.create_file vfs ~name:"cache.mmap" ~pages:(base + slots) in
  Os.Vfs.set_resize_hook vfs (fun f ~old_pages ~new_pages ->
      if f = fd && new_pages < old_pages then
        for p = max new_pages base to old_pages - 1 do
          R.evict_file_page vm c0 ~file:fd ~page:p
        done);
  let compact _core =
    ignore (Os.Vfs.resize_file vfs fd ~pages:0);
    ignore (Os.Vfs.resize_file vfs fd ~pages:(base + slots))
  in
  (fd, compact)

(* [procs] RadixVM address spaces: a root mapping the file at vpn 0 and
   its forks, all sharing the root's page cache. *)
let forked m ~rangelock ~slots ~procs =
  let c0 = Machine.core m 0 in
  let root = R.create_with ~rangelock m in
  let fd, compact = cache_file (Os.Vfs.create ()) ~base:0 ~slots root c0 in
  R.mmap root c0 ~vpn:0 ~npages:slots ~backing:(T.File fd) ();
  let vms = Array.init procs (fun i -> if i = 0 then root else R.fork root c0) in
  {
    base = 0;
    load = (fun p core ~vpn -> of_vm value (R.load_result vms.(p) core ~vpn));
    store =
      (fun p core ~vpn w -> of_vm access (R.store_result vms.(p) core ~vpn w));
    munmap =
      (fun p core ~vpn ~npages ->
        of_vm ok (R.munmap_result vms.(p) core ~vpn ~npages));
    map =
      (fun p core ~vpn ~npages ->
        of_vm ok
          (R.mmap_result vms.(p) core ~vpn ~npages ~backing:(T.File fd) ()));
    mprotect =
      (fun p core ~vpn prot ->
        of_vm ok (R.mprotect_result vms.(p) core ~vpn ~npages:1 prot));
    cache = hooks (radixvm_cache_ops ~file:fd) root;
    compact;
    reap = (fun p core -> R.reap vms.(p) core);
    destroy = (fun p core -> R.destroy vms.(p) core);
  }

(* [procs] Os.Kernel processes forked from init, each mapping the file
   at vpn 0x800 with sys_mmap: every access, remap and protection change
   goes through the syscall layer. *)
let processes m ~slots ~procs =
  let c0 = Machine.core m 0 in
  let kern = K.boot m in
  let init = K.init_process kern in
  let base = 0x800 in
  let fd, compact = cache_file (K.vfs kern) ~base ~slots (K.vm init) c0 in
  let expect what = function
    | Ok v -> v
    | Error e ->
        failwith
          (Printf.sprintf "cache_serve: %s: %s" what (K.errno_to_string e))
  in
  let ps = Array.init procs (fun _ -> expect "fork" (K.sys_fork kern c0 init)) in
  Array.iter
    (fun p ->
      expect "mmap" (K.sys_mmap kern c0 p ~vpn:base ~npages:slots ~file:fd ()))
    ps;
  {
    base;
    load =
      (fun p core ~vpn -> of_errno value (K.load_result kern core ps.(p) ~vpn));
    store = (fun p core ~vpn w -> access (K.store kern core ps.(p) ~vpn w));
    munmap =
      (fun p core ~vpn ~npages ->
        of_errno ok (K.sys_munmap kern core ps.(p) ~vpn ~npages));
    map =
      (fun p core ~vpn ~npages ->
        of_errno ok (K.sys_mmap kern core ps.(p) ~vpn ~npages ~file:fd ()));
    mprotect =
      (fun p core ~vpn prot ->
        of_errno ok (K.sys_mprotect kern core ps.(p) ~vpn ~npages:1 prot));
    cache = hooks (radixvm_cache_ops ~file:fd) (K.vm init);
    compact;
    reap = (fun p core -> R.reap (K.vm ps.(p)) core);
    destroy = (fun p core -> K.sys_exit kern core ps.(p) ~code:0);
  }

(* ------------------------------------------------------------------ *)
(* The concurrent throughput run over a shape                          *)

(* Live counters shared by every serving core (plain OCaml state: the
   simulation interleaves deterministically, and the counters are not
   part of the simulated machine). The measured window is a delta
   against a snapshot taken when Stats resets. *)
type counters = {
  mutable c_ops : int;
  mutable c_gets : int;
  mutable c_sets : int;
  mutable c_dels : int;
  mutable c_lost : int;
  mutable c_evictions : int;
  mutable c_writebacks : int;
  mutable c_resizes : int;
}

let build_result ~name ~system ~ncores ~duration machine c warm =
  let s = Machine.stats machine in
  let ops = c.c_ops - warm.c_ops in
  let per_sec = float_of_int ops /. Machine.seconds machine duration in
  {
    name;
    system;
    ncores;
    ops;
    gets = c.c_gets - warm.c_gets;
    sets = c.c_sets - warm.c_sets;
    dels = c.c_dels - warm.c_dels;
    lost = c.c_lost - warm.c_lost;
    evictions = c.c_evictions - warm.c_evictions;
    writebacks = c.c_writebacks - warm.c_writebacks;
    resizes = c.c_resizes - warm.c_resizes;
    ops_per_sec = per_sec;
    ops_per_core = per_sec /. float_of_int ncores;
    cycles = duration;
    ipis = s.Stats.ipis;
    shootdown_events = s.Stats.shootdown_events;
    lock_wait = s.Stats.lock_wait_cycles;
    shootdown_wait = s.Stats.shootdown_wait_cycles;
    line_stall = s.Stats.line_stall_cycles;
  }

(* Core 0 doubles as the LRU sweeper. Eviction is deliberately spread
   over several scheduler steps (one victim munmapped per step, then
   remapped the next) so other cores genuinely race their faults against
   the teardown — an access landing in the window segfaults and is
   counted as [lost], exactly like a reader hitting a page a real cache
   is expunging. *)
type state =
  | Mapping of Barrier.t
  | Wait_mapped of Barrier.t * int
  | Serving
  | Evict_unmap of int list
  | Evict_remap of int * int list
  | Resize_ro
  | Resize_rw of int

(* Core [c] serves through process [c] of the shape. What differs between
   callers is data: [batch] operations per scheduler step, [map_first]
   (core 0 maps the region behind a barrier before anyone serves), and
   [compact] (the shape's compaction every [4 * resize_every] sweeps). *)
let serve_shape ?(warmup = 1_000_000) ?(slots = 128) ?(keys = 0)
    ?(zipf_s = 1.1) ?(evict_every = 512) ?(resize_every = 8) ?(seed = 1)
    ?(on_machine = ignore) ?(on_measure = ignore) ~name ~system ~batch
    ~map_first ~compact ~ncores ~duration shape_on =
  if slots <= 0 then invalid_arg "Cache_serve.serve";
  let keys = if keys <= 0 then 2 * slots else keys in
  let machine = Machine.create (Params.default ~ncores ()) in
  on_machine machine;
  let sh = shape_on machine ~slots in
  let c =
    {
      c_ops = 0;
      c_gets = 0;
      c_sets = 0;
      c_dels = 0;
      c_lost = 0;
      c_evictions = 0;
      c_writebacks = 0;
      c_resizes = 0;
    }
  in
  let last_access = Array.make slots 0 in
  let rounds = ref 0 in
  (* The n coldest slots by recency, ties broken by slot index — what an
     LRU cache under steady memory pressure expels each sweep. *)
  let victims () =
    let idx = Array.init slots (fun s -> s) in
    Array.sort
      (fun a b ->
        let c = compare last_access.(a) last_access.(b) in
        if c <> 0 then c else compare a b)
      idx;
    Array.to_list (Array.sub idx 0 (max 1 (slots / 8)))
  in
  let hottest () =
    let hot = ref 0 in
    for s = 1 to slots - 1 do
      if last_access.(s) > last_access.(!hot) then hot := s
    done;
    !hot
  in
  let start =
    if map_first then
      Mapping (Barrier.create (Machine.core machine 0) ~parties:ncores)
    else Serving
  in
  let out_of_frames () = failwith "cache_serve: out of frames" in
  for cid = 0 to ncores - 1 do
    let core = Machine.core machine cid in
    let z = Zipf.create ~n:keys ~s:zipf_s ~seed:(seed + cid) in
    let state = ref start in
    let e_ops = ref 0 in
    Machine.set_workload machine cid (fun () ->
        (match !state with
        | Mapping b ->
            if cid = 0 then
              ignore (sh.map cid core ~vpn:sh.base ~npages:slots);
            state := Wait_mapped (b, Barrier.arrive core b)
        | Wait_mapped (b, gen) ->
            if Barrier.passed core b gen then state := Serving
            else Machine.wait_hint machine core
        | Serving ->
            for _ = 1 to batch do
              let k = Zipf.next z in
              let s = k mod slots in
              let vpn = sh.base + s in
              let roll = Random.State.int core.Core.rng 100 in
              (if roll < 70 then
                 match sh.load cid core ~vpn with
                 | `Val _ -> c.c_gets <- c.c_gets + 1
                 | `Absent -> c.c_lost <- c.c_lost + 1
                 | `Nomem | `Abort | `Crashed -> out_of_frames ()
               else
                 match sh.store cid core ~vpn (k lor (1 lsl 40)) with
                 | `Ok ->
                     sh.cache.mark core ~page:vpn;
                     if roll < 95 then c.c_sets <- c.c_sets + 1
                     else c.c_dels <- c.c_dels + 1
                 | `Seg -> c.c_lost <- c.c_lost + 1
                 | `Nomem | `Abort | `Crashed -> out_of_frames ());
              last_access.(s) <- Core.now core;
              c.c_ops <- c.c_ops + 1
            done;
            if cid = 0 then begin
              e_ops := !e_ops + batch;
              if !e_ops >= evict_every then begin
                e_ops := 0;
                incr rounds;
                if compact && !rounds mod (4 * resize_every) = 0 then
                  sh.compact core;
                state := Evict_unmap (victims ())
              end
            end
        | Evict_unmap (s :: rest) ->
            let vpn = sh.base + s in
            if sh.cache.dirty ~page:vpn then begin
              Core.tick core core.Core.params.Params.disk_read;
              sh.cache.clean core ~page:vpn;
              c.c_writebacks <- c.c_writebacks + 1
            end;
            ignore (sh.munmap cid core ~vpn ~npages:1);
            sh.cache.evict core ~page:vpn;
            state := Evict_remap (s, rest)
        | Evict_unmap [] -> state := Serving
        | Evict_remap (s, rest) ->
            ignore (sh.map cid core ~vpn:(sh.base + s) ~npages:1);
            c.c_evictions <- c.c_evictions + 1;
            state :=
              (match rest with
              | [] ->
                  if !rounds mod resize_every = 0 then Resize_ro else Serving
              | _ -> Evict_unmap rest)
        | Resize_ro ->
            let hot = hottest () in
            ignore (sh.mprotect cid core ~vpn:(sh.base + hot) T.Read_only);
            state := Resize_rw hot
        | Resize_rw hot ->
            ignore (sh.mprotect cid core ~vpn:(sh.base + hot) T.Read_write);
            c.c_resizes <- c.c_resizes + 1;
            state := Serving);
        true)
  done;
  Machine.run_for machine ~cycles:warmup;
  let warm = { c with c_ops = c.c_ops } in
  Stats.reset (Machine.stats machine);
  on_measure ();
  Machine.run_for machine ~cycles:(warmup + duration);
  build_result ~name ~system ~ncores ~duration machine c warm

module Make (V : Vm.Vm_intf.S) = struct
  (* Every core is a thread of [vm]: the process index is ignored, and
     nothing crashes, exits or compacts. *)
  let threads vm ?file ?cache_ops () =
    let backing = Option.map (fun fd -> T.File fd) file in
    {
      base = 0;
      load =
        (fun _ core ~vpn ->
          match V.read vm core ~vpn with
          | T.Ok -> `Val 0
          | T.Segfault -> `Absent
          | T.Oom -> `Nomem);
      store = (fun _ core ~vpn _ -> access (V.touch vm core ~vpn));
      munmap = (fun _ core ~vpn ~npages -> ok (V.munmap vm core ~vpn ~npages));
      map =
        (fun _ core ~vpn ~npages ->
          ok (V.mmap vm core ~vpn ~npages ?backing ()));
      mprotect =
        (fun _ core ~vpn prot -> ok (V.mprotect vm core ~vpn ~npages:1 prot));
      cache =
        Option.fold cache_ops ~none:no_hooks ~some:(fun co -> hooks co vm);
      compact = ignore;
      reap = (fun _ _ -> ());
      destroy = (fun _ _ -> ());
    }

  let serve ?(name = "cacheserve") ?warmup ?slots ?keys ?zipf_s ?evict_every
      ?resize_every ?seed ?file ?cache_ops ?on_machine ?on_measure ~ncores
      ~duration make_vm =
    (* File-backed misses cost a disk read (80k cycles); keep callbacks
       short so cores stay inside the measured window even when a batch
       hits several cold slots. *)
    serve_shape ?warmup ?slots ?keys ?zipf_s ?evict_every ?resize_every ?seed
      ?on_machine ?on_measure ~name ~system:V.name
      ~batch:(if file = None then 8 else 2)
      ~map_first:true ~compact:false ~ncores ~duration (fun m ~slots:_ ->
        threads (make_vm m) ?file ?cache_ops ())
end

module Procs = struct
  (* Every [4 * resize_every] sweeps, bulk memory pressure: the shape's
     compaction truncates the file to zero and back, and the VFS hook
     evicts every cached page while the processes keep their mapped
     frames alive. *)
  let serve ?(name = "cacheserve-procs") ?warmup ?slots ?keys ?zipf_s
      ?evict_every ?resize_every ?seed ?on_machine ?on_measure ~ncores
      ~duration () =
    serve_shape ?warmup ?slots ?keys ?zipf_s ?evict_every ?resize_every ?seed
      ?on_machine ?on_measure ~name ~system:"RadixVM-procs" ~batch:2
      ~map_first:false ~compact:true ~ncores ~duration
      (fun m ~slots -> processes m ~slots ~procs:ncores)
end

(* ------------------------------------------------------------------ *)
(* The sequential, model-checked correctness oracle                    *)

module Session = struct
  type outcome = {
    ops_done : int;
    gets : int;
    hits : int;
    misses : int;
    sets : int;
    dels : int;
    evictions : int;
    writebacks : int;
    compactions : int;
    resizes : int;
    enomem : int;
    aborts : int;
    crashes_reaped : int;
    served_after_crash : bool;
    divergences : string list;
    history : string;
  }

  (* A slot word is tagged so a fresh page (whose content is
     {!Vm.Page_cache.file_content}, never tag-bearing for small files)
     reads back as "empty". *)
  let tag = 1 lsl 62
  let encode ~key ~value =
    tag lor ((key land 0x3FFF_FFFF) lsl 32) lor (value land 0xFFFF_FFFF)

  let decode w =
    if w land tag <> 0 then Some ((w lsr 32) land 0x3FFF_FFFF, w land 0xFFFF_FFFF)
    else None

  let run ?(ncores = 4) ?(procs = 1) ?(via_kernel = false) ?(slots = 64)
      ?(keys = 0) ?(zipf_s = 1.1) ?(evict_every = 256) ?(resize_every = 4)
      ?(compact_every = 0) ?(rangelock = Locks.Range_lock.Radix_embedded)
      ?(seed = 42) ?(ops = 2_000) ?(on_machine = ignore) ?(arm = ignore) () =
    if slots <= 0 || procs <= 0 || ncores <= 0 then
      invalid_arg "Cache_serve.Session.run";
    let keys = if keys <= 0 then 2 * slots else keys in
    let epoch = 10_000 in
    let m = Machine.create (Params.default ~ncores ~epoch_cycles:epoch ()) in
    on_machine m;
    let t =
      if via_kernel then processes m ~slots ~procs
      else forked m ~rangelock ~slots ~procs
    in
    let base = t.base in
    arm ();
    let model = Cache_model.create ~slots in
    let z = Zipf.create ~n:keys ~s:zipf_s ~seed in
    let rng = Random.State.make [| 0xCAC4E; seed |] in
    let alive = Array.make procs true in
    let tainted = Array.make slots false in
    let history = Buffer.create 4096 in
    let gets = ref 0 and hits = ref 0 and misses = ref 0 in
    let sets = ref 0 and dels = ref 0 in
    let evictions = ref 0 and writebacks = ref 0 in
    let compactions = ref 0 and resizes = ref 0 in
    let enomem = ref 0 and aborts = ref 0 and crashes = ref 0 in
    let done_ops = ref 0 and rounds = ref 0 in
    let served_after_crash = ref false in
    let divergences = ref [] and ndiv = ref 0 in
    let i = ref 0 in
    let diverge fmt =
      Printf.ksprintf
        (fun s ->
          incr ndiv;
          if !ndiv <= 32 then divergences := s :: !divergences)
        fmt
    in
    let line fmt =
      Printf.ksprintf
        (fun s ->
          Buffer.add_string history s;
          Buffer.add_char history '\n')
        fmt
    in
    let crash p core =
      t.reap p core;
      alive.(p) <- false;
      incr crashes
    in
    let protect p core f =
      try f () with Fault.Injected_crash _ -> crash p core; `Crashed
    in
    (* The sweep's, compaction's and heal's own VM steps retry an abort
       (it was rolled back) as often as the kernel's user accesses do. *)
    let persist p core f =
      let rec go n =
        match protect p core f with `Abort when n > 0 -> go (n - 1) | r -> r
      in
      go K.access_retries
    in
    let pick start =
      let rec go j n =
        if n = 0 then None
        else if alive.(j mod procs) then Some (j mod procs)
        else go (j + 1) (n - 1)
      in
      go start procs
    in
    let each_alive f =
      for q = 0 to procs - 1 do
        if alive.(q) then f q
      done
    in
    (* A VM step in every live process; false if any refused it. *)
    let in_all core step =
      let ok = ref true in
      each_alive (fun q ->
          match persist q core (fun () -> step q) with
          | `Ok | `Crashed -> ()
          | `Nomem | `Abort -> ok := false);
      !ok
    in
    (* A slot is tainted when faults left its content unknown (a crashed
       store, a failed post-eviction remap): the model stops predicting it
       until a successful set — or a tombstone — re-establishes it. *)
    let show = function Some v -> string_of_int v | None -> "miss" in
    (* The one refusal policy: ENOMEM and injected aborts are counted and
       change nothing; a crash leaves the slot's content unknown. *)
    let refused op key s = function
      | `Nomem ->
          incr enomem;
          line "%04d %s %d -> !nomem" !i op key
      | `Abort ->
          incr aborts;
          line "%04d %s %d -> !abort" !i op key
      | `Crashed ->
          tainted.(s) <- true;
          line "%04d %s %d -> !crash" !i op key
    in
    (* A faulting access may mean this process's mapping of the slot is
       stuck read-only (a resize that crashed between its two mprotects)
       or gone (a remap refused here while a set through a sibling
       re-established the content): restore protection and mapping, then
       retry the access once; a remap the process still refuses refuses
       the access. Content survives the remap — the page-cache entry is
       still resident while any mapping holds the frame. *)
    let healed p core vpn access =
      match persist p core (fun () -> t.mprotect p core ~vpn T.Read_write) with
      | `Crashed -> `Crashed
      | _ -> (
          match persist p core (fun () -> t.map p core ~vpn ~npages:1) with
          | `Ok -> protect p core access
          | (`Nomem | `Abort | `Crashed) as r -> r)
    in
    let load_step p core s vpn =
      let load () = t.load p core ~vpn in
      match protect p core load with
      | `Absent when not tainted.(s) -> healed p core vpn load
      | r -> r
    in
    let store_step p core vpn w =
      let store () = t.store p core ~vpn w in
      match protect p core store with
      | `Seg -> healed p core vpn store
      | r -> r
    in
    let do_get p core key s vpn =
      match load_step p core s vpn with
      | `Val w ->
          incr gets;
          if !crashes > 0 then served_after_crash := true;
          if tainted.(s) then line "%04d get %d -> cold" !i key
          else begin
            let obs =
              match decode w with
              | Some (k', v) when k' = key -> Some v
              | _ -> None
            in
            let expected = Cache_model.get model ~key in
            (match (obs, expected) with
            | Some a, Some b when a = b -> incr hits
            | None, None -> incr misses
            | _ ->
                diverge "op %d: get %d observed %s, model %s" !i key (show obs)
                  (show expected));
            line "%04d get %d -> %s" !i key (show obs)
          end
      | `Absent ->
          incr gets;
          if tainted.(s) then line "%04d get %d -> cold" !i key
          else diverge "op %d: get %d faulted fatally" !i key
      | (`Nomem | `Abort | `Crashed) as r -> refused "get" key s r
    in
    let do_set p core key s vpn v =
      match store_step p core vpn (encode ~key ~value:v) with
      | `Ok ->
          Cache_model.set model ~key ~value:v;
          t.cache.mark core ~page:vpn;
          tainted.(s) <- false;
          incr sets;
          if !crashes > 0 then served_after_crash := true;
          line "%04d set %d = %d" !i key v
      | `Seg ->
          if tainted.(s) then begin
            Cache_model.evict_slot model s;
            line "%04d set %d -> !lost" !i key
          end
          else diverge "op %d: set %d segfaulted on a healthy slot" !i key
      | (`Nomem | `Abort | `Crashed) as r -> refused "set" key s r
    in
    let do_del p core key s vpn =
      match load_step p core s vpn with
      | `Val w ->
          if tainted.(s) then begin
            (* resolve the unknown slot with a tombstone *)
            match store_step p core vpn 0 with
            | `Ok ->
                Cache_model.evict_slot model s;
                tainted.(s) <- false;
                incr dels;
                line "%04d del %d -> cold" !i key
            | _ -> line "%04d del %d -> !lost" !i key
          end
          else begin
            let present =
              match decode w with Some (k', _) -> k' = key | None -> false
            in
            let expected = Cache_model.peek model ~key <> None in
            if present <> expected then
              diverge "op %d: del %d observed %b, model %b" !i key present
                expected;
            if present then begin
              match store_step p core vpn 0 with
              | `Ok ->
                  ignore (Cache_model.delete model ~key);
                  t.cache.mark core ~page:vpn;
                  incr dels;
                  if !crashes > 0 then served_after_crash := true;
                  line "%04d del %d -> hit" !i key
              | `Seg -> diverge "op %d: del %d segfaulted on a healthy slot" !i key
              | (`Nomem | `Abort | `Crashed) as r -> refused "del" key s r
            end
            else begin
              incr dels;
              line "%04d del %d -> miss" !i key
            end
          end
      | `Absent ->
          if tainted.(s) then line "%04d del %d -> cold" !i key
          else diverge "op %d: del %d faulted fatally" !i key
      | (`Nomem | `Abort | `Crashed) as r -> refused "del" key s r
    in
    let do_evict core =
      let victims = Cache_model.coldest model ~n:(max 1 (slots / 8)) in
      if victims <> [] then begin
        List.iter
          (fun s ->
            let vpn = base + s in
            if t.cache.dirty ~page:vpn then begin
              Core.tick core core.Core.params.Params.disk_read;
              t.cache.clean core ~page:vpn;
              incr writebacks
            end;
            let unmapped =
              in_all core (fun q -> t.munmap q core ~vpn ~npages:1)
            in
            t.cache.evict core ~page:vpn;
            let remapped = in_all core (fun q -> t.map q core ~vpn ~npages:1) in
            Cache_model.evict_slot model s;
            if not (unmapped && remapped) then tainted.(s) <- true;
            incr evictions)
          victims;
        line "%04d evict [%s]" !i
          (String.concat ";" (List.map string_of_int victims));
        (* Close the Refcache deferred-free window: after the drain the
           evicted frames are truly freed, so the next access reloads
           file content deterministically. *)
        Machine.drain m ~cycles:(4 * epoch)
      end
    in
    (* Truncation needs every live process to let go of the region first:
       if one refuses, nothing is truncated — every mapping still shows
       the page cache's frames, so the model stays exact — and the region
       is mapped back wherever it was unmapped. *)
    let do_compact core =
      let unmapped =
        in_all core (fun q -> t.munmap q core ~vpn:base ~npages:slots)
      in
      if unmapped then begin
        t.compact core;
        Machine.drain m ~cycles:(4 * epoch);
        Cache_model.clear model;
        Array.fill tainted 0 slots false;
        incr compactions;
        line "%04d compact" !i
      end
      else line "%04d compact -> !refused" !i;
      ignore (in_all core (fun q -> t.map q core ~vpn:base ~npages:slots))
    in
    let do_resize core =
      match Cache_model.hottest model with
      | None -> ()
      | Some s -> (
          let vpn = base + s in
          match pick 0 with
          | None -> ()
          | Some p -> (
              match
                protect p core (fun () -> t.mprotect p core ~vpn T.Read_only)
              with
              | `Ok -> (
                  match
                    protect p core (fun () ->
                        t.mprotect p core ~vpn T.Read_write)
                  with
                  | `Ok ->
                      incr resizes;
                      line "%04d resize %d" !i s
                  | `Crashed -> ()
                  | `Nomem | `Abort ->
                      (* stuck read-only: the next store heals on demand *)
                      line "%04d resize %d -> !stuck" !i s)
              | `Crashed | `Nomem | `Abort -> ()))
    in
    let stop = ref false in
    while !i < ops && not !stop do
      (match pick (!i mod procs) with
      | None -> stop := true
      | Some p ->
          let core = Machine.core m (!i mod ncores) in
          let key = Zipf.next z in
          let s = Cache_model.slot_of_key model key in
          let vpn = base + s in
          let roll = Random.State.int rng 100 in
          if roll < 60 then do_get p core key s vpn
          else if roll < 90 then do_set p core key s vpn (!i land 0xFFFF_FFFF)
          else do_del p core key s vpn;
          incr done_ops;
          if compact_every > 0 && (!i + 1) mod compact_every = 0 then
            do_compact core
          else if evict_every > 0 && (!i + 1) mod evict_every = 0 then begin
            do_evict core;
            incr rounds;
            if resize_every > 0 && !rounds mod resize_every = 0 then
              do_resize core
          end);
      incr i
    done;
    (* Teardown: every surviving address space exits, then the file is
       truncated so the page cache drops its base references — after the
       drain no frame is live. *)
    let c0 = Machine.core m 0 in
    each_alive (fun p -> t.destroy p c0);
    t.compact c0;
    Machine.drain m ~cycles:(8 * epoch);
    {
      ops_done = !done_ops;
      gets = !gets;
      hits = !hits;
      misses = !misses;
      sets = !sets;
      dels = !dels;
      evictions = !evictions;
      writebacks = !writebacks;
      compactions = !compactions;
      resizes = !resizes;
      enomem = !enomem;
      aborts = !aborts;
      crashes_reaped = !crashes;
      served_after_crash = !served_after_crash;
      divergences = List.rev !divergences;
      history = Buffer.contents history;
    }
end
