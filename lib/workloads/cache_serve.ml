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

let fresh_counters () =
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

let snapshot c = { c with c_ops = c.c_ops }

let build_result ~name ~system ~ncores ~duration machine c base =
  let s = Machine.stats machine in
  let ops = c.c_ops - base.c_ops in
  let per_sec = float_of_int ops /. Machine.seconds machine duration in
  {
    name;
    system;
    ncores;
    ops;
    gets = c.c_gets - base.c_gets;
    sets = c.c_sets - base.c_sets;
    dels = c.c_dels - base.c_dels;
    lost = c.c_lost - base.c_lost;
    evictions = c.c_evictions - base.c_evictions;
    writebacks = c.c_writebacks - base.c_writebacks;
    resizes = c.c_resizes - base.c_resizes;
    ops_per_sec = per_sec;
    ops_per_core = per_sec /. float_of_int ncores;
    cycles = duration;
    ipis = s.Stats.ipis;
    shootdown_events = s.Stats.shootdown_events;
    lock_wait = s.Stats.lock_wait_cycles;
    shootdown_wait = s.Stats.shootdown_wait_cycles;
    line_stall = s.Stats.line_stall_cycles;
  }

(* ------------------------------------------------------------------ *)
(* The concurrent throughput run, generic over the VM system           *)

module Make (V : Vm.Vm_intf.S) = struct
  (* Core 0 doubles as the LRU sweeper. Eviction is deliberately spread
     over several scheduler steps (one victim munmapped per step, then
     remapped the next) so other cores genuinely race their faults
     against the teardown — an access landing in the window segfaults
     and is counted as [lost], exactly like a reader hitting a page a
     real cache is expunging. *)
  type state =
    | Mapping
    | Wait_mapped of int
    | Serving
    | Evict_unmap of int list
    | Evict_remap of int * int list
    | Resize_ro
    | Resize_rw of int

  let serve ?(name = "cacheserve") ?(warmup = 1_000_000) ?(slots = 128)
      ?(keys = 0) ?(zipf_s = 1.1) ?(evict_every = 512) ?(resize_every = 8)
      ?(seed = 1) ?file ?cache_ops ?(on_machine = ignore)
      ?(on_measure = ignore) ~ncores ~duration make_vm =
    if slots <= 0 then invalid_arg "Cache_serve.serve";
    let keys = if keys <= 0 then 2 * slots else keys in
    let machine = Machine.create (Params.default ~ncores ()) in
    on_machine machine;
    let vm = make_vm machine in
    let backing = Option.map (fun fd -> T.File fd) file in
    let c = fresh_counters () in
    let last_access = Array.make slots 0 in
    let barrier = Barrier.create (Machine.core machine 0) ~parties:ncores in
    let writeback_if_dirty core s =
      match cache_ops with
      | Some co when co.co_dirty vm ~page:s ->
          Core.tick core core.Core.params.Params.disk_read;
          co.co_clear_dirty vm core ~page:s;
          c.c_writebacks <- c.c_writebacks + 1
      | _ -> ()
    in
    let rounds = ref 0 in
    (* The n coldest slots by recency, ties broken by slot index — what
       an LRU cache under steady memory pressure expels each sweep. *)
    let pick_victims () =
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
    (* File-backed misses cost a disk read (80k cycles); keep callbacks
       short so cores stay inside the measured window even when a batch
       hits several cold slots. *)
    let batch_ops = match backing with Some _ -> 2 | None -> 8 in
    for cid = 0 to ncores - 1 do
      let core = Machine.core machine cid in
      let z = Zipf.create ~n:keys ~s:zipf_s ~seed:(seed + cid) in
      let state = ref Mapping in
      let e_ops = ref 0 in
      Machine.set_workload machine cid (fun () ->
          (match !state with
          | Mapping ->
              if cid = 0 then V.mmap vm core ~vpn:0 ~npages:slots ?backing ();
              state := Wait_mapped (Barrier.arrive core barrier)
          | Wait_mapped gen ->
              if Barrier.passed core barrier gen then state := Serving
              else Machine.wait_hint machine core
          | Serving ->
              for _ = 1 to batch_ops do
                let k = Zipf.next z in
                let s = k mod slots in
                let roll = Random.State.int core.Core.rng 100 in
                (if roll < 70 then
                   match V.read vm core ~vpn:s with
                   | T.Ok -> c.c_gets <- c.c_gets + 1
                   | T.Segfault -> c.c_lost <- c.c_lost + 1
                   | T.Oom -> failwith "cache_serve: out of frames"
                 else
                   match V.touch vm core ~vpn:s with
                   | T.Ok ->
                       (match cache_ops with
                       | Some co -> co.co_mark_dirty vm core ~page:s
                       | None -> ());
                       if roll < 95 then c.c_sets <- c.c_sets + 1
                       else c.c_dels <- c.c_dels + 1
                   | T.Segfault -> c.c_lost <- c.c_lost + 1
                   | T.Oom -> failwith "cache_serve: out of frames");
                last_access.(s) <- Core.now core;
                c.c_ops <- c.c_ops + 1
              done;
              if cid = 0 then begin
                e_ops := !e_ops + batch_ops;
                if !e_ops >= evict_every then begin
                  e_ops := 0;
                  incr rounds;
                  match pick_victims () with
                  | [] ->
                      if !rounds mod resize_every = 0 then state := Resize_ro
                  | v :: rest -> state := Evict_unmap (v :: rest)
                end
              end
          | Evict_unmap (s :: rest) ->
              writeback_if_dirty core s;
              V.munmap vm core ~vpn:s ~npages:1;
              (match cache_ops with
              | Some co -> co.co_evict vm core ~page:s
              | None -> ());
              state := Evict_remap (s, rest)
          | Evict_unmap [] -> state := Serving
          | Evict_remap (s, rest) ->
              V.mmap vm core ~vpn:s ~npages:1 ?backing ();
              c.c_evictions <- c.c_evictions + 1;
              state :=
                (match rest with
                | [] ->
                    if !rounds mod resize_every = 0 then Resize_ro else Serving
                | _ -> Evict_unmap rest)
          | Resize_ro ->
              let hot = hottest () in
              V.mprotect vm core ~vpn:hot ~npages:1 T.Read_only;
              state := Resize_rw hot
          | Resize_rw hot ->
              V.mprotect vm core ~vpn:hot ~npages:1 T.Read_write;
              c.c_resizes <- c.c_resizes + 1;
              state := Serving);
          true)
    done;
    Machine.run_for machine ~cycles:warmup;
    let base = snapshot c in
    Stats.reset (Machine.stats machine);
    on_measure ();
    Machine.run_for machine ~cycles:(warmup + duration);
    build_result ~name ~system:V.name ~ncores ~duration machine c base
end

(* ------------------------------------------------------------------ *)
(* The multi-process shape: one forked process per core, via syscalls  *)

module Procs = struct
  type state =
    | Serving
    | Evict_unmap of int list
    | Evict_remap of int * int list
    | Resize_ro
    | Resize_rw of int

  let serve ?(name = "cacheserve-procs") ?(warmup = 1_000_000) ?(slots = 128)
      ?(keys = 0) ?(zipf_s = 1.1) ?(evict_every = 512) ?(resize_every = 8)
      ?(seed = 1) ?(on_machine = ignore) ?(on_measure = ignore) ~ncores
      ~duration () =
    if slots <= 0 then invalid_arg "Cache_serve.Procs.serve";
    let keys = if keys <= 0 then 2 * slots else keys in
    let base = 0x800 in
    let machine = Machine.create (Params.default ~ncores ()) in
    on_machine machine;
    let kern = K.boot machine in
    let c0 = Machine.core machine 0 in
    let vfs = K.vfs kern in
    let fd = Os.Vfs.create_file vfs ~name:"cache.mmap" ~pages:(base + slots) in
    let init = K.init_process kern in
    let pc = R.page_cache (K.vm init) in
    (* Truncation drops every cached page beyond the new EOF. Keys in the
       page cache are vpns, so the sweep starts at the region base. *)
    Os.Vfs.set_resize_hook vfs (fun f ~old_pages ~new_pages ->
        if f = fd && new_pages < old_pages then
          for p = max new_pages base to old_pages - 1 do
            R.evict_file_page (K.vm init) c0 ~file:fd ~page:p
          done);
    let expect what = function
      | Ok v -> v
      | Error e ->
          failwith
            (Printf.sprintf "cache_serve procs: %s: %s" what
               (K.errno_to_string e))
    in
    let procs =
      Array.init ncores (fun _ -> expect "fork" (K.sys_fork kern c0 init))
    in
    Array.iter
      (fun p ->
        expect "mmap"
          (K.sys_mmap kern c0 p ~vpn:base ~npages:slots ~file:fd ()))
      procs;
    let c = fresh_counters () in
    let last_access = Array.make slots 0 in
    let rounds = ref 0 in
    let pick_victims () =
      let idx = Array.init slots (fun s -> s) in
      Array.sort
        (fun a b ->
          let c = compare last_access.(a) last_access.(b) in
          if c <> 0 then c else compare a b)
        idx;
      Array.to_list (Array.sub idx 0 (max 1 (slots / 8)))
    in
    let batch_ops = 2 in
    for cid = 0 to ncores - 1 do
      let core = Machine.core machine cid in
      let z = Zipf.create ~n:keys ~s:zipf_s ~seed:(seed + cid) in
      let state = ref Serving in
      let e_ops = ref 0 in
      let proc = procs.(cid) in
      Machine.set_workload machine cid (fun () ->
          (match !state with
          | Serving ->
              for _ = 1 to batch_ops do
                let k = Zipf.next z in
                let s = k mod slots in
                let vpn = base + s in
                let roll = Random.State.int core.Core.rng 100 in
                (if roll < 70 then
                   match K.load kern core proc ~vpn with
                   | Some _ -> c.c_gets <- c.c_gets + 1
                   | None -> c.c_lost <- c.c_lost + 1
                 else
                   match K.store kern core proc ~vpn (k lor (1 lsl 40)) with
                   | T.Ok ->
                       PC.set_dirty pc core ~file:fd ~page:vpn;
                       if roll < 95 then c.c_sets <- c.c_sets + 1
                       else c.c_dels <- c.c_dels + 1
                   | T.Segfault -> c.c_lost <- c.c_lost + 1
                   | T.Oom -> failwith "cache_serve procs: out of frames");
                last_access.(s) <- Core.now core;
                c.c_ops <- c.c_ops + 1
              done;
              if cid = 0 then begin
                e_ops := !e_ops + batch_ops;
                if !e_ops >= evict_every then begin
                  e_ops := 0;
                  incr rounds;
                  (* Every few sweeps, bulk memory pressure: truncate the
                     file to zero and back; the VFS hook evicts every
                     cached page while the other processes keep their
                     mapped frames alive. *)
                  if !rounds mod (4 * resize_every) = 0 then begin
                    ignore (Os.Vfs.resize_file vfs fd ~pages:0);
                    ignore (Os.Vfs.resize_file vfs fd ~pages:(base + slots))
                  end;
                  match pick_victims () with
                  | [] ->
                      if !rounds mod resize_every = 0 then state := Resize_ro
                  | v :: rest -> state := Evict_unmap (v :: rest)
                end
              end
          | Evict_unmap (s :: rest) ->
              let vpn = base + s in
              if PC.dirty pc ~file:fd ~page:vpn then begin
                Core.tick core core.Core.params.Params.disk_read;
                PC.clear_dirty pc core ~file:fd ~page:vpn;
                c.c_writebacks <- c.c_writebacks + 1
              end;
              ignore (K.sys_munmap kern core proc ~vpn ~npages:1);
              R.evict_file_page (K.vm init) core ~file:fd ~page:vpn;
              state := Evict_remap (s, rest)
          | Evict_unmap [] -> state := Serving
          | Evict_remap (s, rest) ->
              ignore
                (K.sys_mmap kern core proc ~vpn:(base + s) ~npages:1 ~file:fd
                   ());
              c.c_evictions <- c.c_evictions + 1;
              state :=
                (match rest with
                | [] ->
                    if !rounds mod resize_every = 0 then Resize_ro else Serving
                | _ -> Evict_unmap rest)
          | Resize_ro ->
              let hot = ref 0 in
              for s = 1 to slots - 1 do
                if last_access.(s) > last_access.(!hot) then hot := s
              done;
              ignore
                (K.sys_mprotect kern core proc ~vpn:(base + !hot) ~npages:1
                   T.Read_only);
              state := Resize_rw !hot
          | Resize_rw hot ->
              ignore
                (K.sys_mprotect kern core proc ~vpn:(base + hot) ~npages:1
                   T.Read_write);
              c.c_resizes <- c.c_resizes + 1;
              state := Serving);
          true)
    done;
    Machine.run_for machine ~cycles:warmup;
    let basec = snapshot c in
    Stats.reset (Machine.stats machine);
    on_measure ();
    Machine.run_for machine ~cycles:(warmup + duration);
    build_result ~name ~system:"RadixVM-procs" ~ncores ~duration machine c
      basec
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

  type load_step = [ `Val of int | `Absent | `Nomem | `Abort | `Crashed ]
  type acc_step = [ `Ok | `Seg | `Nomem | `Abort | `Crashed ]
  type unit_step = [ `Ok | `Nomem | `Abort | `Crashed ]

  (* The two process shapes (direct Radixvm forks / Os.Kernel syscalls)
     behind one closure record, so the driver is written once. *)
  type target = {
    t_load : int -> Core.t -> vpn:int -> load_step;
    t_store : int -> Core.t -> vpn:int -> int -> acc_step;
    t_munmap : int -> Core.t -> vpn:int -> npages:int -> unit_step;
    t_map : int -> Core.t -> vpn:int -> npages:int -> unit_step;
    t_mprotect : int -> Core.t -> vpn:int -> T.prot -> unit_step;
    t_evict : Core.t -> page:int -> unit;
    t_dirty : page:int -> bool;
    t_mark : Core.t -> page:int -> unit;
    t_clean : Core.t -> page:int -> unit;
    t_compact : Core.t -> unit;
    t_reap : int -> Core.t -> unit;
    t_destroy : int -> Core.t -> unit;
  }

  let of_unit = function
    | Ok () -> `Ok
    | Error T.Enomem -> `Nomem
    | Error (T.Aborted _) -> `Abort

  let of_acc = function
    | Ok T.Ok -> `Ok
    | Ok T.Segfault -> `Seg
    | Ok T.Oom -> `Nomem
    | Error T.Enomem -> `Nomem
    | Error (T.Aborted _) -> `Abort

  let of_load = function
    | Ok (Some w) -> `Val w
    | Ok None -> `Absent
    | Error T.Enomem -> `Nomem
    | Error (T.Aborted _) -> `Abort

  let of_errno = function
    | Ok () -> `Ok
    | Error K.ENOMEM -> `Nomem
    | Error _ -> `Abort

  let mk_direct m ~rangelock ~slots ~procs =
    let c0 = Machine.core m 0 in
    let vfs = Os.Vfs.create () in
    let fd = Os.Vfs.create_file vfs ~name:"cache.mmap" ~pages:slots in
    let root = R.create_with ~rangelock m in
    (match R.mmap_result root c0 ~vpn:0 ~npages:slots ~backing:(T.File fd) ()
     with
    | Ok () -> ()
    | Error e ->
        failwith
          (Format.asprintf "cache_serve session: initial mmap: %a"
             T.pp_vm_error e));
    let vms = Array.init procs (fun i -> if i = 0 then root else R.fork root c0) in
    let pc = R.page_cache root in
    Os.Vfs.set_resize_hook vfs (fun f ~old_pages ~new_pages ->
        if f = fd && new_pages < old_pages then
          for p = new_pages to old_pages - 1 do
            R.evict_file_page root c0 ~file:fd ~page:p
          done);
    ( 0,
      {
        t_load = (fun p core ~vpn -> of_load (R.load_result vms.(p) core ~vpn));
        t_store =
          (fun p core ~vpn w -> of_acc (R.store_result vms.(p) core ~vpn w));
        t_munmap =
          (fun p core ~vpn ~npages ->
            of_unit (R.munmap_result vms.(p) core ~vpn ~npages));
        t_map =
          (fun p core ~vpn ~npages ->
            of_unit
              (R.mmap_result vms.(p) core ~vpn ~npages ~backing:(T.File fd) ()));
        t_mprotect =
          (fun p core ~vpn prot ->
            of_unit (R.mprotect_result vms.(p) core ~vpn ~npages:1 prot));
        t_evict = (fun core ~page -> R.evict_file_page root core ~file:fd ~page);
        t_dirty = (fun ~page -> PC.dirty pc ~file:fd ~page);
        t_mark = (fun core ~page -> PC.set_dirty pc core ~file:fd ~page);
        t_clean = (fun core ~page -> PC.clear_dirty pc core ~file:fd ~page);
        t_compact =
          (fun _core ->
            ignore (Os.Vfs.resize_file vfs fd ~pages:0);
            ignore (Os.Vfs.resize_file vfs fd ~pages:slots));
        t_reap = (fun p core -> R.reap vms.(p) core);
        t_destroy = (fun p core -> R.destroy vms.(p) core);
      } )

  let mk_kernel m ~slots ~procs =
    let c0 = Machine.core m 0 in
    let kern = K.boot m in
    let vfs = K.vfs kern in
    let base = 0x800 in
    let fd = Os.Vfs.create_file vfs ~name:"cache.mmap" ~pages:(base + slots) in
    let init = K.init_process kern in
    let expect what = function
      | Ok v -> v
      | Error e ->
          failwith
            (Printf.sprintf "cache_serve session: %s: %s" what
               (K.errno_to_string e))
    in
    let ps = Array.init procs (fun _ -> expect "fork" (K.sys_fork kern c0 init)) in
    Array.iter
      (fun p ->
        expect "mmap"
          (K.sys_mmap kern c0 p ~vpn:base ~npages:slots ~file:fd ()))
      ps;
    let pc = R.page_cache (K.vm init) in
    Os.Vfs.set_resize_hook vfs (fun f ~old_pages ~new_pages ->
        if f = fd && new_pages < old_pages then
          for p = max new_pages base to old_pages - 1 do
            R.evict_file_page (K.vm init) c0 ~file:fd ~page:p
          done);
    ( base,
      {
        t_load =
          (fun p core ~vpn ->
            match K.load kern core ps.(p) ~vpn with
            | Some w -> `Val w
            | None -> `Absent);
        t_store =
          (fun p core ~vpn w ->
            match K.store kern core ps.(p) ~vpn w with
            | T.Ok -> `Ok
            | T.Segfault -> `Seg
            | T.Oom -> `Nomem);
        t_munmap =
          (fun p core ~vpn ~npages ->
            of_errno (K.sys_munmap kern core ps.(p) ~vpn ~npages));
        t_map =
          (fun p core ~vpn ~npages ->
            of_errno (K.sys_mmap kern core ps.(p) ~vpn ~npages ~file:fd ()));
        t_mprotect =
          (fun p core ~vpn prot ->
            of_errno (K.sys_mprotect kern core ps.(p) ~vpn ~npages:1 prot));
        t_evict =
          (fun core ~page -> R.evict_file_page (K.vm init) core ~file:fd ~page);
        t_dirty = (fun ~page -> PC.dirty pc ~file:fd ~page);
        t_mark = (fun core ~page -> PC.set_dirty pc core ~file:fd ~page);
        t_clean = (fun core ~page -> PC.clear_dirty pc core ~file:fd ~page);
        t_compact =
          (fun _core ->
            ignore (Os.Vfs.resize_file vfs fd ~pages:0);
            ignore (Os.Vfs.resize_file vfs fd ~pages:(base + slots)));
        t_reap = (fun p core -> R.reap (K.vm ps.(p)) core);
        t_destroy = (fun p core -> K.sys_exit kern core ps.(p) ~code:0);
      } )

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
    let base, t =
      if via_kernel then mk_kernel m ~slots ~procs
      else mk_direct m ~rangelock ~slots ~procs
    in
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
      t.t_reap p core;
      alive.(p) <- false;
      incr crashes
    in
    let protect p core f =
      try f () with Fault.Injected_crash _ -> crash p core; `Crashed
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
    (* A slot is tainted when faults left its content unknown (a crashed
       store, a failed post-eviction remap): the model stops predicting it
       until a successful set — or a tombstone — re-establishes it. *)
    let show = function Some v -> string_of_int v | None -> "miss" in
    (* A segfaulting store may mean the slot is stuck read-only (a resize
       that crashed between its two mprotects) or unmapped (a remap that
       hit the frame budget): restore protection and mapping, retry once.
       Content survives the remap — the page-cache entry is still resident
       while any mapping holds the frame. *)
    let heal p core vpn =
      match protect p core (fun () -> t.t_mprotect p core ~vpn T.Read_write)
      with
      | `Crashed -> false
      | _ -> (
          match protect p core (fun () -> t.t_map p core ~vpn ~npages:1) with
          | `Crashed -> false
          | _ -> true)
    in
    let store_step p core vpn w =
      match protect p core (fun () -> t.t_store p core ~vpn w) with
      | `Seg ->
          if heal p core vpn then
            protect p core (fun () -> t.t_store p core ~vpn w)
          else `Crashed
      | r -> r
    in
    let do_get p core key s vpn =
      match protect p core (fun () -> t.t_load p core ~vpn) with
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
      | `Nomem ->
          incr enomem;
          line "%04d get %d -> !nomem" !i key
      | `Abort ->
          incr aborts;
          line "%04d get %d -> !abort" !i key
      | `Crashed ->
          tainted.(s) <- true;
          line "%04d get %d -> !crash" !i key
    in
    let do_set p core key s vpn v =
      match store_step p core vpn (encode ~key ~value:v) with
      | `Ok ->
          Cache_model.set model ~key ~value:v;
          t.t_mark core ~page:vpn;
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
      | `Nomem ->
          incr enomem;
          line "%04d set %d -> !nomem" !i key
      | `Abort ->
          incr aborts;
          line "%04d set %d -> !abort" !i key
      | `Crashed ->
          tainted.(s) <- true;
          line "%04d set %d -> !crash" !i key
    in
    let do_del p core key s vpn =
      match protect p core (fun () -> t.t_load p core ~vpn) with
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
                  t.t_mark core ~page:vpn;
                  incr dels;
                  if !crashes > 0 then served_after_crash := true;
                  line "%04d del %d -> hit" !i key
              | `Seg -> diverge "op %d: del %d segfaulted on a healthy slot" !i key
              | `Nomem ->
                  incr enomem;
                  line "%04d del %d -> !nomem" !i key
              | `Abort ->
                  incr aborts;
                  line "%04d del %d -> !abort" !i key
              | `Crashed ->
                  tainted.(s) <- true;
                  line "%04d del %d -> !crash" !i key
            end
            else begin
              incr dels;
              line "%04d del %d -> miss" !i key
            end
          end
      | `Absent ->
          if tainted.(s) then line "%04d del %d -> cold" !i key
          else diverge "op %d: del %d faulted fatally" !i key
      | `Nomem ->
          incr enomem;
          line "%04d del %d -> !nomem" !i key
      | `Abort ->
          incr aborts;
          line "%04d del %d -> !abort" !i key
      | `Crashed ->
          tainted.(s) <- true;
          line "%04d del %d -> !crash" !i key
    in
    let do_evict core =
      let victims = Cache_model.coldest model ~n:(max 1 (slots / 8)) in
      if victims <> [] then begin
        List.iter
          (fun s ->
            let vpn = base + s in
            if t.t_dirty ~page:vpn then begin
              Core.tick core core.Core.params.Params.disk_read;
              t.t_clean core ~page:vpn;
              incr writebacks
            end;
            let ok = ref true in
            each_alive (fun q ->
                match
                  protect q core (fun () -> t.t_munmap q core ~vpn ~npages:1)
                with
                | `Ok | `Crashed -> ()
                | `Nomem | `Abort -> ok := false);
            t.t_evict core ~page:vpn;
            each_alive (fun q ->
                match
                  protect q core (fun () -> t.t_map q core ~vpn ~npages:1)
                with
                | `Ok | `Crashed -> ()
                | `Nomem | `Abort -> ok := false);
            Cache_model.evict_slot model s;
            if not !ok then tainted.(s) <- true;
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
    let do_compact core =
      each_alive (fun q ->
          ignore
            (protect q core (fun () ->
                 t.t_munmap q core ~vpn:base ~npages:slots)));
      t.t_compact core;
      Machine.drain m ~cycles:(4 * epoch);
      each_alive (fun q ->
          ignore
            (protect q core (fun () -> t.t_map q core ~vpn:base ~npages:slots)));
      Cache_model.clear model;
      Array.fill tainted 0 slots false;
      incr compactions;
      line "%04d compact" !i
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
                protect p core (fun () -> t.t_mprotect p core ~vpn T.Read_only)
              with
              | `Ok -> (
                  match
                    protect p core (fun () ->
                        t.t_mprotect p core ~vpn T.Read_write)
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
    each_alive (fun p -> t.t_destroy p c0);
    t.t_compact c0;
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
