type maint = { period : int; fn : Core.t -> unit; next : int array }

type t = {
  params : Params.t;
  stats : Stats.t;
  obs : Obs.t;
  cores : Core.t array;
  physmem : Physmem.t;
  workloads : (unit -> bool) option array;
  heap : int array;
      (* heap.(0 .. nactive - 1): the active cores, a binary min-heap
         ordered by (hkey, core id) *)
  hpos : int array;  (* per core: its index in [heap], or -1 when idle *)
  hkey : int array;
      (* per active core: its effective clock when last keyed — a lower
         bound on the live one, because clocks only move forward and
         interrupts only add *)
  mutable nactive : int;
  mutable maints : maint list;
  maint_min : int array;
      (* per core: earliest pending maintenance time over [maints], or
         [max_int] when none are registered. The scheduler's inner loop
         reads this instead of folding the hook list, and the common
         "nothing due" case in [run_due_maint] is one integer compare. *)
  mutable ipi_free : int;
  mutable fault : Fault.t option;
}

let create params =
  let stats = Stats.create () in
  let obs = Obs.create () in
  {
    params;
    stats;
    obs;
    cores =
      Array.init params.Params.ncores (fun id ->
          Core.create ~obs params stats ~id);
    physmem = Physmem.create params stats;
    workloads = Array.make params.Params.ncores None;
    heap = Array.make params.Params.ncores 0;
    hpos = Array.make params.Params.ncores (-1);
    hkey = Array.make params.Params.ncores 0;
    nactive = 0;
    maints = [];
    maint_min = Array.make params.Params.ncores max_int;
    ipi_free = 0;
    fault = None;
  }

let set_fault t f =
  t.fault <- f;
  Array.iter (fun (c : Core.t) -> c.Core.fault <- f) t.cores;
  Physmem.set_fault t.physmem f

let fault t = t.fault
let params t = t.params
let stats t = t.stats
let obs t = t.obs
let physmem t = t.physmem
let ncores t = Array.length t.cores
let core t i = t.cores.(i)
let cores t = t.cores

let refresh_maint_min t i =
  let acc = ref max_int in
  List.iter (fun m -> if m.next.(i) < !acc then acc := m.next.(i)) t.maints;
  t.maint_min.(i) <- !acc

let add_maintenance t ~period fn =
  if period <= 0 then invalid_arg "Machine.add_maintenance";
  (* Stagger the first firing per core: real kernels run per-core
     maintenance off independent timers, and synchronizing every core's
     flush to the same instant would manufacture convoys on shared
     objects that do not exist on real hardware. *)
  let n = ncores t in
  let next =
    Array.init n (fun i -> period + (i * period / (4 * Int.max 1 n)))
  in
  t.maints <- { period; fn; next } :: t.maints;
  for i = 0 to n - 1 do
    if next.(i) < t.maint_min.(i) then t.maint_min.(i) <- next.(i)
  done

let eff_clock (c : Core.t) = c.Core.clock + c.Core.pending_intr

(* ------------------------------------------------------------------ *)
(* The active-core heap                                                *)

(* Does core [a] order before core [b]: earlier key, then lower id? *)
let before t a b =
  let ka = Array.unsafe_get t.hkey a and kb = Array.unsafe_get t.hkey b in
  ka < kb || (ka = kb && a < b)

let place t i c =
  Array.unsafe_set t.heap i c;
  Array.unsafe_set t.hpos c i

(* Fill the hole at [i] with core [c], moving [c] toward the root. *)
let rec sift_up t i c =
  let parent = (i - 1) / 2 in
  if i > 0 && before t c (Array.unsafe_get t.heap parent) then begin
    place t i (Array.unsafe_get t.heap parent);
    sift_up t parent c
  end
  else place t i c

(* Fill the hole at [i] with core [c], moving [c] toward the leaves. *)
let rec sift_down t i c =
  let l = (2 * i) + 1 in
  if l >= t.nactive then place t i c
  else
    let r = l + 1 in
    let child =
      if
        r < t.nactive
        && before t (Array.unsafe_get t.heap r) (Array.unsafe_get t.heap l)
      then r
      else l
    in
    let m = Array.unsafe_get t.heap child in
    if before t m c then begin
      place t i m;
      sift_down t child c
    end
    else place t i c

let heap_add t c =
  t.hkey.(c) <- eff_clock t.cores.(c);
  t.nactive <- t.nactive + 1;
  sift_up t (t.nactive - 1) c

let heap_remove t c =
  let i = t.hpos.(c) in
  t.hpos.(c) <- -1;
  t.nactive <- t.nactive - 1;
  if i < t.nactive then begin
    let last = t.heap.(t.nactive) in
    if i > 0 && before t last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t i last
  end

(* Raise core [c]'s key to its live effective clock. *)
let rekey t c =
  let e = eff_clock t.cores.(c) and k = t.hkey.(c) in
  if e < k then
    failwith
      (Printf.sprintf "Machine: core %d's clock moved backwards (%d < %d)" c e
         k);
  if e > k then begin
    t.hkey.(c) <- e;
    sift_down t t.hpos.(c) c
  end

(* The active core with the least (effective clock, id), or -1 when none
   is active. Every stored key is a lower bound on its core's live
   effective clock, so once the top's key is live no other active core
   can order before it. *)
let rec earliest t =
  if t.nactive = 0 then -1
  else
    let c = t.heap.(0) in
    if t.hkey.(c) = eff_clock t.cores.(c) then c
    else begin
      rekey t c;
      earliest t
    end

let set_workload t i step =
  (match t.workloads.(i) with None -> heap_add t i | Some _ -> ());
  t.workloads.(i) <- Some step

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)

(* Fire every maintenance hook due on [core] given its current clock. *)
let run_due_maint t (core : Core.t) =
  let i = core.Core.id in
  if Array.unsafe_get t.maint_min i <= eff_clock core then begin
    List.iter
      (fun m ->
        while m.next.(i) <= eff_clock core do
          m.fn core;
          m.next.(i) <- m.next.(i) + m.period
        done)
      t.maints;
    refresh_maint_min t i
  end

(* One scheduling decision, encoded so that a pick allocates nothing:
   [c >= 0] steps active core [c]; [nothing] means no core is active;
   [-2 - i] runs idle core [i]'s overdue maintenance. The choice is the
   least (time, core id) over every core, where an active core's time is
   its effective clock and an idle core's is its earliest pending
   maintenance. Idle cores may not run ahead of every active core, so
   with no active core the scheduler stops. *)
let nothing = -1

let pick_next t =
  let a = earliest t in
  let n = Array.length t.cores in
  if a < 0 || t.nactive = n then a
  else begin
    (* Some core is idle: scan the idle cores' maintenance times. *)
    let best = ref a and best_time = ref t.hkey.(a) and idle = ref false in
    for i = 0 to n - 1 do
      if Array.unsafe_get t.hpos i < 0 then begin
        let m = Array.unsafe_get t.maint_min i in
        if m < !best_time || (m = !best_time && i < !best) then begin
          best := i;
          best_time := m;
          idle := true
        end
      end
    done;
    if !idle then -2 - !best else a
  end

let run_pick t p =
  if p >= 0 then begin
    run_due_maint t t.cores.(p);
    (match t.workloads.(p) with
    | Some step ->
        if step () then rekey t p
        else begin
          t.workloads.(p) <- None;
          heap_remove t p
        end
    | None -> ());
    true
  end
  else if p = nothing then false
  else begin
    let i = -2 - p in
    let core = t.cores.(i) in
    core.Core.clock <- Int.max core.Core.clock t.maint_min.(i);
    run_due_maint t core;
    true
  end

let run t =
  while run_pick t (pick_next t) do
    ()
  done

let run_for t ~cycles =
  (* Stop once the earliest active core reaches the horizon (workloads
     stay installed, so a later [run_for] with a larger horizon resumes). *)
  let continue = ref true in
  while !continue do
    let p = pick_next t in
    continue := (p < 0 || t.hkey.(p) < cycles) && run_pick t p
  done

let elapsed t =
  Array.fold_left (fun acc c -> Int.max acc (eff_clock c)) 0 t.cores

let drain t ~cycles =
  let target = elapsed t + cycles in
  let continue = ref true in
  while !continue do
    (* Earliest maintenance event at or before [target], across all cores. *)
    let best = ref None in
    List.iter
      (fun m ->
        Array.iteri
          (fun i next ->
            if next <= target then
              match !best with
              | Some (_, _, bt) when bt <= next -> ()
              | _ -> best := Some (m, i, next))
          m.next)
      t.maints;
    match !best with
    | None -> continue := false
    | Some (m, i, time) ->
        let core = t.cores.(i) in
        core.Core.clock <- Int.max core.Core.clock time;
        m.fn core;
        m.next.(i) <- m.next.(i) + m.period;
        refresh_maint_min t i
  done;
  Array.iter
    (fun (c : Core.t) -> c.Core.clock <- Int.max c.Core.clock target)
    t.cores

let seconds t cycles = float_of_int cycles /. t.params.Params.clock_hz

let wait_hint t (core : Core.t) =
  (* The earliest active core other than [core]: take [core] out of the
     heap while looking. *)
  let id = core.Core.id in
  let active = t.hpos.(id) >= 0 in
  if active then heap_remove t id;
  let other = earliest t in
  (* Poll roughly every microsecond of simulated time: fine enough that
     cross-core events are observed promptly relative to phase lengths,
     coarse enough that waiting cores do not flood the scheduler with
     cycle-sized steps. *)
  let poll = core.Core.clock + (16 * t.params.Params.op_cost) in
  core.Core.clock <-
    (if other < 0 then poll else Int.max poll (t.hkey.(other) + 1));
  if active then heap_add t id

let ipi_free_at t = t.ipi_free
let set_ipi_free_at t v = t.ipi_free <- v

let idle t = t.nactive = 0
