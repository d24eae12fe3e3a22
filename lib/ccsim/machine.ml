type maint = { period : int; fn : Core.t -> unit; next : int array }

(* Cross-shard traffic (see Harness.Shard): a machine that is one node of
   a sharded world sends to remote nodes through its uplink, and the
   epoch-barrier engine delivers the batched events at the next epoch
   boundary. The payloads are deliberately tiny and integer-only so a
   canonical order over them is trivial. *)
type xpayload =
  | Xshootdown of { core : int; handler : int }
      (** interrupt [core] on the destination node, charging [handler]
          cycles (the IPI handler cost drawn on the sending node) *)
  | Xrc of { oid : int; delta : int }
      (** shared-frame refcount flush: apply [delta] to object [oid]'s
          ledger on its home node *)
  | Xmsg of { tag : int; a : int; b : int }
      (** workload-defined message (fork/reap requests and the like),
          interpreted by the destination node's handler *)

type xevent = { xdst : int; xsent : int; xpayload : xpayload }

type t = {
  params : Params.t;
  stats : Stats.t;
  obs : Obs.t;
  cores : Core.t array;
  physmem : Physmem.t;
  workloads : (unit -> bool) option array;
  mutable maints : maint list;
  maint_min : int array;
      (* per core: earliest pending maintenance time over [maints], or
         [max_int] when none are registered. The scheduler's inner loop
         reads this instead of folding the hook list, and the common
         "nothing due" case in [run_due_maint] is one integer compare. *)
  mutable ipi_free : int;
  mutable fault : Fault.t option;
  mutable node : int;
      (* this machine's node id when it is part of a sharded world
         (Harness.Shard); 0 for a standalone machine *)
  mutable uplink : (xevent -> unit) option;
      (* outbox hook installed by the shard engine: cross-shard sends are
         buffered here instead of delivered immediately *)
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
    maints = [];
    maint_min = Array.make params.Params.ncores max_int;
    ipi_free = 0;
    fault = None;
    node = 0;
    uplink = None;
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
let set_workload t i step = t.workloads.(i) <- Some step

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
    Array.init n (fun i -> period + (i * period / (4 * max 1 n)))
  in
  t.maints <- { period; fn; next } :: t.maints;
  for i = 0 to n - 1 do
    if next.(i) < t.maint_min.(i) then t.maint_min.(i) <- next.(i)
  done

let eff_clock (c : Core.t) = c.Core.clock + c.Core.pending_intr

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

(* One scheduling decision: the next thing to run is either the step of the
   earliest active core, or an overdue maintenance event on an idle core
   (idle cores may not run ahead of every active core). *)
type pick = Step of int | Idle_maint of int * int | Nothing

(* One ascending pass with the same strict-< update the original
   two-pass scan used, so ties resolve to the identical (time, lowest
   core id) choice. The historical [m <= max_active_clock] gate on idle
   maintenance is implied: a candidate above every active clock can
   never beat the earliest active core, so it only needs enforcing when
   there is no active core at all — in which case the scheduler stops. *)
let pick_next t =
  let n = Array.length t.cores in
  let best_time = ref max_int in
  let best = ref Nothing in
  let any_active = ref false in
  for i = 0 to n - 1 do
    match Array.unsafe_get t.workloads i with
    | Some _ ->
        any_active := true;
        let c = Array.unsafe_get t.cores i in
        let e = c.Core.clock + c.Core.pending_intr in
        if e < !best_time then begin
          best_time := e;
          best := Step i
        end
    | None ->
        let m = Array.unsafe_get t.maint_min i in
        if m < !best_time then begin
          best_time := m;
          best := Idle_maint (i, m)
        end
  done;
  if not !any_active then Nothing else !best

let run_pick t = function
  | Nothing -> false
  | Step i ->
      let core = t.cores.(i) in
      run_due_maint t core;
      (match t.workloads.(i) with
      | Some step -> if not (step ()) then t.workloads.(i) <- None
      | None -> ());
      true
  | Idle_maint (i, time) ->
      let core = t.cores.(i) in
      core.Core.clock <- max core.Core.clock time;
      run_due_maint t core;
      true

let run t =
  let continue = ref true in
  while !continue do
    continue := run_pick t (pick_next t)
  done

let run_for t ~cycles =
  (* Stop once the earliest active core passes the horizon (workloads stay
     installed, so a later [run_for] with a larger horizon resumes). *)
  let continue = ref true in
  while !continue do
    match pick_next t with
    | Step i when eff_clock t.cores.(i) >= cycles -> continue := false
    | Nothing -> continue := false
    | pick -> continue := run_pick t pick
  done

let elapsed t =
  Array.fold_left (fun acc c -> max acc (eff_clock c)) 0 t.cores

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
        core.Core.clock <- max core.Core.clock time;
        m.fn core;
        m.next.(i) <- m.next.(i) + m.period;
        refresh_maint_min t i
  done;
  Array.iter
    (fun (c : Core.t) -> c.Core.clock <- max c.Core.clock target)
    t.cores

let seconds t cycles = float_of_int cycles /. t.params.Params.clock_hz

let wait_hint t (core : Core.t) =
  let n = Array.length t.cores in
  let earliest_other = ref max_int in
  for i = 0 to n - 1 do
    if i <> core.Core.id then
      match Array.unsafe_get t.workloads i with
      | Some _ ->
          let c = Array.unsafe_get t.cores i in
          let e = c.Core.clock + c.Core.pending_intr in
          if e < !earliest_other then earliest_other := e
      | None -> ()
  done;
  (* Poll roughly every microsecond of simulated time: fine enough that
     cross-core events are observed promptly relative to phase lengths,
     coarse enough that waiting cores do not flood the scheduler with
     cycle-sized steps. *)
  let poll = core.Core.clock + (16 * t.params.Params.op_cost) in
  if !earliest_other = max_int then core.Core.clock <- poll
  else core.Core.clock <- max poll (!earliest_other + 1)

let ipi_free_at t = t.ipi_free
let set_ipi_free_at t v = t.ipi_free <- v

let idle t = Array.for_all Option.is_none t.workloads
let node t = t.node

let set_uplink t ~node fn =
  t.node <- node;
  t.uplink <- Some fn

let uplink_send t ~dst ~sent payload =
  match t.uplink with
  | None -> invalid_arg "Machine.uplink_send: no uplink installed"
  | Some fn -> fn { xdst = dst; xsent = sent; xpayload = payload }

let deliver_interrupt t ~core ~cycles =
  let c = t.cores.(core) in
  Core.interrupt c ~cycles;
  (* The interrupt is accounted where it lands: the receiving node's
     stats count one IPI per delivered cross-shard shootdown (the sender
     counted the shootdown round and its targets at send time). *)
  t.stats.Stats.ipis <- t.stats.Stats.ipis + 1
