type t = {
  params : Params.t;
  stats : Stats.t;
  id : int;
  label : string;
  home_socket : int;
  mutable owner : int;  (* core id holding Modified/Exclusive; -1 if none *)
  sharers : Bitset.t;
  mutable free_at : int;
}

let create ?(label = "line") params stats ~home_socket =
  {
    params;
    stats;
    id = Obs.fresh_line_id ();
    label;
    home_socket;
    owner = -1;
    sharers = Bitset.create params.Params.ncores;
    free_at = 0;
  }

let id t = t.id
let label t = t.label
let holder t = if t.owner >= 0 then Some t.owner else None
let sharers t = Bitset.elements t.sharers

let holds_for_read t core_id =
  (* Core ids are always < ncores = the sharer set's capacity. *)
  t.owner = core_id || Bitset.unsafe_mem t.sharers core_id

(* Where a miss by [core] fetches the line from, given its current
   holders (excluding [core] itself). *)
let miss_source t (core : Core.t) =
  let p = t.params in
  if t.owner >= 0 && t.owner <> core.Core.id then
    if Params.socket_of_core p t.owner = core.Core.socket then `Local
    else `Remote
  else if Bitset.exists_other t.sharers core.Core.id then
    (* Same classification the member walk produced: a sharer on my
       socket ⇔ a member of my socket's core-id range other than me. *)
    let cps = p.Params.cores_per_socket in
    let lo = core.Core.socket * cps in
    let hi = Int.min (Bitset.capacity t.sharers) (lo + cps) in
    if Bitset.mem_range_other t.sharers ~lo ~hi core.Core.id then `Local
    else `Remote
  else `Dram

(* Count the miss and charge its latency, serialized at the line through
   [free_at]. The source is an immediate, so a miss allocates nothing. *)
let charge_miss t (core : Core.t) =
  let p = t.params and stats = t.stats in
  let latency =
    match miss_source t core with
    | `Local ->
        stats.Stats.transfers_local <- stats.Stats.transfers_local + 1;
        p.Params.local_transfer
    | `Remote ->
        stats.Stats.transfers_remote <- stats.Stats.transfers_remote + 1;
        p.Params.remote_transfer
    | `Dram ->
        stats.Stats.dram_fills <- stats.Stats.dram_fills + 1;
        if t.home_socket = core.Core.socket then p.Params.dram_local
        else p.Params.dram_remote
  in
  let now = Core.now core in
  let start = Int.max now t.free_at in
  stats.Stats.line_stall_cycles <- stats.Stats.line_stall_cycles + (start - now);
  let finish = start + latency in
  t.free_at <- finish;
  core.Core.clock <- finish

let read_k kind core t =
  if holds_for_read t core.Core.id then begin
    t.stats.Stats.l1_hits <- t.stats.Stats.l1_hits + 1;
    Core.tick core t.params.Params.l1_hit
  end
  else begin
    charge_miss t core;
    if t.owner >= 0 then begin
      Bitset.add t.sharers t.owner;
      t.owner <- -1
    end;
    Bitset.add t.sharers core.Core.id
  end;
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Read { core = core.Core.id; line = t.id; label = t.label; kind })

let write_k kind core t =
  if t.owner = core.Core.id then begin
    t.stats.Stats.l1_hits <- t.stats.Stats.l1_hits + 1;
    Core.tick core t.params.Params.l1_hit
  end
  else begin
    charge_miss t core;
    Bitset.clear t.sharers;
    t.owner <- core.Core.id
  end;
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Write { core = core.Core.id; line = t.id; label = t.label; kind })

let read core t = read_k Obs.Plain core t
let write core t = write_k Obs.Plain core t
let read_atomic core t = read_k Obs.Atomic core t
let write_atomic core t = write_k Obs.Atomic core t
