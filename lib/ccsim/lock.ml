type t = {
  id : int;
  label : string;
  line : Line.t;
  mutable free_time : int;
}

let create ?(label = "lock") (core : Core.t) =
  let line =
    Line.create ~label core.Core.params core.Core.stats
      ~home_socket:core.Core.socket
  in
  { id = Obs.fresh_lock_id core.Core.obs; label; line; free_time = 0 }

let create_on ?label (core : Core.t) line =
  let label = match label with Some l -> l | None -> Line.label line in
  { id = Obs.fresh_lock_id core.Core.obs; label; line; free_time = 0 }

let id t = t.id

(* The line write inside a lock operation is the primitive's own traffic:
   suppress its [Write] event and emit one [Acquire]/[Release] (carrying the
   line id, so census still attributes the movement to the line) instead. *)
let quiet_write core t =
  let obs = (core : Core.t).Core.obs in
  Obs.quiet_incr obs;
  Line.write core t.line;
  Obs.quiet_decr obs

let acquire (core : Core.t) t =
  let stats = core.Core.stats in
  stats.Stats.lock_acquires <- stats.Stats.lock_acquires + 1;
  quiet_write core t;
  let now = Core.now core in
  if t.free_time > now then begin
    stats.Stats.lock_contended <- stats.Stats.lock_contended + 1;
    stats.Stats.lock_wait_cycles <-
      stats.Stats.lock_wait_cycles + (t.free_time - now);
    core.Core.clock <- t.free_time
  end;
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Acquire
         {
           core = core.Core.id;
           lock = t.id;
           line = Line.id t.line;
           label = t.label;
           rd = false;
         })

let release (core : Core.t) t =
  quiet_write core t;
  t.free_time <- Core.now core;
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Release
         {
           core = core.Core.id;
           lock = t.id;
           line = Line.id t.line;
           label = t.label;
           rd = false;
         })

let free_time t = t.free_time
