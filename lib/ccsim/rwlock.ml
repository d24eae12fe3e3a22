type t = {
  id : int;
  label : string;
  line : Line.t;
  mutable writer_free : int;  (* time the last writer released *)
  mutable readers_free : int;  (* latest reader release time *)
}

let create ?(label = "rwlock") (core : Core.t) =
  let line =
    Line.create ~label core.Core.params core.Core.stats
      ~home_socket:core.Core.socket
  in
  { id = Obs.fresh_lock_id (); label; line; writer_free = 0; readers_free = 0 }

let id t = t.id
let label t = t.label

let quiet_write (core : Core.t) t =
  let obs = core.Core.obs in
  Obs.quiet_incr obs;
  Line.write core t.line;
  Obs.quiet_decr obs

let charge_acquire (core : Core.t) t wait_until =
  let stats = core.Core.stats in
  stats.Stats.lock_acquires <- stats.Stats.lock_acquires + 1;
  quiet_write core t;
  let now = Core.now core in
  if wait_until > now then begin
    stats.Stats.lock_contended <- stats.Stats.lock_contended + 1;
    stats.Stats.lock_wait_cycles <-
      stats.Stats.lock_wait_cycles + (wait_until - now);
    core.Core.clock <- wait_until
  end

(* Built only when a sink listens: with none, no event is allocated. *)
let emit_acquire (core : Core.t) t ~rd =
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Acquire
         {
           core = core.Core.id;
           lock = t.id;
           line = Line.id t.line;
           label = t.label;
           rd;
         })

let emit_release (core : Core.t) t ~rd =
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Release
         {
           core = core.Core.id;
           lock = t.id;
           line = Line.id t.line;
           label = t.label;
           rd;
         })

let read_acquire (core : Core.t) t =
  charge_acquire core t t.writer_free;
  emit_acquire core t ~rd:true

let read_release (core : Core.t) t =
  quiet_write core t;
  t.readers_free <- Int.max t.readers_free (Core.now core);
  emit_release core t ~rd:true

let write_acquire (core : Core.t) t =
  charge_acquire core t (Int.max t.writer_free t.readers_free);
  emit_acquire core t ~rd:false

let write_release (core : Core.t) t =
  quiet_write core t;
  t.writer_free <- Core.now core;
  emit_release core t ~rd:false
