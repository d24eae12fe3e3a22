open Ccsim

(* A node is one cache line holding the range bounds, the next pointer and
   the lock word ([Lock.create_on] shares the line). Exclusion across
   operations is the lock's [free_time] timestamp; [n_busy] is host-side
   bookkeeping that marks a node acquired by an operation still in flight
   (the scheduler runs each operation atomically, so a busy node can only
   be observed by a nested acquisition — a modeled deadlock). *)
type node = {
  n_line : Line.t;
  n_lock : Lock.t;
  mutable n_lo : int;
  mutable n_hi : int;
  mutable n_busy : bool;
}

type t = {
  machine : Machine.t;
  head : Line.t;
  mutable nodes : node list;  (* sorted by [n_lo] *)
  mutable pool : node list;
}

type handle = node

let create machine (core : Core.t) =
  {
    machine;
    head =
      Line.create ~label:"rangelock:head" core.Core.params core.Core.stats
        ~home_socket:core.Core.socket;
    nodes = [];
    pool = [];
  }

let outstanding t = List.length t.nodes
let pooled t = List.length t.pool

(* A released node may be unlinked only once every core's clock has passed
   its release time: a core whose clock still trails it may yet issue an
   acquire (at its earlier simulated time) that must wait on the node.
   The same bound guarantees a recycled node's lock never makes its next
   [Lock.acquire] wait. Reading [clock] directly (not [Core.now]) is
   conservative: pending interrupt charges only push a core's time later. *)
let quiescent_before t =
  let cores = Machine.cores t.machine in
  let m = ref max_int in
  Array.iter
    (fun (c : Core.t) -> if c.Core.clock < !m then m := c.Core.clock)
    cores;
  !m

let overlaps n ~lo ~hi = n.n_lo < hi && lo < n.n_hi

let acquire (core : Core.t) t ~lo ~hi =
  if not (0 <= lo && lo < hi) then invalid_arg "List_lock.acquire: bad range";
  let stats = core.Core.stats in
  (* Entering the list: read the head pointer. *)
  Line.read core t.head;
  let horizon = quiescent_before t in
  (* Traverse: recycle quiescent nodes, read every surviving node's line,
     and collect the latest release time among overlapping holders. *)
  let wait = ref 0 in
  let live =
    List.filter
      (fun n ->
        if (not n.n_busy) && Lock.free_time n.n_lock <= horizon then begin
          t.pool <- n :: t.pool;
          false
        end
        else begin
          Line.read core n.n_line;
          if overlaps n ~lo ~hi then begin
            if n.n_busy then
              invalid_arg
                "List_lock.acquire: range overlaps one held by an operation \
                 still in flight (nested acquisition would deadlock)";
            let ft = Lock.free_time n.n_lock in
            if ft > !wait then wait := ft
          end;
          true
        end)
      t.nodes
  in
  let rec split before after =
    match after with
    | n :: rest when n.n_lo <= lo -> split (n :: before) rest
    | _ -> (before, after)
  in
  let before, after = split [] live in
  (* Publishing the node writes the predecessor's next pointer (the head
     for a front insert) — the list's serialization point. *)
  (match before with
  | p :: _ -> Line.write core p.n_line
  | [] -> Line.write core t.head);
  let node =
    match t.pool with
    | n :: rest ->
        t.pool <- rest;
        n
    | [] ->
        let line =
          Line.create ~label:"rangelock:node" core.Core.params core.Core.stats
            ~home_socket:core.Core.socket
        in
        {
          n_line = line;
          n_lock = Lock.create_on core line;
          n_lo = lo;
          n_hi = hi;
          n_busy = false;
        }
  in
  node.n_lo <- lo;
  node.n_hi <- hi;
  node.n_busy <- true;
  t.nodes <- List.rev_append before (node :: after);
  (* Wait out the overlapping holders, then take our own node's lock (its
     release will carry our exclusion interval). The recycling bound above
     guarantees the lock itself never adds waiting. *)
  let now = Core.now core in
  if !wait > now then begin
    stats.Stats.lock_contended <- stats.Stats.lock_contended + 1;
    stats.Stats.lock_wait_cycles <-
      stats.Stats.lock_wait_cycles + (!wait - now);
    core.Core.clock <- !wait
  end;
  Lock.acquire core node.n_lock;
  node

let release (core : Core.t) _t (node : handle) =
  node.n_busy <- false;
  Lock.release core node.n_lock
