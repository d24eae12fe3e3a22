open Ccsim
module IS = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)

type race = {
  race_line : int;
  race_label : string;
  race_core : int;  (* the core whose access emptied the lockset *)
  race_write : bool;
  race_cores : int list;  (* every core that touched the line *)
}

type held_lock = { hl_lock : int; hl_label : string; hl_rd : bool }

type lock_edge = {
  e_from : int;
  e_from_label : string;
  e_to : int;
  e_to_label : string;
  e_core : int;  (* core that acquired [e_to] while holding [e_from] *)
  e_held : held_lock list;  (* full held stack at that acquisition *)
}

type cycle = lock_edge list
(* A closed path in the lock-order graph: each edge's [e_to] is the next
   edge's [e_from], and the last edge points back at the first. *)

type line_info = {
  li_line : int;
  li_label : string;
  li_readers : int list;
  li_writers : int list;
  li_reads : int;
  li_writes : int;
}

type tlb_violation = {
  tv_unmap_core : int;
  tv_asid : int;
  tv_stale_core : int;
  tv_vpn : int;
  tv_lo : int;
  tv_hi : int;
}

type rc_fault =
  | Inc_after_free
  | Dec_after_free
  | Double_free
  | Negative_count
  | Freed_referenced of int  (* the nonzero count at free time *)

type rc_violation = { rv_oid : int; rv_label : string; rv_core : int; rv_fault : rc_fault }

(* ------------------------------------------------------------------ *)
(* Internal state                                                      *)

(* Eraser's per-line state machine: a line is born Virgin, owned by its
   first core (Exclusive), and only once a second core touches it does the
   candidate lockset start refining. Races are reported when a line that is
   written by several cores ends up with an empty candidate set. *)
type lstate = Virgin | Exclusive of int | Shared | Shared_mod

type line_rec = {
  lr_label : string;
  mutable lr_state : lstate;
  mutable lr_cand : Int_set.t;
      (* candidate lockset. Seeded by pointer from the accessing core's
         held set and refined by intersection, so it shares structure with
         every held set it was derived from. *)
  mutable lr_readers : IS.t;
  mutable lr_writers : IS.t;
  mutable lr_reads : int;
  mutable lr_writes : int;
  mutable lr_raced : bool;  (* one report per line *)
}

type rc_rec = {
  rr_label : string;
  mutable rr_count : int;
  mutable rr_made : bool;  (* saw Rc_make, so rr_count is absolute *)
  mutable rr_freed : bool;
}

(* A core's held locks in one mode: a multiset (count per lock number)
   plus the persistent set of the distinct numbers, edited on 0 -> 1 and
   1 -> 0 count transitions. Range locking holds one lock per radix slot,
   thousands at once under a whole-space operation; a line seeded from
   this set keeps a pointer to it, and successive versions share all but
   one path. *)
type lockset = { counts : int Int_table.t; mutable set : Int_set.t }

(* What only the race detector and the sharing census read. A checker
   attached with [~sharing:false] has none of it. *)
type sharing = {
  lines : line_rec Int_table.t;
  dummy_line_rec : line_rec;
  held_all : lockset array;
      (* per core: every mode. Incremental mirror of [held], so a lockset
         query costs no rebuild from the whole held list. *)
  held_wr : lockset array;
      (* per core: write-mode holds only *)
  mutable races : race list;
}

type t = {
  machine : Machine.t;
  sharing : sharing option;
  held : held_lock list array;  (* per core, most recent acquisition first *)
  mutable numbers : int array;
      (* lock id -> lock number, or -1 before the lock's first acquisition
         while attached. Numbers count 0, 1, 2, ... in order of first
         acquisition, so locksets and findings depend on this checker's
         event stream alone, not on the locks created before it attached.
         Lock ids are dense per machine ({!Obs.fresh_lock_id}), so the
         array doubles until it covers the machine's locks. *)
  mutable nlocks : int;  (* numbers handed out *)
  mutable outs : lock_edge list array;
      (* lock number -> its out-edges in the lock-order graph, newest
         first: at most one per target, the first one recorded *)
  tlb : int Int_table.t array;
      (* per core: [asid lsl 44 lor vpn] keys it may cache (vpns fit 44
         bits — the simulated address space tops out well below that —
         and asids, numbered per machine, stay far below 2^18) *)
  rc : rc_rec Int_table.t;
  dummy_rc : rc_rec;
  mutable tlb_violations : tlb_violation list;
  mutable rc_violations : rc_violation list;
  mutable accesses : int;  (* every line access seen (incl. lock traffic) *)
  mutable wd_horizon : int option;  (* armed livelock watchdog, in cycles *)
  mutable wd_mark : int;  (* simulated time at the last progress feed *)
}

exception
  Livelock of { elapsed : int; horizon : int; dump : string }

let line_rec s line label =
  let r = Int_table.find_default s.lines line s.dummy_line_rec in
  if r != s.dummy_line_rec then r
  else begin
    let r =
      {
        lr_label = label;
        lr_state = Virgin;
        lr_cand = Int_set.empty;
        lr_readers = IS.empty;
        lr_writers = IS.empty;
        lr_reads = 0;
        lr_writes = 0;
        lr_raced = false;
      }
    in
    Int_table.set s.lines line r;
    r
  end

(* The lockset protecting an access: read-mode rwlock acquisitions protect
   only reads (two readers cannot conflict, but a reader does not exclude a
   writer). *)
let held_ls s ~core ~write = if write then s.held_wr.(core) else s.held_all.(core)

let ls_incr ls id =
  let c = Int_table.find_default ls.counts id 0 in
  Int_table.set ls.counts id (c + 1);
  if c = 0 then ls.set <- Int_set.add id ls.set

let ls_decr ls id =
  match Int_table.find_default ls.counts id 0 with
  | 0 -> ()  (* release without acquire: tolerated (attached mid-run) *)
  | 1 ->
      Int_table.remove ls.counts id;
      ls.set <- Int_set.remove id ls.set
  | n -> Int_table.set ls.counts id (n - 1)

let note_census r ~core ~write =
  if write then begin
    r.lr_writers <- IS.add core r.lr_writers;
    r.lr_writes <- r.lr_writes + 1
  end
  else begin
    r.lr_readers <- IS.add core r.lr_readers;
    r.lr_reads <- r.lr_reads + 1
  end

let refine s r ~core ~write =
  r.lr_cand <- Int_set.inter r.lr_cand (held_ls s ~core ~write).set

let report_race s r ~line ~core ~write =
  if (not r.lr_raced) && Int_set.is_empty r.lr_cand then begin
    r.lr_raced <- true;
    s.races <-
      {
        race_line = line;
        race_label = r.lr_label;
        race_core = core;
        race_write = write;
        race_cores = IS.elements (IS.union r.lr_readers r.lr_writers);
      }
      :: s.races
  end

let note_plain s r ~line ~core ~write =
  match r.lr_state with
  | Virgin -> r.lr_state <- Exclusive core
  | Exclusive c when c = core -> ()
  | Exclusive _ ->
      (* Second core: the candidate set starts as this access's lockset,
         shared, not copied. *)
      r.lr_cand <- (held_ls s ~core ~write).set;
      if write then begin
        r.lr_state <- Shared_mod;
        report_race s r ~line ~core ~write
      end
      else r.lr_state <- Shared
  | Shared ->
      refine s r ~core ~write;
      if write then begin
        r.lr_state <- Shared_mod;
        report_race s r ~line ~core ~write
      end
  | Shared_mod ->
      refine s r ~core ~write;
      report_race s r ~line ~core ~write

let note_access t ~line ~label ~core ~write kind =
  t.accesses <- t.accesses + 1;
  match t.sharing with
  | None -> ()
  | Some s -> (
      let r = line_rec s line label in
      note_census r ~core ~write;
      match kind with
      | Obs.Plain -> note_plain s r ~line ~core ~write
      | Obs.Atomic -> ())

(* A lock operation writes the lock's line. *)
let note_lock_line t ~core ~line ~label =
  t.accesses <- t.accesses + 1;
  match t.sharing with
  | None -> ()
  | Some s -> note_census (line_rec s line label) ~core ~write:true

(* [a], doubled until index [i] fits, new slots [fill]. *)
let grow a i fill =
  let len = ref (Array.length a) in
  while !len <= i do
    len := 2 * !len
  done;
  let b = Array.make !len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let number t lock =
  if lock < Array.length t.numbers then t.numbers.(lock) else -1

(* Number a lock at its first acquisition. *)
let fresh_number t lock =
  let n = t.nlocks in
  t.nlocks <- n + 1;
  if lock >= Array.length t.numbers then t.numbers <- grow t.numbers lock (-1);
  t.numbers.(lock) <- n;
  if n >= Array.length t.outs then t.outs <- grow t.outs n [];
  n

(* Top-level, not [List.exists] with a closure, so finding an edge
   already recorded allocates nothing. *)
let rec has_edge_to n = function
  | [] -> false
  | e :: rest -> e.e_to = n || has_edge_to n rest

let note_acquire t ~core ~lock ~line ~label ~rd =
  note_lock_line t ~core ~line ~label;
  let held = t.held.(core) in
  (* One edge from the most recently acquired lock still held suffices:
     a lock below the top of the held list was held when everything above
     it was acquired, so the cumulative graph always contains a path from
     every held lock to the top, and the edge to the new lock extends it —
     reachability, and therefore cycle detection, matches recording an
     edge from every held lock. That full scheme is quadratic in range
     width under [Radix.lock_range] (one slot lock per page) and melts
     down on wide ranges.

     A lock's very first acquisition orders against nothing: nascent
     objects are born locked before they are published ([Radix.expand]
     propagates the range's lock bits into the fresh child's slots while
     the parent slot is still held), so no other core can be waiting on
     such a lock and no deadlock can involve that acquisition. Recording
     it would thread held-stack -> newborn edges through the graph and
     report the birth pattern as a cycle. *)
  let n = number t lock in
  let virgin = n < 0 in
  let n = if virgin then fresh_number t lock else n in
  (match held with
  | h :: _ when (not virgin) && h.hl_lock <> n ->
      let outs = t.outs.(h.hl_lock) in
      if not (has_edge_to n outs) then
        t.outs.(h.hl_lock) <-
          {
            e_from = h.hl_lock;
            e_from_label = h.hl_label;
            e_to = n;
            e_to_label = label;
            e_core = core;
            e_held = held;
          }
          :: outs
  | _ -> ());
  (match t.sharing with
  | None -> ()
  | Some s ->
      ls_incr s.held_all.(core) n;
      if not rd then ls_incr s.held_wr.(core) n);
  t.held.(core) <- { hl_lock = n; hl_label = label; hl_rd = rd } :: held

(* [held] without its entry [h] (compared physically). *)
let rec remove_held h = function
  | [] -> []
  | x :: rest -> if x == h then rest else x :: remove_held h rest

(* Keep the count tables in step with the held entry actually removed. *)
let release_ls t ~core h =
  match t.sharing with
  | None -> ()
  | Some s ->
      ls_decr s.held_all.(core) h.hl_lock;
      if not h.hl_rd then ls_decr s.held_wr.(core) h.hl_lock

let note_release t ~core ~lock ~line ~label =
  note_lock_line t ~core ~line ~label;
  let n = number t lock in
  match t.held.(core) with
  | h :: rest when h.hl_lock = n ->
      (* The usual LIFO release pops the top: no search, no allocation. *)
      t.held.(core) <- rest;
      release_ls t ~core h
  | held -> (
      match List.find_opt (fun h -> h.hl_lock = n) held with
      | Some h ->
          t.held.(core) <- remove_held h held;
          release_ls t ~core h
      | None -> () (* release without acquire: tolerated (attached mid-run) *))

let note_rc t ~core ~oid ~label f =
  let r =
    let r = Int_table.find_default t.rc oid t.dummy_rc in
    if r != t.dummy_rc then r
    else begin
      let r =
        { rr_label = label; rr_count = 0; rr_made = false; rr_freed = false }
      in
      Int_table.set t.rc oid r;
      r
    end
  in
  match f r with
  | None -> ()
  | Some fault ->
      t.rc_violations <-
        { rv_oid = oid; rv_label = r.rr_label; rv_core = core; rv_fault = fault }
        :: t.rc_violations

(* ------------------------------------------------------------------ *)
(* Livelock watchdog. Locks here are time-based, so the host process can
   never deadlock — a wedged simulation shows up as simulated time racing
   ahead with no operation retiring. The driver feeds the watchdog once
   per retired operation; every observed event then checks how far the
   simulated clock has run since the last feed, and past the horizon the
   watchdog trips mid-operation with a dump of every core's held locks
   (the usual prime suspects). *)

let held_dump t =
  let b = Buffer.create 256 in
  Array.iteri
    (fun core held ->
      match held with
      | [] -> ()
      | _ ->
          Buffer.add_string b
            (Printf.sprintf "  core %d holds (innermost first):\n" core);
          List.iter
            (fun h ->
              Buffer.add_string b
                (Printf.sprintf "    lock %d (%s)%s\n" h.hl_lock h.hl_label
                   (if h.hl_rd then " [read]" else "")))
            held)
    t.held;
  if Buffer.length b = 0 then "  (no locks held)\n" else Buffer.contents b

let arm_watchdog t ~horizon =
  if horizon <= 0 then invalid_arg "Check.arm_watchdog";
  t.wd_horizon <- Some horizon;
  t.wd_mark <- Machine.elapsed t.machine

let feed_watchdog t =
  if Option.is_some t.wd_horizon then t.wd_mark <- Machine.elapsed t.machine

let disarm_watchdog t = t.wd_horizon <- None

let wd_check t =
  match t.wd_horizon with
  | None -> ()
  | Some horizon ->
      let elapsed = Machine.elapsed t.machine in
      if elapsed - t.wd_mark > horizon then begin
        (* One-shot: disarm before raising so the unwind (and whatever
           teardown follows) cannot trip it again. *)
        t.wd_horizon <- None;
        raise (Livelock { elapsed; horizon; dump = held_dump t })
      end

let handle t ev =
  wd_check t;
  match ev with
  | Obs.Read { core; line; label; kind } ->
      note_access t ~line ~label ~core ~write:false kind
  | Obs.Write { core; line; label; kind } ->
      note_access t ~line ~label ~core ~write:true kind
  | Obs.Acquire { core; lock; line; label; rd } ->
      note_acquire t ~core ~lock ~line ~label ~rd
  | Obs.Release { core; lock; line; label; rd = _ } ->
      note_release t ~core ~lock ~line ~label
  | Obs.Tlb_fill { core; asid; vpn } ->
      Int_table.set t.tlb.(core) ((asid lsl 44) lor vpn) 1
  | Obs.Tlb_drop { core; asid; vpn } ->
      Int_table.remove t.tlb.(core) ((asid lsl 44) lor vpn)
  | Obs.Unmap_done { core; asid; lo; hi } ->
      (* Staleness is scoped to one address space: another MMU's
         translation for the same vpn on the same core is unrelated. *)
      Array.iteri
        (fun c tbl ->
          Int_table.iter
            (fun key _ ->
              let a = key lsr 44 and vpn = key land ((1 lsl 44) - 1) in
              if a = asid && vpn >= lo && vpn < hi then
                t.tlb_violations <-
                  {
                    tv_unmap_core = core;
                    tv_asid = asid;
                    tv_stale_core = c;
                    tv_vpn = vpn;
                    tv_lo = lo;
                    tv_hi = hi;
                  }
                  :: t.tlb_violations)
            tbl)
        t.tlb
  | Obs.Rc_make { core; oid; init; label } ->
      note_rc t ~core ~oid ~label (fun r ->
          r.rr_count <- init;
          r.rr_made <- true;
          r.rr_freed <- false;
          None)
  | Obs.Rc_inc { core; oid; label } ->
      note_rc t ~core ~oid ~label (fun r ->
          r.rr_count <- r.rr_count + 1;
          if r.rr_freed then Some Inc_after_free else None)
  | Obs.Rc_dec { core; oid; label } ->
      note_rc t ~core ~oid ~label (fun r ->
          r.rr_count <- r.rr_count - 1;
          if r.rr_freed then Some Dec_after_free
          else if r.rr_made && r.rr_count < 0 then Some Negative_count
          else None)
  | Obs.Rc_free { core; oid; label } ->
      note_rc t ~core ~oid ~label (fun r ->
          if r.rr_freed then Some Double_free
          else begin
            r.rr_freed <- true;
            if r.rr_made && r.rr_count <> 0 then
              Some (Freed_referenced r.rr_count)
            else None
          end)

let attach ?(sharing = true) machine =
  let ncores = Machine.ncores machine in
  let dummy_rc =
    { rr_label = ""; rr_count = 0; rr_made = false; rr_freed = false }
  in
  let sharing =
    if not sharing then None
    else begin
      let dummy_line_rec =
        {
          lr_label = "";
          lr_state = Virgin;
          lr_cand = Int_set.empty;
          lr_readers = IS.empty;
          lr_writers = IS.empty;
          lr_reads = 0;
          lr_writes = 0;
          lr_raced = false;
        }
      in
      let fresh_ls () =
        { counts = Int_table.create ~size_hint:64 0; set = Int_set.empty }
      in
      Some
        {
          lines = Int_table.create ~size_hint:4096 dummy_line_rec;
          dummy_line_rec;
          held_all = Array.init ncores (fun _ -> fresh_ls ());
          held_wr = Array.init ncores (fun _ -> fresh_ls ());
          races = [];
        }
    end
  in
  let t =
    {
      machine;
      sharing;
      held = Array.make ncores [];
      numbers = Array.make 256 (-1);
      nlocks = 0;
      outs = Array.make 256 [];
      tlb = Array.init ncores (fun _ -> Int_table.create ~size_hint:64 0);
      rc = Int_table.create ~size_hint:1024 dummy_rc;
      dummy_rc;
      tlb_violations = [];
      rc_violations = [];
      accesses = 0;
      wd_horizon = None;
      wd_mark = 0;
    }
  in
  Obs.set_sink (Machine.obs machine) (Some (handle t));
  t

let detach t = Obs.set_sink (Machine.obs t.machine) None

(* Start a fresh measurement window: clear the sharing census and the
   access counter, keeping every cumulative analysis (race states, lock
   order, the TLB mirror, the refcount ledger) intact. Called at the same
   boundary where a benchmark calls [Stats.reset] — node creation and
   other startup handoffs are excluded from the zero-sharing claim just
   as they are excluded from the paper's steady-state averages. *)
let reset_window t =
  t.accesses <- 0;
  match t.sharing with
  | None -> ()
  | Some s ->
      Int_table.iter
        (fun _ r ->
          r.lr_readers <- IS.empty;
          r.lr_writers <- IS.empty;
          r.lr_reads <- 0;
          r.lr_writes <- 0)
        s.lines

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(* The sharing analyses' state, for a query that reads it. A checker
   attached with [~sharing:false] never built it, so the query has no
   answer; "clean" would be a lie. *)
let sharing_of t query =
  match t.sharing with
  | Some s -> s
  | None -> invalid_arg ("Check." ^ query ^ ": attached with ~sharing:false")

let accesses t = t.accesses
let races t = List.rev (sharing_of t "races").races
let tlb_violations t = List.rev t.tlb_violations
let rc_violations t = List.rev t.rc_violations

(* Locks still recorded as held. Meaningful at quiescence: with every
   operation complete, a non-empty held stack means some operation leaked
   a lock — e.g. an exception path that skipped its unlock/rollback. *)
type leaked_lock = { ll_core : int; ll_lock : int; ll_label : string }

let leaked_locks t =
  let acc = ref [] in
  Array.iteri
    (fun core held ->
      List.iter
        (fun h ->
          acc :=
            { ll_core = core; ll_lock = h.hl_lock; ll_label = h.hl_label }
            :: !acc)
        held)
    t.held;
  List.rev !acc

let rc_count t ~oid =
  let r = Int_table.find_default t.rc oid t.dummy_rc in
  if r != t.dummy_rc && r.rr_made then Some r.rr_count else None

let line_info line r =
  {
    li_line = line;
    li_label = r.lr_label;
    li_readers = IS.elements r.lr_readers;
    li_writers = IS.elements r.lr_writers;
    li_reads = r.lr_reads;
    li_writes = r.lr_writes;
  }

let multi_writer_lines ?(allow = []) t =
  let s = sharing_of t "multi_writer_lines" in
  Int_table.fold
    (fun line r acc ->
      if IS.cardinal r.lr_writers >= 2 && not (List.mem r.lr_label allow) then
        line_info line r :: acc
      else acc)
    s.lines []
  |> List.sort (fun a b -> compare a.li_line b.li_line)

type label_census = {
  lc_label : string;
  lc_lines : int;
  lc_multi_writer : int;  (* lines written by >= 2 cores *)
  lc_reads : int;
  lc_writes : int;
  lc_max_writers : int;
}

let census t =
  let s = sharing_of t "census" in
  let tbl = Hashtbl.create 32 in
  Int_table.iter
    (fun _ r ->
      let c =
        match Hashtbl.find_opt tbl r.lr_label with
        | Some c -> c
        | None ->
            {
              lc_label = r.lr_label;
              lc_lines = 0;
              lc_multi_writer = 0;
              lc_reads = 0;
              lc_writes = 0;
              lc_max_writers = 0;
            }
      in
      let nw = IS.cardinal r.lr_writers in
      Hashtbl.replace tbl r.lr_label
        {
          c with
          lc_lines = c.lc_lines + 1;
          lc_multi_writer = c.lc_multi_writer + (if nw >= 2 then 1 else 0);
          lc_reads = c.lc_reads + r.lr_reads;
          lc_writes = c.lc_writes + r.lr_writes;
          lc_max_writers = Int.max c.lc_max_writers nw;
        })
    s.lines;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  |> List.sort (fun a b -> compare a.lc_label b.lc_label)

(* Lock-order cycles: Tarjan's SCC over the lock-order graph; every SCC
   with at least two locks contains a cycle. Each SCC reports one, with
   every edge's acquisition context: the shortest cycle through its
   lowest-numbered lock, and the SCCs are listed in ascending order of
   that lock. Both searches try a lock's out-edges in ascending order of
   their target, so the report depends on the recorded edges alone, not
   on the order they were recorded in. A breadth-first search from the
   start over the SCC's own edges enters each lock once, by a shortest
   path, so the first edge found back to the start closes a shortest
   cycle, and recovery stays linear in the SCC's edges. (A search that
   remembers only its current path enumerates simple paths, exponentially
   many in a large SCC; a depth-first walk stays linear but can return a
   cycle through nearly every lock of the SCC.) Range locking takes one
   lock per radix slot, so the graph can hold tens of thousands of locks:
   both searches run over int arrays indexed by lock number, and the
   depth-first one keeps its own stack. *)
let no_edge =
  {
    e_from = -1;
    e_from_label = "";
    e_to = -1;
    e_to_label = "";
    e_core = -1;
    e_held = [];
  }

(* Store [outs] from [edges.(i)] on, keeping [edges.(lo)] to the last
   one stored in ascending order of target: an insertion sort, which
   allocates nothing, and out-lists are short. *)
let rec place edges lo i = function
  | [] -> ()
  | e :: outs ->
      let j = ref i in
      while !j > lo && edges.(!j - 1).e_to > e.e_to do
        edges.(!j) <- edges.(!j - 1);
        decr j
      done;
      edges.(!j) <- e;
      place edges lo (i + 1) outs

let cycles t =
  let n = t.nlocks in
  (* Compressed adjacency: lock [v]'s out-edges, in ascending order of
     their target, sit at positions [first.(v)] to [first.(v + 1) - 1] of
     [edges]. *)
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + List.length t.outs.(v)
  done;
  let edges = Array.make first.(n) no_edge in
  for v = 0 to n - 1 do
    place edges first.(v) first.(v) t.outs.(v)
  done;
  (* Tarjan. [comp] is -1 until a lock's SCC is complete, so a visited
     lock is on the SCC stack exactly while its [comp] is -1; a finished
     SCC of two or more locks is marked with its lowest lock, a single
     lock with [n]. *)
  let index = Array.make n (-1) and low = Array.make n 0 in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let next = Array.sub first 0 n in
  let calls = Array.make n 0 and depth = ref 0 in
  let counter = ref 0 in
  let enter v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    calls.(!depth) <- v;
    incr depth
  in
  let finish v =
    decr depth;
    if !depth > 0 then begin
      let u = calls.(!depth - 1) in
      low.(u) <- Int.min low.(u) low.(v)
    end;
    if low.(v) = index.(v) then begin
      let bottom = ref !sp in
      let lowest = ref v in
      while stack.(!bottom - 1) <> v do
        decr bottom;
        lowest := Int.min !lowest stack.(!bottom)
      done;
      decr bottom;
      let c = if !bottom = !sp - 1 then n else !lowest in
      for k = !bottom to !sp - 1 do
        comp.(stack.(k)) <- c
      done;
      sp := !bottom
    end
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while !depth > 0 do
        let v = calls.(!depth - 1) in
        let i = next.(v) in
        if i < first.(v + 1) then begin
          next.(v) <- i + 1;
          let w = edges.(i).e_to in
          if index.(w) < 0 then enter w
          else if comp.(w) < 0 then low.(v) <- Int.min low.(v) index.(w)
        end
        else finish v
      done
    end
  done;
  (* Breadth-first from [start], remembering in [via] the position of the
     edge that first reached each lock. *)
  let via = Array.make n (-1) and queue = Array.make n 0 in
  let shortest start =
    let c = comp.(start) in
    queue.(0) <- start;
    let head = ref 0 and tail = ref 1 and closing = ref (-1) in
    while !closing < 0 do
      let v = queue.(!head) in
      incr head;
      let i = ref first.(v) in
      while !closing < 0 && !i < first.(v + 1) do
        let w = edges.(!i).e_to in
        if w = start then closing := !i
        else if comp.(w) = c && via.(w) < 0 then begin
          via.(w) <- !i;
          queue.(!tail) <- w;
          incr tail
        end;
        incr i
      done
    done;
    let rec path i acc =
      let e = edges.(i) in
      if e.e_from = start then e :: acc else path via.(e.e_from) (e :: acc)
    in
    path !closing []
  in
  let found = ref [] in
  for v = n - 1 downto 0 do
    if comp.(v) = v then found := shortest v :: !found
  done;
  !found

(* Label-level race filtering, the same convention as bench's checked
   wrapper: some structures are lock-free by design (the list range-lock
   backend's ordered list is traversed and spliced before any node lock
   is held), so line-granular Eraser flags their every access. Races on
   labels in [race_allow] are expected; anything else still fails. *)
let filter_races ~race_allow races =
  match race_allow with
  | [] -> races
  | labels ->
      List.filter (fun r -> not (List.mem r.race_label labels)) races

let ok ?allow ?(race_allow = []) t =
  ignore (sharing_of t "ok");
  List.is_empty (filter_races ~race_allow (races t))
  && List.is_empty (cycles t)
  && List.is_empty (tlb_violations t)
  && List.is_empty (rc_violations t)
  && List.is_empty (leaked_locks t)
  && List.is_empty (multi_writer_lines ?allow t)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let pp_int_list ppf l =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    l

let pp_race ppf r =
  Format.fprintf ppf
    "race: line %d (%s) %s by core %d with empty lockset; cores %a" r.race_line
    r.race_label
    (if r.race_write then "written" else "read")
    r.race_core pp_int_list r.race_cores

(* A full-address-space operation can hold thousands of slot locks; cap
   the printed stack so a report stays readable. *)
let pp_held_cap = 8

let pp_held ppf held =
  let n = List.length held in
  let shown = if n > pp_held_cap then List.filteri (fun i _ -> i < pp_held_cap) held else held in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf h ->
      Format.fprintf ppf "lock %d (%s%s)" h.hl_lock h.hl_label
        (if h.hl_rd then ", read-mode" else ""))
    ppf shown;
  if n > pp_held_cap then Format.fprintf ppf ", ... %d more" (n - pp_held_cap)

let pp_edge ppf e =
  Format.fprintf ppf
    "lock %d (%s) -> lock %d (%s) on core %d holding [%a]" e.e_from
    e.e_from_label e.e_to e.e_to_label e.e_core pp_held e.e_held

let pp_cycle ppf c =
  Format.fprintf ppf "lock-order cycle:@,  %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,  ")
       pp_edge)
    c

let pp_tlb_violation ppf v =
  Format.fprintf ppf
    "stale TLB: core %d still caches vpn %d of space %d after core %d \
     unmapped [%d,%d)"
    v.tv_stale_core v.tv_vpn v.tv_asid v.tv_unmap_core v.tv_lo v.tv_hi

let pp_rc_violation ppf v =
  let what =
    match v.rv_fault with
    | Inc_after_free -> "incremented after free"
    | Dec_after_free -> "decremented after free"
    | Double_free -> "freed twice"
    | Negative_count -> "count went negative"
    | Freed_referenced n -> Format.asprintf "freed with count %d" n
  in
  Format.fprintf ppf "refcount: object %d (%s) %s (on core %d)" v.rv_oid
    v.rv_label what v.rv_core

let pp_leaked_lock ppf l =
  Format.fprintf ppf "leaked lock: core %d still holds lock %d (%s)" l.ll_core
    l.ll_lock l.ll_label

let pp_line_info ppf li =
  Format.fprintf ppf "line %d (%s): writers %a, readers %a, %d w / %d r"
    li.li_line li.li_label pp_int_list li.li_writers pp_int_list li.li_readers
    li.li_writes li.li_reads

let pp_census ppf cs =
  Format.fprintf ppf "@[<v 2>sharing census (per label):";
  List.iter
    (fun c ->
      Format.fprintf ppf
        "@,%-18s %6d lines, %4d multi-writer (max %d writers), %9d w, %9d r"
        c.lc_label c.lc_lines c.lc_multi_writer c.lc_max_writers c.lc_writes
        c.lc_reads)
    cs;
  Format.fprintf ppf "@]"

let report ?allow ?(race_allow = []) ppf t =
  ignore (sharing_of t "report");
  let races = filter_races ~race_allow (races t)
  and cycles = cycles t
  and tlbv = tlb_violations t
  and rcv = rc_violations t
  and leaked = leaked_locks t
  and mw = multi_writer_lines ?allow t in
  Format.fprintf ppf "@[<v>check: %d accesses observed@," (accesses t);
  pp_census ppf (census t);
  let section name pp l =
    match l with
    | [] -> Format.fprintf ppf "@,%s: none" name
    | l ->
        Format.fprintf ppf "@,@[<v 2>%s (%d):" name (List.length l);
        List.iter (fun x -> Format.fprintf ppf "@,%a" pp x) l;
        Format.fprintf ppf "@]"
  in
  section "data races" pp_race races;
  section "lock-order cycles" pp_cycle cycles;
  section "stale TLB entries" pp_tlb_violation tlbv;
  section "refcount violations" pp_rc_violation rcv;
  section "leaked locks" pp_leaked_lock leaked;
  section "multi-writer lines outside allowlist" pp_line_info mw;
  Format.fprintf ppf "@,verdict: %s@]"
    (if
       List.is_empty races && List.is_empty cycles && List.is_empty tlbv
       && List.is_empty rcv && List.is_empty leaked && List.is_empty mw
     then "PASS"
     else "FAIL")

(* The one kind of line RadixVM legitimately writes from several cores in a
   disjoint-region workload: radix-tree *node* refcount objects. Every
   core's used-slot deltas flush into the owning node's global count (and
   take its object lock) at epoch boundaries — that is Refcache working as
   designed, O(1) writes per epoch, off the operation fast path. Everything
   else (slot lines, page-table lines, TLB bookkeeping, frame counts,
   free lists) must stay single-writer. *)
let radixvm_allow = [ "radix:node" ]
