(** Dynamic concurrency checking over the simulator's event stream.

    The simulator is deterministic and every shared-memory access already
    funnels through {!Ccsim.Line} and {!Ccsim.Lock}; attaching a checker
    turns each run into a machine-checked proof obligation. Five analyses
    run simultaneously over one event stream:

    - a {b lockset race detector} (Eraser-style): per-line candidate-lockset
      intersection across cores; any cross-core access to a write-shared
      line with an empty lockset is reported. Accesses tagged [Atomic]
      (modeled cmpxchg / fetch-add protocols) are exempt;
    - a {b lock-order graph} with cycle detection: acquiring B while
      holding A adds edge A->B; a cycle is a potential deadlock, reported
      with the acquisition context of every edge;
    - a {b zero-sharing verifier}: {!multi_writer_lines} lists every line
      written by more than one core outside an explicit allowlist, and
      {!census} breaks sharing down per label — this turns the paper's
      disjoint-operations claim into a pass/fail check;
    - a {b TLB coherence checker}: an exact mirror of every core's TLB is
      maintained from fill/drop events; when a VM emits [Unmap_done] after
      a shootdown round, no core may still cache a translation for the
      range;
    - a {b Refcache invariant checker}: a ledger of every object's count
      from [Rc_make]/[Rc_inc]/[Rc_dec]/[Rc_free] events; objects must be
      freed exactly once, at count zero, and never touched after free.

    Attach before the run ([Check.attach machine]), query or
    [Check.report] after. Detaching restores the zero-cost uninstrumented
    path.

    The race detector and the zero-sharing verifier cost the most: a
    lock's acquire and release edit the core's held locksets, and every
    access to a shared line intersects its candidate set with them. A
    caller that reads neither attaches with [~sharing:false] and keeps
    the other three analyses, the {!leaked_locks} query and the
    watchdog.

    Findings name a lock by its number in this checker: locks are
    numbered 0, 1, 2, ... in the order of their first acquisition while
    attached, so a report depends on the run alone, not on how many
    locks the process created before it. They name an address space by
    its id on the machine ({!Ccsim.Obs.fresh_asid}), which likewise
    counts from 0 on every machine. *)

type t

val attach : ?sharing:bool -> Ccsim.Machine.t -> t
(** Install the checker as the machine's event sink. At most one checker
    can be attached to a machine at a time (a second [attach] replaces the
    first). [sharing] (default [true]) runs the lockset race detector and
    the sharing census. With [~sharing:false], {!races}, {!census},
    {!multi_writer_lines}, {!ok} and {!report} raise [Invalid_argument];
    every other query answers as on a full checker. *)

val detach : t -> unit

val reset_window : t -> unit
(** Start a fresh measurement window: clear the sharing census (per-line
    reader/writer sets and counts) and the {!accesses} counter while
    keeping every cumulative analysis — race states, the lock-order
    graph, the TLB mirror, the refcount ledger — intact. Call it exactly
    where the benchmark calls [Stats.reset] (the warmup/measure
    boundary): one-time initialization handoffs, such as a radix node
    being born with its lock bits set by the creating core, are startup
    effects the paper's steady-state zero-sharing claim excludes. *)

(** {1 Livelock watchdog}

    The simulator's locks are time-based, so the host process can never
    deadlock: a wedged simulation (every core spinning on a lock that is
    never freed, an IPI storm that starves progress) shows up as the
    simulated clock racing ahead while no operation retires. The watchdog
    makes that observable: the session driver {!feed_watchdog}s it once
    per retired operation, and every event the checker observes compares
    the machine's elapsed simulated time against the last feed. Past the
    horizon, {!Livelock} is raised from inside the wedged operation with
    a dump of every core's held locks. The watchdog disarms itself before
    raising (one-shot), so the unwind cannot trip it again; note the
    simulation is mid-operation at that point — the session should be
    abandoned, not torn down. *)

exception Livelock of { elapsed : int; horizon : int; dump : string }
(** [elapsed] is the machine's simulated time when the watchdog tripped,
    [horizon] the armed limit, [dump] a human-readable listing of every
    core's held locks (empty stacks omitted). *)

val arm_watchdog : t -> horizon:int -> unit
(** Trip {!Livelock} if more than [horizon] simulated cycles pass without
    a {!feed_watchdog}. [horizon] must be positive and should comfortably
    exceed the longest legitimate operation (IPI retry backoff included —
    tens of millions of cycles under heavy fault plans). *)

val feed_watchdog : t -> unit
(** Mark progress (an operation retired): restart the horizon. *)

val disarm_watchdog : t -> unit

(** {1 Findings} *)

type race = {
  race_line : int;
  race_label : string;
  race_core : int;  (** the core whose access emptied the lockset *)
  race_write : bool;
  race_cores : int list;  (** every core that touched the line *)
}

type held_lock = {
  hl_lock : int;  (** the lock's number in this checker *)
  hl_label : string;
  hl_rd : bool;
}

type leaked_lock = { ll_core : int; ll_lock : int; ll_label : string }
(** A lock some core acquired and never released (see {!leaked_locks});
    [ll_lock] is its number in this checker. *)

type lock_edge = {
  e_from : int;  (** lock number, as [e_to] *)
  e_from_label : string;
  e_to : int;
  e_to_label : string;
  e_core : int;  (** core that acquired [e_to] while holding [e_from] *)
  e_held : held_lock list;  (** full held stack at that acquisition *)
}

type cycle = lock_edge list
(** A closed path in the lock-order graph: each edge's [e_to] is the next
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
      (** the address space the unmap happened in, by its id on the
          machine *)
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
  | Freed_referenced of int  (** the nonzero count at free time *)

type rc_violation = {
  rv_oid : int;
  rv_label : string;
  rv_core : int;
  rv_fault : rc_fault;
}

type label_census = {
  lc_label : string;
  lc_lines : int;
  lc_multi_writer : int;  (** lines written by >= 2 cores *)
  lc_reads : int;
  lc_writes : int;
  lc_max_writers : int;
}

(** {1 Queries} *)

val races : t -> race list
(** Cross-core accesses to write-shared lines with an empty lockset, in
    discovery order; at most one per line. Needs [sharing]. *)

val cycles : t -> cycle list
(** One cycle per strongly-connected component of the lock-order graph:
    a shortest cycle through the component's first-discovered lock.
    Empty means the acquisition order is a partial order — no potential
    deadlock was observed. A lock's very first acquisition records no
    edge: nascent objects are born locked before they are published (see
    [Radix.expand]), so nothing can wait on that acquisition and it
    cannot participate in a deadlock. *)

val multi_writer_lines : ?allow:string list -> t -> line_info list
(** Lines written by two or more cores whose label is not in [allow]. For
    a disjoint-region workload on RadixVM this must be empty with
    [~allow:radixvm_allow] — the paper's zero-sharing claim. Needs
    [sharing]. *)

val census : t -> label_census list
(** Per-label sharing summary, sorted by label. Needs [sharing]. *)

val tlb_violations : t -> tlb_violation list
(** Translations still cached by some core after the range's unmap (and
    its shootdown round) completed. *)

val rc_violations : t -> rc_violation list

val leaked_locks : t -> leaked_lock list
(** Locks still held according to the acquire/release stream. Meaningful
    at quiescence (every operation complete): a leaked lock means some
    exception path skipped its unlock — the checker that catches a VM
    operation whose rollback was skipped. *)

val rc_count : t -> oid:int -> int option
(** The ledger's current count for object [oid] (as returned by
    {!Refcnt.Refcache.oid}); [None] if its creation was not observed.
    Cross-validate against [Refcache.true_count]. *)

val accesses : t -> int
(** Total line accesses observed — every read, write, and lock operation.
    Equals the machine's [l1_hits + transfers + dram_fills] accumulated
    while attached (the checker and the cost model see the same stream). *)

val ok : ?allow:string list -> ?race_allow:string list -> t -> bool
(** No races outside [race_allow], no lock-order cycles, no stale TLB
    entries, no refcount violations, no leaked locks, and no multi-writer
    lines outside [allow]. [race_allow] names line {e labels} whose
    concurrency discipline the line-granular lockset analysis cannot
    express — e.g. the list range-lock backend's ordered list, which is
    traversed and spliced lock-free by design. Default: no filtering.
    Needs [sharing]. *)

val radixvm_allow : string list
(** The documented allowlist for RadixVM on disjoint-region workloads:
    [["radix:node"]]. Radix-tree node {e refcount objects} are the one
    structure legitimately written from several cores — each core's
    used-slot deltas flush into the owning node's global count (taking its
    object lock) at Refcache epoch boundaries. That is O(1) traffic per
    core per epoch, off the operation fast path, and exactly the sharing
    the paper's design accepts. Slot lines, page-table lines, frame
    counts, and free lists must stay single-writer. *)

(** {1 Reporting} *)

val report :
  ?allow:string list -> ?race_allow:string list -> Format.formatter -> t ->
  unit
(** Human-readable report: access total, per-label census, then each
    analysis's findings and a PASS/FAIL verdict ([allow] as in
    {!multi_writer_lines}, [race_allow] as in {!ok}). Needs [sharing]. *)

val pp_cycle : Format.formatter -> cycle -> unit
val pp_tlb_violation : Format.formatter -> tlb_violation -> unit
val pp_rc_violation : Format.formatter -> rc_violation -> unit
val pp_leaked_lock : Format.formatter -> leaked_lock -> unit
val pp_line_info : Format.formatter -> line_info -> unit
