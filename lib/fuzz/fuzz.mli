(** Seeded random-operation fuzzer for the VM stack, with record/replay
    and a failing-case shrinker.

    One {e session} drives a stream of VM operations (mmap / munmap /
    mprotect / store / load / touch / fork / exit / page-table discard)
    across the cores of one simulated machine, under a randomly drawn
    fault schedule (finite frame budget, delayed or stalled IPI acks,
    mid-operation aborts, and — opt-in — mid-critical-section crashes),
    and cross-checks every result against a trivial oracle model — a
    per-process hash table of what should be mapped, with what protection
    and contents. Failed operations ([Error Enomem] /
    [Error (Aborted _)]) must be no-ops; that is exactly the
    graceful-degradation contract the fuzzer verifies. A crashed
    operation ({!Ccsim.Fault.Injected_crash}) is the opposite contract:
    it must {e not} unwind — the session reaps the dead process
    ({!Vm.Radixvm}[.Make.reap]) and asserts the survivors are untouched,
    no locks leaked, at the moment of maximum damage.

    Everything — the operation stream, the fault plan, the simulator —
    derives from [config.seed], so a session is replayed exactly by
    re-running the same configuration, and {!run_session} returns a
    byte-deterministic transcript (the property `dune build @fuzz-smoke`
    and the determinism test pin down). Beyond that, every session
    {e records} itself: the outcome carries an explicit {!program} — the
    resolved fault plan plus every executed operation with its concrete
    parameters — which {!run_program} replays byte-identically,
    {!program_to_string}/{!program_of_string} round-trip through a repro
    file, and {!shrink} delta-debugs to a minimal reproducer. *)

type config = {
  seed : int;
  ops : int;  (** operations per session *)
  ncores : int;  (** simulated cores (clamped to at least 2) *)
  check : bool;  (** attach the {!Check} dynamic analyses *)
  verbose : bool;  (** one transcript line per operation *)
  broken : bool;
      (** known-bad mode: skip rollback on injected aborts
          ({!Ccsim.Fault.set_break_rollback}) — the session must FAIL;
          used to prove the oracle and checkers catch a missing
          rollback *)
  rangelock : Locks.Range_lock.kind;
      (** range-lock backend for every process's address space (forked
          children inherit it). The default ([Radix_embedded]) keeps
          transcripts byte-identical with earlier versions; the other
          backends reuse the same frozen operation stream, so the whole
          alphabet (including fork teardown and abort rollback) runs
          against each backend. *)
  crash : bool;
      (** draw crash rules into the fault plan: each of mmap / munmap /
          mprotect / pagefault / fork gets a small per-injection-point
          probability of raising {!Ccsim.Fault.Injected_crash}. The
          session reaps each dead process and asserts recovery left the
          survivors oracle-clean. Off by default — the crash draws come
          after every legacy plan draw, so crash-free configs keep the
          frozen rng sequence (golden digest). *)
  watchdog : int option;
      (** livelock horizon in simulated cycles: arm
          {!Check.arm_watchdog} and feed it once per retired operation;
          a session that stops retiring operations for this many cycles
          is declared livelocked (FAIL, with a held-lock dump in the
          transcript) and abandoned. Requires [check]. [None] (default)
          disarms. *)
}

val default : config
(** seed 0, 600 ops, 4 cores, checker attached, quiet, not broken,
    radix-embedded range locks, no crash rules, no watchdog. *)

(** {1 Reified sessions}

    A {!program} is a session made explicit: the resolved fault plan and
    the exact operation stream, each operation carrying the concrete
    parameters the generator drew (process, core, vpns, values). Replay
    needs no session rng — it executes the list — so a program survives
    editing: ops can be deleted, the plan trimmed, the core count
    reduced, and the result is still a valid (if different) session.
    That editability is what the shrinker exploits. *)

type op =
  | Nop
      (** a generated iteration that took no action; recorded so replay
          drains the machine and checks invariants at the same
          operation indices as generation (drain timing feeds back into
          frame reclamation, so it must be preserved for byte-identical
          replay) *)
  | Mmap of { p : int; c : int; lo : int; len : int; ro : bool }
  | Munmap of { p : int; c : int; lo : int; len : int }
  | Mprotect of { p : int; c : int; lo : int; len : int; ro : bool }
  | Store of { p : int; c : int; vpn : int; value : int }
  | Load of { p : int; c : int; vpn : int }
  | Touch of { p : int; c : int; vpn : int }
  | Discard of { p : int; c : int }
  | Fork of { p : int; c : int; child : int }
      (** [child] is the id the new process will get (pre-reserved by the
          generator, so ids stay stable under replay even when a crash
          kills the fork) *)
  | Exit of { c : int; victim : int }  (** [victim] is a process id *)
  | Spawn of { id : int }
      (** recreate a fresh process (recorded when a crash killed the last
          one); does not advance the drain counter *)

type rule_spec = {
  rs_op : string;  (** "mmap", "munmap", "mprotect", "pagefault", "fork" *)
  rs_point : string option;  (** injection point, [None] = every point *)
  rs_prob : float;
}

type plan_spec = {
  ps_budget : int option;  (** frame budget *)
  ps_delayed : (int * int) list;  (** (core, IPI-ack delay cycles) *)
  ps_stalled : int list;  (** cores that never ack IPIs *)
  ps_aborts : rule_spec list;
  ps_crashes : rule_spec list;
}

type program = {
  pr_seed : int;  (** seeds the {e fault plan's} rng (firing decisions) *)
  pr_ncores : int;
  pr_check : bool;
  pr_broken : bool;
  pr_rangelock : Locks.Range_lock.kind;
  pr_watchdog : int option;
  pr_plan : plan_spec;
  pr_ops : op list;
}

type outcome = {
  transcript : string;
      (** deterministic: same [config] (or same [program]) ⇒ same bytes.
          Includes the fault plan, any failures, and a summary with
          injection counters. Replaying an unmodified recorded program
          reproduces the generating session's transcript byte for
          byte. *)
  passed : bool;
  failures : string list;  (** oldest first; empty iff [passed] *)
  crashes : int;  (** processes killed by injected crashes (and reaped) *)
  livelocked : bool;
      (** the watchdog tripped: the session was abandoned mid-operation
          (no teardown, no end-of-run checker queries) *)
  program : program;
      (** the session, reified: what was (or would be, for a replay)
          executed. Serialize with {!program_to_string} for a repro
          artifact. *)
}

val run_session : config -> outcome
(** Run one session to completion (including teardown: every process
    destroyed, epochs drained, zero live frames demanded). Never raises —
    oracle mismatches, invariant violations, checker findings, crashes
    that reap badly, and livelocks are reported in the outcome, each
    tagged with the seed that replays them. *)

val run_program : ?verbose:bool -> program -> outcome
(** Replay a reified session: no operation generation, no session rng —
    the listed ops execute in order against a fresh machine configured
    from [pr_plan]. Operations naming processes that do not exist (dead
    after an edit moved a crash, or never forked after an edit dropped
    the fork) are skipped and counted in the transcript's summary line.
    Core ids are taken mod the core count, and plan entries for
    out-of-range cores are dropped, so reduced programs stay valid. *)

(** {1 Sharded worlds} *)

type world_outcome = {
  w_transcript : string;
      (** world header + cross-node spawn schedule + every node's session
          transcript in node order + a world verdict line. A pure
          function of the configuration and node count — byte-identical
          at any [jobs] width, which the golden test pins at widths 1, 2,
          and 4. *)
  w_passed : bool;
  w_failures : string list;  (** each tagged ["node N: ..."] *)
  w_spawns : int;  (** cross-node spawn injections in the schedule *)
  w_outcomes : outcome list;  (** per-node outcomes, node order *)
}

val run_world : ?jobs:int -> nodes:int -> config -> world_outcome
(** Run a world of [nodes] coupled sessions: node [n] runs an ordinary
    session with seed [cfg.seed + 7919*n], plus a static cross-node
    spawn schedule — per-node rngs (independent of every session rng)
    decide at which barrier indices (every 97th counted op, the drain
    period) a node asks its successor to spawn a fresh process there,
    executed as an ordinary recorded {!Spawn} op so a node's repro
    artifact replays standalone. The node sessions run on a
    {!Harness.Pool} of [jobs] domains (default
    {!Harness.Pool.default_jobs}; the width is used as given); since the
    schedule is fixed up front the sessions are embarrassingly parallel
    and the outcome is independent of [jobs]. [nodes = 1] degenerates to
    exactly {!run_session} wrapped in the world envelope. *)

(** {1 Repro files} *)

val program_to_string : program -> string
(** A line-oriented, hand-editable serialization, terminated by an ["end"]
    line. Probabilities use hexadecimal float literals ([%h]) so the
    round-trip is bit-exact — a re-serialized program never drifts.
    Anything after the ["end"] line is ignored by the parser, so a repro
    file can carry the failing transcript as an appendix. *)

val program_of_string : string -> (program, string) result
(** Inverse of {!program_to_string} (modulo comments and blank lines).
    [Error] carries a message naming the offending line. *)

val write_artifact : string -> outcome -> unit
(** [write_artifact path o] writes [o]'s program as a repro file at
    [path], with [o]'s transcript appended as comments. *)

(** {1 Shrinking} *)

val shrink :
  ?log:(string -> unit) -> program -> (program, string) result
(** Delta-debug a failing program to a minimal reproducer that still
    fails. Four passes iterate to a fixpoint (at most five rounds):
    fault-plan entries the failure does not depend on are stripped;
    surviving probabilistic abort/crash rules are pinned to
    deterministic point-specific probability-1.0 forms (so the failure
    stops depending on the plan rng); the op stream is reduced by ddmin
    (complement reduction, 1-minimal on termination); and the core count
    is lowered to the smallest that still fails. Every candidate is
    validated by an actual replay, and every pass is deterministic, so
    the same failure always shrinks to the same reproducer.
    [Error] if [program] does not fail in the first place. [log]
    receives one progress line per round. *)
