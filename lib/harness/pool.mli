(** A Domains-backed worker pool for embarrassingly parallel benchmark
    sweeps.

    Every (system, core-count) simulation in the evaluation is independent
    and deterministic, so the harness can run them on however many host
    cores are available without changing a single result. A sweep is
    expressed as a list of {!job}s — [(name, thunk)] pairs producing one
    result row each — and {!run} returns the rows {e in submission order}
    regardless of completion order, so tables and JSON artifacts are
    byte-identical for any [~jobs].

    Jobs must not print and must not share mutable state (each builds its
    own simulated machine); the process-global id counters in {!Ccsim.Obs}
    and {!Refcnt.Refcache} are atomic precisely so concurrent jobs cannot
    corrupt each other's event streams. *)

type 'a job = { name : string; run : unit -> 'a }

val job : name:string -> (unit -> 'a) -> 'a job

exception Job_failed of string * exn
(** Raised by {!run} when a job raises: carries the job's name and the
    original exception. The first failing job in submission order wins. *)

val default_jobs : unit -> int
(** The host's useful parallelism: [Domain.recommended_domain_count ()],
    at least 1. *)

val clamp_jobs : int -> int
(** [clamp_jobs j] bounds an explicitly requested [--jobs j] by the
    host: [min j (default_jobs ())], at least 1. The CLI drivers route
    their [--jobs] through this once; library code runs the width it is
    given. *)

val run : ?jobs:int -> 'a job list -> 'a list
(** [run ~jobs js] executes every job and returns their results in the
    order the jobs were given. [jobs <= 1] (or a single-job list) runs
    everything serially in the calling domain — exactly the pre-pool
    behaviour; larger values spawn [jobs - 1] worker domains (the caller
    participates as the last worker) pulling jobs off a shared atomic
    cursor. [jobs] defaults to {!default_jobs}, and is clamped to the
    number of jobs. *)
