(** Timestamped cross-core FIFO queues.

    Used by workloads that hand work between cores (e.g. the pipeline
    microbenchmark passing a mapped region to the next thread). A message
    carries its send time; a receiver cannot observe it earlier. Receiving
    is non-blocking — a workload step that finds the channel empty should
    call {!Machine.wait_hint} and retry on its next step. *)

type 'a t

val create : Core.t -> 'a t
val send : Core.t -> 'a t -> 'a -> unit
val recv : Core.t -> 'a t -> 'a option
