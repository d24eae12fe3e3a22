(** The Figures 6 and 7 workload: concurrent index lookups contending with
    inserts and deletes on disjoint keys.

    An address space with 1,000 mapped regions is simulated. Reader cores
    continuously look up a random present key (like a page fault); writer
    cores continuously insert a random absent key and delete it again (like
    an mmap/munmap pair). Readers and writers never touch the same keys —
    any slowdown is pure cache-line interference, which is the point:
    the skip list's interior writes degrade readers (Figure 6) while the
    radix tree's initialized interior is never written (Figure 7). *)

type result = {
  structure : string;
  readers : int;
  writers : int;
  lookups : int;
  lookups_per_sec : float;
  write_pairs : int;  (** insert+delete pairs completed *)
  write_pairs_per_sec : float;
}

val skiplist : readers:int -> writers:int -> duration:int -> unit -> result
val radix : readers:int -> writers:int -> duration:int -> unit -> result
(** Each builds a fresh machine with [readers + writers] cores, fills the
    index, and measures [duration] simulated cycles. *)
