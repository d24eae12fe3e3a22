(** Metis: a single-server multithreaded MapReduce computing a word
    position index (section 5.2), scaled down for the simulator.

    One worker per core. The Map phase hashes each input word into one of
    [ncores] partitions and appends a (word, position) entry to the
    per-(mapper, reducer) bucket, allocating bucket pages from the
    {!Block_alloc} allocator — every append touches the entry's page, every
    bucket growth may mmap. The Reduce phase has each reducer walk every
    mapper's bucket for its partition (touching pages another core faulted
    — the pairwise sharing pattern) and build its output table from freshly
    allocated pages. Memory is never returned to the OS, so the workload
    stresses mmap and pagefault but not munmap, exactly as the paper says.

    The allocation unit selects the experiment: 8 MB blocks make the run
    pagefault-bound, 64 KB blocks make it mmap-bound (Figure 4's two
    families of curves). The metric is jobs/hour of simulated time. *)

type report = {
  vm_name : string;
  ncores : int;
  unit_pages : int;
  job_cycles : int;
  jobs_per_hour : float;
  mmaps : int;
  pagefaults : int;
  ipis : int;
}

module Make (V : Vm.Vm_intf.S) : sig
  val run :
    ?total_words:int ->
    unit_pages:int ->
    ncores:int ->
    (Ccsim.Machine.t -> V.t) ->
    report
  (** Run one complete job (map + reduce) on a fresh machine. The input is
      [total_words] words split evenly across workers (default 200_000 —
      scaled from the paper's 4 GB input to simulator scale). *)
end
