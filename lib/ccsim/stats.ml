type t = {
  mutable l1_hits : int;
  mutable transfers_local : int;
  mutable transfers_remote : int;
  mutable dram_fills : int;
  mutable line_stall_cycles : int;
  mutable lock_acquires : int;
  mutable lock_contended : int;
  mutable lock_wait_cycles : int;
  mutable ipis : int;
  mutable shootdown_events : int;
  mutable shootdown_targets : int;
  mutable shootdown_retries : int;
  mutable shootdown_wait_cycles : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable hw_walks : int;
  mutable pagefaults : int;
  mutable fill_faults : int;
  mutable alloc_faults : int;
  mutable frames_allocated : int;
  mutable frames_freed : int;
  mutable mmaps : int;
  mutable munmaps : int;
}

let create () =
  {
    l1_hits = 0;
    transfers_local = 0;
    transfers_remote = 0;
    dram_fills = 0;
    line_stall_cycles = 0;
    lock_acquires = 0;
    lock_contended = 0;
    lock_wait_cycles = 0;
    ipis = 0;
    shootdown_events = 0;
    shootdown_targets = 0;
    shootdown_retries = 0;
    shootdown_wait_cycles = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    hw_walks = 0;
    pagefaults = 0;
    fill_faults = 0;
    alloc_faults = 0;
    frames_allocated = 0;
    frames_freed = 0;
    mmaps = 0;
    munmaps = 0;
  }

let reset t =
  t.l1_hits <- 0;
  t.transfers_local <- 0;
  t.transfers_remote <- 0;
  t.dram_fills <- 0;
  t.line_stall_cycles <- 0;
  t.lock_acquires <- 0;
  t.lock_contended <- 0;
  t.lock_wait_cycles <- 0;
  t.ipis <- 0;
  t.shootdown_events <- 0;
  t.shootdown_targets <- 0;
  t.shootdown_retries <- 0;
  t.shootdown_wait_cycles <- 0;
  t.tlb_hits <- 0;
  t.tlb_misses <- 0;
  t.hw_walks <- 0;
  t.pagefaults <- 0;
  t.fill_faults <- 0;
  t.alloc_faults <- 0;
  t.frames_allocated <- 0;
  t.frames_freed <- 0;
  t.mmaps <- 0;
  t.munmaps <- 0

let total_transfers t = t.transfers_local + t.transfers_remote

let pp ppf t =
  Format.fprintf ppf
    "@[<v>l1 hits          %d@,\
     transfers local  %d@,\
     transfers remote %d@,\
     dram fills       %d@,\
     line stall cyc   %d@,\
     lock acq/cont    %d/%d (wait %d cyc)@,\
     ipis             %d (%d rounds, %d targets, %d retries, wait %d cyc)@,\
     tlb hit/miss     %d/%d (hw walks %d)@,\
     faults           %d (fill %d, alloc %d)@,\
     frames +/-       %d/%d@,\
     mmap/munmap      %d/%d@]"
    t.l1_hits t.transfers_local t.transfers_remote t.dram_fills
    t.line_stall_cycles t.lock_acquires t.lock_contended t.lock_wait_cycles
    t.ipis t.shootdown_events t.shootdown_targets t.shootdown_retries
    t.shootdown_wait_cycles
    t.tlb_hits t.tlb_misses t.hw_walks t.pagefaults t.fill_faults
    t.alloc_faults t.frames_allocated t.frames_freed t.mmaps t.munmaps
