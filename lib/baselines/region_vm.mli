(** The conventional VM design shared by the paper's two baselines: a tree
    of VMA (virtual memory area) objects keyed by start page, one object
    per contiguous mapping; a single shared hardware page table holding the
    canonical page-to-frame bindings; broadcast TLB shootdowns to every
    core that ever used the address space (shared page tables give no usage
    information); and an address-space-wide lock.

    The functor parameters choose the index structure and the locking
    policy, yielding:
    - {!Linux_vm}: red-black tree, read-write lock — page faults take the
      read lock (whose cache line serializes them), mmap/munmap take the
      write lock;
    - {!Bonsai_vm}: COW balanced tree with lock-free lookups — page faults
      take no lock at all, while mmap/munmap serialize on a mutex
      (Clements et al., ASPLOS 2012). *)

open Ccsim

type vma = {
  start : int;
  len : int;
  prot : Vm.Vm_types.prot;
  backing : Vm.Vm_types.backing;
}

(** Index structures usable as a VMA tree. *)
module type INDEX = sig
  type 'v t

  val create : Core.t -> 'v t
  val insert : Core.t -> 'v t -> int -> 'v -> unit
  val remove : Core.t -> 'v t -> int -> bool
  val floor : Core.t -> 'v t -> int -> (int * 'v) option
  val ceiling : Core.t -> 'v t -> int -> (int * 'v) option
  val to_alist : 'v t -> (int * 'v) list
end

(** Address-space locking policies. *)
module type LOCKING = sig
  type lk

  val create : Core.t -> lk
  val read_lock : Core.t -> lk -> unit
  val read_unlock : Core.t -> lk -> unit
  val write_lock : Core.t -> lk -> unit
  val write_unlock : Core.t -> lk -> unit
end

module Make (_ : INDEX) (_ : LOCKING) (_ : sig
  val name : string
end) : sig
  include Vm.Vm_intf.S

  val mmu : t -> Vm.Mmu.t

  val access :
    t -> Core.t -> vpn:int -> write:bool -> Vm.Vm_types.access_result

  val vma_count : t -> int
  (** Live VMA objects (Table 2's "VMA tree" column). *)
end
