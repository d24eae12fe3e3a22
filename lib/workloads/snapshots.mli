(** Table 2: memory overhead of address-space representations.

    The paper snapshots the VM state of four applications (Firefox,
    Chrome, Apache, MySQL) and compares Linux's representation (compact
    VMA objects in a red-black tree, plus the shared hardware page table
    holding physical-page bindings) against RadixVM's radix tree (which
    stores metadata and page bindings together).

    We cannot snapshot those binaries, so each profile is a synthetic
    layout generator calibrated to the paper's reported numbers: VMA
    count, resident set size, and mapped-region size distribution. The
    measurement itself is real: the layout is loaded into an actual
    Linux-baseline VM and an actual RadixVM instance, and the reported
    bytes come from their live data structures. *)

type profile = {
  name : string;
  vma_count : int;  (** number of mapped regions *)
  rss_pages : int;  (** resident (faulted) pages *)
  seed : int;
}

val apache : profile
val mysql : profile
val all : profile list

type row = {
  profile : profile;
  rss_bytes : int;
  linux_vma_bytes : int;
  linux_pt_bytes : int;
  radix_bytes : int;
  ratio : float;  (** radix / (vma + pt), the paper's "(rel. to Linux)" *)
}

val measure : profile -> row
val pp_row : Format.formatter -> row -> unit
