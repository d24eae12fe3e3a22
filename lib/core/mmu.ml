open Ccsim

type t = {
  asid : int;  (* tags this address space's TLB events *)
  pt : Page_table.t;
  tlbs : Tlb.t array;
}

let create machine kind =
  let params = Machine.params machine and obs = Machine.obs machine in
  let asid = Obs.fresh_asid obs in
  {
    asid;
    pt = Page_table.create machine kind;
    tlbs =
      Array.init (Machine.ncores machine) (fun i ->
          Tlb.create ~obs ~core:i ~asid
            ~capacity:params.Params.tlb_entries ());
  }

let asid t = t.asid
let kind t = Page_table.kind t.pt
let page_table t = t.pt

type translation = Hit of int | Miss | Prot_fault of int

let translate t (core : Core.t) ~vpn ~write =
  let stats = core.Core.stats and params = core.Core.params in
  let packed = Tlb.lookup_packed t.tlbs.(core.Core.id) vpn in
  if packed >= 0 then begin
    stats.Stats.tlb_hits <- stats.Stats.tlb_hits + 1;
    Core.tick core params.Params.tlb_hit;
    let pfn = packed lsr 1 in
    if write && packed land 1 = 0 then Prot_fault pfn else Hit pfn
  end
  else begin
    stats.Stats.tlb_misses <- stats.Stats.tlb_misses + 1;
    Core.tick core params.Params.hw_walk_base;
    let packed = Page_table.find_packed t.pt core ~vpn in
    if packed < 0 then Miss
    else begin
      stats.Stats.hw_walks <- stats.Stats.hw_walks + 1;
      let pfn = packed lsr 1 and writable = packed land 1 = 1 in
      Tlb.insert t.tlbs.(core.Core.id) ~vpn ~pfn ~writable;
      if write && not writable then Prot_fault pfn else Hit pfn
    end
  end

let install t (core : Core.t) ~vpn ~pfn ~writable =
  Page_table.install t.pt core ~vpn ~pfn ~writable;
  Tlb.insert t.tlbs.(core.Core.id) ~vpn ~pfn ~writable

let drop_for_core t ~owner ~lo ~hi =
  Page_table.clear_range t.pt ~owner ~lo ~hi (fun _ _ -> ());
  Tlb.invalidate_range t.tlbs.(owner) ~lo ~hi

let drop_tlb_range t ~owner ~lo ~hi =
  Tlb.invalidate_range t.tlbs.(owner) ~lo ~hi

let discard_for_core t ~owner =
  Page_table.clear_range t.pt ~owner ~lo:0 ~hi:max_int (fun _ _ -> ());
  Tlb.flush t.tlbs.(owner)

let tlb_mem t ~core ~vpn = Tlb.mem t.tlbs.(core) vpn

let pt_entry t ~core ~vpn = Page_table.peek t.pt ~owner:core ~vpn
