open Ccsim

type kind = Per_core | Shared | Grouped of int

type pte = { pfn : int; writable : bool }

(* A table per "domain": one per core, one per group of cores, or one for
   the whole machine. PTEs are packed eight per cache line within a
   domain, so walks and installs by different cores of the same domain
   contend realistically; a per-core domain's lines are only ever touched
   by their core and stay in its cache.

   Both maps are open-addressed int tables ({!Ccsim.Int_table}): a PTE
   packs as [pfn lsl 1 lor writable] (absent = [-1]), so the walk that
   every simulated memory access performs neither hashes nor allocates. *)
type t = {
  kind : kind;
  machine : Machine.t;
  maps : int Int_table.t array;  (* per domain: vpn -> packed pte *)
  lines : Line.t Int_table.t;  (* (domain, vpn group) -> line *)
  dummy_line : Line.t;
}

let domains_of machine = function
  | Per_core -> Machine.ncores machine
  | Shared -> 1
  | Grouped g ->
      if g <= 0 then invalid_arg "Page_table: group size";
      (Machine.ncores machine + g - 1) / g

let create machine kind =
  let params = Machine.params machine in
  let dummy_line =
    Line.create ~label:"pt:none" params (Machine.stats machine) ~home_socket:0
  in
  {
    kind;
    machine;
    maps =
      Array.init (domains_of machine kind) (fun _ ->
          Int_table.create ~size_hint:256 (-1));
    lines = Int_table.create ~size_hint:1024 dummy_line;
    dummy_line;
  }

let kind t = t.kind

let domain_of t core_id =
  match t.kind with
  | Per_core -> core_id
  | Shared -> 0
  | Grouped g -> core_id / g

let line_for t ~domain ~vpn =
  let key = (domain lsl 40) lor (vpn / 8) in
  let line = Int_table.find_default t.lines key t.dummy_line in
  if line != t.dummy_line then line
  else begin
    let params = Machine.params t.machine in
    let nsockets =
      Int.max 1 (params.Params.ncores / params.Params.cores_per_socket)
    in
    let label =
      match t.kind with
      | Per_core -> "pt:percore"
      | Shared -> "pt:shared"
      | Grouped _ -> "pt:grouped"
    in
    let line =
      Line.create ~label params (Machine.stats t.machine)
        ~home_socket:(key mod nsockets)
    in
    Int_table.set t.lines key line;
    line
  end

let find t (core : Core.t) ~vpn =
  let domain = domain_of t core.Core.id in
  Line.read core (line_for t ~domain ~vpn);
  let packed = Int_table.find_default t.maps.(domain) vpn (-1) in
  if packed < 0 then None
  else Some { pfn = packed lsr 1; writable = packed land 1 = 1 }

(* Allocation-free variant of [find]: [-1] when absent, else
   [pfn lsl 1 lor writable]. *)
let find_packed t (core : Core.t) ~vpn =
  let domain = domain_of t core.Core.id in
  Line.read core (line_for t ~domain ~vpn);
  Int_table.find_default t.maps.(domain) vpn (-1)

let install t (core : Core.t) ~vpn ~pfn ~writable =
  let domain = domain_of t core.Core.id in
  Line.write core (line_for t ~domain ~vpn);
  Int_table.set t.maps.(domain) vpn
    ((pfn lsl 1) lor if writable then 1 else 0)

let remove_pte map f vpn packed =
  Int_table.remove map vpn;
  f vpn (packed lsr 1)

let clear_range t ~owner ~lo ~hi f =
  let map = t.maps.(domain_of t owner) in
  (* Probe per vpn for narrow ranges (the common munmap of a few pages);
     a narrow probe loop beats walking the whole slot array even when the
     table holds fewer entries than the range. Removal leaves a
     tombstone, so the wide walk can remove as it goes. *)
  if hi - lo <= 64 || hi - lo < Int_table.length map then
    for vpn = lo to hi - 1 do
      let packed = Int_table.find_default map vpn (-1) in
      if packed >= 0 then remove_pte map f vpn packed
    done
  else
    Int_table.iter
      (fun vpn packed ->
        if vpn >= lo && vpn < hi then remove_pte map f vpn packed)
      map

let entries t =
  Array.fold_left (fun acc map -> acc + Int_table.length map) 0 t.maps

let pt_pages t =
  Array.fold_left
    (fun acc map ->
      let leaves = Int_table.create ~size_hint:64 false in
      Int_table.iter
        (fun vpn _ -> Int_table.set leaves (vpn / Vm_types.ptes_per_page) true)
        map;
      acc + Int_table.length leaves)
    0 t.maps

let bytes t = pt_pages t * Vm_types.page_size

let peek t ~owner ~vpn =
  let packed = Int_table.find_default t.maps.(domain_of t owner) vpn (-1) in
  if packed < 0 then None
  else Some { pfn = packed lsr 1; writable = packed land 1 = 1 }
