open Ccsim

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

(* One intermediate bucket per (mapper, reducer) pair. The header is
   written only by its mapper during Map and read by one reducer during
   Reduce — pairwise sharing, as in the paper. *)
type bucket = {
  mutable pages : int list;  (* chunk VPNs, oldest first at the end *)
  mutable entries : int;
  mutable room : int;  (* free entry slots in the newest page *)
  line : Line.t;
}

type phase =
  | Map of int  (* words remaining *)
  | Map_barrier of int
  | Reduce of int * int list option
      (* mapper index; [None] = that mapper's bucket not yet opened,
         [Some pages] = its chunk pages still to walk *)
  | Output of int  (* output pages still to allocate and write *)
  | Done

module Make (V : Vm.Vm_intf.S) = struct
  module Alloc = Block_alloc.Make (V)

  let hash_word_cost = 25
  let merge_entry_cost = 8

  let bytes_per_entry = 16

  let run ?(total_words = 200_000) ~unit_pages ~ncores make_vm =
    let machine = Machine.create (Params.default ~ncores ()) in
    let vm = make_vm machine in
    let alloc = Alloc.create vm ~unit_pages ~ncores in
    let entries_per_page = Vm.Vm_types.page_size / bytes_per_entry in
    let words_per_worker = total_words / ncores in
    let fresh_line c =
      Line.create ~label:"metis" c.Core.params c.Core.stats
        ~home_socket:c.Core.socket
    in
    let buckets =
      Array.init ncores (fun m ->
          Array.init ncores (fun _r ->
              {
                pages = [];
                entries = 0;
                room = 0;
                line = fresh_line (Machine.core machine m);
              }))
    in
    let barrier = Barrier.create (Machine.core machine 0) ~parties:ncores in
    let touch core vpn =
      match V.touch vm core ~vpn with
      | Vm.Vm_types.Ok -> ()
      | Vm.Vm_types.Segfault -> failwith "metis: unexpected segfault"
      | Vm.Vm_types.Oom -> failwith "metis: out of frames"
    in
    let map_batch = 200 in
    for w = 0 to ncores - 1 do
      let core = Machine.core machine w in
      let state = ref (Map words_per_worker) in
      Machine.set_workload machine w (fun () ->
          (match !state with
          | Map remaining ->
              let n = min map_batch remaining in
              for _ = 1 to n do
                Core.tick core hash_word_cost;
                let r = Random.State.int core.Core.rng ncores in
                let b = buckets.(w).(r) in
                Line.write core b.line;
                if b.room = 0 then begin
                  let vpn = Alloc.alloc_pages alloc core 1 in
                  b.pages <- vpn :: b.pages;
                  b.room <- entries_per_page
                end;
                (* append the (word, position) entry *)
                (match b.pages with
                | vpn :: _ -> touch core vpn
                | [] -> assert false);
                b.entries <- b.entries + 1;
                b.room <- b.room - 1
              done;
              if remaining - n = 0 then
                state := Map_barrier (Barrier.arrive core barrier)
              else state := Map (remaining - n)
          | Map_barrier gen ->
              if Barrier.passed core barrier gen then state := Reduce (0, None)
              else Machine.wait_hint machine core
          | Reduce (m, None) ->
              if m >= ncores then begin
                (* size the output table: one page per
                   [entries_per_page] merged entries *)
                let total =
                  Array.fold_left (fun acc bs -> acc + bs.(w).entries) 0 buckets
                in
                let pages =
                  (total + entries_per_page - 1) / entries_per_page
                in
                state := Output pages
              end
              else begin
                let b = buckets.(m).(w) in
                Line.read core b.line;
                state := Reduce (m, Some (List.rev b.pages))
              end
          | Reduce (m, Some []) -> state := Reduce (m + 1, None)
          | Reduce (m, Some (vpn :: rest)) ->
              (* walk one intermediate page: fault it in (it was faulted
                 by mapper [m]) and merge its entries *)
              touch core vpn;
              let b = buckets.(m).(w) in
              let full_pages = List.length b.pages in
              let entries_here =
                if rest = [] && full_pages > 0 then
                  b.entries - ((full_pages - 1) * entries_per_page)
                else entries_per_page
              in
              Core.tick core (merge_entry_cost * max 1 entries_here);
              state := Reduce (m, Some rest)
          | Output remaining ->
              if remaining = 0 then state := Done
              else begin
                let vpn = Alloc.alloc_pages alloc core 1 in
                touch core vpn;
                Core.tick core (merge_entry_cost * entries_per_page);
                state := Output (remaining - 1)
              end
          | Done -> ());
          !state <> Done)
    done;
    Machine.run machine;
    let s = Machine.stats machine in
    let job_cycles = Machine.elapsed machine in
    {
      vm_name = V.name;
      ncores;
      unit_pages;
      job_cycles;
      jobs_per_hour = 3600.0 /. Machine.seconds machine job_cycles;
      mmaps = s.Stats.mmaps;
      pagefaults = s.Stats.pagefaults;
      ipis = s.Stats.ipis;
    }
end
