open Ccsim

type result = {
  structure : string;
  readers : int;
  writers : int;
  lookups : int;
  lookups_per_sec : float;
  write_pairs : int;
  write_pairs_per_sec : float;
}

let regions = 1_000
let key_stride = 211

let present_key i = i * key_stride

(* Writers pick random keys inside private subspaces disjoint from the
   present keys and from each other, so readers and writers never operate
   on the same key — any slowdown is pure cache-line interference. *)
let writer_key w (rng : Random.State.t) =
  ((w + 1) lsl 20) + Random.State.int rng (1 lsl 18)

(* Setup (populating the structure) happens in simulated time too; start
   every core at the post-setup instant so measurement begins from a
   consistent clock. *)
let align_clocks machine =
  let t = Machine.elapsed machine in
  Array.iter (fun (c : Core.t) -> c.Core.clock <- t) (Machine.cores machine);
  t

let finish ~structure ~readers ~writers ~duration lookups pairs =
  let secs = float_of_int duration /. (Params.default ()).Params.clock_hz in
  {
    structure;
    readers;
    writers;
    lookups;
    lookups_per_sec = float_of_int lookups /. secs;
    write_pairs = pairs;
    write_pairs_per_sec = float_of_int pairs /. secs;
  }

let skiplist ~readers ~writers ~duration () =
  let ncores = max 1 (readers + writers) in
  let machine = Machine.create (Params.default ~ncores ()) in
  let core0 = Machine.core machine 0 in
  let t = Structures.Skiplist.create core0 in
  for i = 0 to regions - 1 do
    Structures.Skiplist.insert core0 t (present_key i) i
  done;
  let start = align_clocks machine in
  let lookups = ref 0 and pairs = ref 0 in
  for c = 0 to readers - 1 do
    let core = Machine.core machine c in
    Machine.set_workload machine c (fun () ->
        Core.tick core core.Core.params.Params.op_cost;
        let i = Random.State.int core.Core.rng regions in
        (match Structures.Skiplist.find core t (present_key i) with
        | Some _ -> incr lookups
        | None -> failwith "skiplist bench: present key missing");
        true)
  done;
  for w = 0 to writers - 1 do
    let c = readers + w in
    let core = Machine.core machine c in
    Machine.set_workload machine c (fun () ->
        Core.tick core core.Core.params.Params.op_cost;
        let k = writer_key w core.Core.rng in
        Structures.Skiplist.insert core t k w;
        ignore (Structures.Skiplist.remove core t k);
        incr pairs;
        true)
  done;
  Machine.run_for machine ~cycles:(start + duration);
  finish ~structure:"skiplist" ~readers ~writers ~duration !lookups !pairs

let radix ~readers ~writers ~duration () =
  let ncores = max 1 (readers + writers) in
  let machine = Machine.create (Params.default ~ncores ()) in
  let rc = Refcnt.Refcache.create machine in
  let core0 = Machine.core machine 0 in
  (* Three levels of 9 bits cover the key range comfortably. *)
  let t = Radix.create ~bits:9 ~levels:3 machine rc core0 in
  for i = 0 to regions - 1 do
    let k = present_key i in
    let lk = Radix.lock_range t core0 ~lo:k ~hi:(k + 1) in
    Radix.fill_range t core0 lk i;
    Radix.unlock_range t core0 lk
  done;
  let start = align_clocks machine in
  let lookups = ref 0 and pairs = ref 0 in
  for c = 0 to readers - 1 do
    let core = Machine.core machine c in
    Machine.set_workload machine c (fun () ->
        Core.tick core core.Core.params.Params.op_cost;
        let i = Random.State.int core.Core.rng regions in
        (match Radix.lookup t core (present_key i) with
        | Some _ -> incr lookups
        | None -> failwith "radix bench: present key missing");
        true)
  done;
  for w = 0 to writers - 1 do
    let c = readers + w in
    let core = Machine.core machine c in
    Machine.set_workload machine c (fun () ->
        Core.tick core core.Core.params.Params.op_cost;
        let k = writer_key w core.Core.rng in
        let lk = Radix.lock_range t core ~lo:k ~hi:(k + 1) in
        Radix.fill_range t core lk w;
        Radix.unlock_range t core lk;
        let lk = Radix.lock_range t core ~lo:k ~hi:(k + 1) in
        ignore (Radix.clear_range t core lk);
        Radix.unlock_range t core lk;
        incr pairs;
        true)
  done;
  Machine.run_for machine ~cycles:(start + duration);
  finish ~structure:"radix" ~readers ~writers ~duration !lookups !pairs
