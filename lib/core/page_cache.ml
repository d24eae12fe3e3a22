open Ccsim

let file_content ~file ~page = (file * 1_000_003) lxor page

module Make (C : Refcnt.Counter_intf.S) = struct
  type entry = {
    pfn : int;
    handle : C.handle;
    (* Whether the cache currently holds its base reference. Eviction
       drops it; if mappings keep the page alive and a later [get] finds
       the entry still resident, the cache re-adopts it — and a second
       eviction of an already-evicted page must not dec again. *)
    mutable base : bool;
    mutable dirty : bool;
  }

  type t = {
    machine : Machine.t;
    csub : C.t;
    locks : Lock.t array;  (* the bucket locks, each on its own line *)
    entries : entry option Int_table.t;  (* [key ~file ~page] -> entry *)
    mutable resident : int;
  }

  let nbuckets = 256

  let create machine csub =
    let core0 = Machine.core machine 0 in
    {
      machine;
      csub;
      locks =
        Array.init nbuckets (fun _ ->
            Lock.create ~label:"pagecache:lock" core0);
      entries = Int_table.create None;
      resident = 0;
    }

  (* (file, page) packed into one nonnegative int: 22 bits of file above
     40 bits of page. *)
  let key ~file ~page =
    if file < 0 || file >= 1 lsl 22 || page < 0 || page >= 1 lsl 40 then
      invalid_arg "Page_cache: (file, page) does not fit the packed key";
    (file lsl 40) lor page

  let lock_of t ~file ~page =
    t.locks.(((file * 0x9E3779B1) + page) land (nbuckets - 1))

  let get t (core : Core.t) ~file ~page =
    let k = key ~file ~page in
    let lock = lock_of t ~file ~page in
    Lock.acquire core lock;
    match
      match Int_table.find_default t.entries k None with
      | Some e ->
          if not e.base then begin
            (* A prior eviction dropped the base reference but mappings
               kept the page alive: re-adopt it so the entry's lifetime
               invariant (resident => one base reference) holds again. *)
            C.inc t.csub core e.handle;
            e.base <- true
          end;
          e
      | None ->
          (* Miss: read the page in from backing store. *)
          let pfn = Physmem.alloc (Machine.physmem t.machine) core in
          Core.tick core core.Core.params.Params.disk_read;
          Physmem.set_content (Machine.physmem t.machine) pfn
            (file_content ~file ~page);
          let e =
            {
              pfn;
              base = true;
              dirty = false;
              handle =
                (* The cache's base reference; freeing returns the frame
                   and forgets the entry. *)
                C.make t.csub core ~init:1 ~on_free:(fun c ->
                    Int_table.remove t.entries k;
                    t.resident <- t.resident - 1;
                    Physmem.free (Machine.physmem t.machine) c pfn);
            }
          in
          Int_table.set t.entries k (Some e);
          t.resident <- t.resident + 1;
          e
    with
    | entry ->
        C.inc t.csub core entry.handle;
        Lock.release core lock;
        (entry.pfn, entry.handle)
    | exception e ->
        (* Frame exhaustion on a miss: nothing was inserted — release the
           bucket lock and let the fault path surface the failure. *)
        Lock.release core lock;
        raise e

  let evict t (core : Core.t) ~file ~page =
    let k = key ~file ~page in
    let lock = lock_of t ~file ~page in
    Lock.acquire core lock;
    (match Int_table.find_default t.entries k None with
    | Some e when e.base ->
        e.base <- false;
        C.dec t.csub core e.handle
    | _ -> ());
    Lock.release core lock

  let set_dirty_to t (core : Core.t) ~file ~page bit =
    let k = key ~file ~page in
    let lock = lock_of t ~file ~page in
    Lock.acquire core lock;
    (match Int_table.find_default t.entries k None with
    | Some e -> e.dirty <- bit
    | None -> ());
    Lock.release core lock

  let set_dirty t core ~file ~page = set_dirty_to t core ~file ~page true
  let clear_dirty t core ~file ~page = set_dirty_to t core ~file ~page false

  let dirty t ~file ~page =
    match Int_table.find_default t.entries (key ~file ~page) None with
    | Some e -> e.dirty
    | None -> false

  let cached_pages t = t.resident
end
