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

  type bucket = {
    lock : Lock.t;
    entries : (int * int, entry) Hashtbl.t;  (* (file, page) -> entry *)
  }

  type t = {
    machine : Machine.t;
    csub : C.t;
    buckets : bucket array;
    mutable resident : int;
  }

  let nbuckets = 256

  let create machine csub =
    let core0 = Machine.core machine 0 in
    {
      machine;
      csub;
      buckets =
        Array.init nbuckets (fun _ ->
            {
              lock = Lock.create ~label:"pagecache:lock" core0;
              entries = Hashtbl.create 8;
            });
      resident = 0;
    }

  let bucket_of t ~file ~page =
    t.buckets.(((file * 0x9E3779B1) + page) land (nbuckets - 1))

  let get t (core : Core.t) ~file ~page =
    let b = bucket_of t ~file ~page in
    Lock.acquire core b.lock;
    match
      match Hashtbl.find_opt b.entries (file, page) with
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
                    Hashtbl.remove b.entries (file, page);
                    t.resident <- t.resident - 1;
                    Physmem.free (Machine.physmem t.machine) c pfn);
            }
          in
          Hashtbl.replace b.entries (file, page) e;
          t.resident <- t.resident + 1;
          e
    with
    | entry ->
        C.inc t.csub core entry.handle;
        Lock.release core b.lock;
        (entry.pfn, entry.handle)
    | exception e ->
        (* Frame exhaustion on a miss: nothing was inserted — release the
           bucket lock and let the fault path surface the failure. *)
        Lock.release core b.lock;
        raise e

  let evict t (core : Core.t) ~file ~page =
    let b = bucket_of t ~file ~page in
    Lock.acquire core b.lock;
    (match Hashtbl.find_opt b.entries (file, page) with
    | Some e when e.base ->
        e.base <- false;
        C.dec t.csub core e.handle
    | _ -> ());
    Lock.release core b.lock

  let set_dirty t (core : Core.t) ~file ~page =
    let b = bucket_of t ~file ~page in
    Lock.acquire core b.lock;
    (match Hashtbl.find_opt b.entries (file, page) with
    | Some e -> e.dirty <- true
    | None -> ());
    Lock.release core b.lock

  let clear_dirty t (core : Core.t) ~file ~page =
    let b = bucket_of t ~file ~page in
    Lock.acquire core b.lock;
    (match Hashtbl.find_opt b.entries (file, page) with
    | Some e -> e.dirty <- false
    | None -> ());
    Lock.release core b.lock

  let dirty t ~file ~page =
    match Hashtbl.find_opt (bucket_of t ~file ~page).entries (file, page) with
    | Some e -> e.dirty
    | None -> false

  let cached_pages t = t.resident
end
