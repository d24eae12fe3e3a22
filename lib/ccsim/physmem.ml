exception Out_of_frames
exception Double_free of int

type t = {
  params : Params.t;
  stats : Stats.t;
  mutable next : int;
  free_lists : int list array;  (* per home core *)
  list_lines : Line.t array;  (* cache line of each free-list head *)
  (* Frame numbers are dense (0 .. next-1), so per-frame metadata lives in
     flat arrays grown geometrically — the alloc/free/content paths run on
     every page fault and must not hash. *)
  mutable home : int array;  (* frame -> home core *)
  mutable content : int array;  (* frame -> one-word content summary *)
  mutable allocated : Bytes.t;  (* liveness: frames currently out *)
  mutable live : int;
  mutable fault : Fault.t option;
}

let create params stats =
  let n = params.Params.ncores in
  {
    params;
    stats;
    next = 0;
    free_lists = Array.make n [];
    list_lines =
      Array.init n (fun i ->
          Line.create ~label:"physmem:freelist" params stats
            ~home_socket:(Params.socket_of_core params i));
    home = Array.make 4096 (-1);
    content = Array.make 4096 0;
    allocated = Bytes.make 4096 '\000';
    live = 0;
    fault = None;
  }

let set_fault t f = t.fault <- f

let ensure_frame t frame =
  let cap = Array.length t.home in
  if frame >= cap then begin
    let ncap = ref (cap * 2) in
    while frame >= !ncap do
      ncap := !ncap * 2
    done;
    let home = Array.make !ncap (-1) in
    Array.blit t.home 0 home 0 cap;
    t.home <- home;
    let content = Array.make !ncap 0 in
    Array.blit t.content 0 content 0 cap;
    t.content <- content;
    let allocated = Bytes.make !ncap '\000' in
    Bytes.blit t.allocated 0 allocated 0 cap;
    t.allocated <- allocated
  end

let alloc t (core : Core.t) =
  (match t.fault with
  | Some f -> (
      match Fault.frame_budget f with
      | Some budget when t.live >= budget ->
          Fault.note_oom f;
          raise Out_of_frames
      | Some _ | None -> ())
  | None -> ());
  let id = core.Core.id in
  (* Modeled lock-free per-core free list: pops and remote pushes are
     hardware atomics on the list-head line. *)
  Line.write_atomic core t.list_lines.(id);
  let frame =
    match t.free_lists.(id) with
    | f :: rest ->
        t.free_lists.(id) <- rest;
        f
    | [] ->
        let f = t.next in
        t.next <- t.next + 1;
        ensure_frame t f;
        t.home.(f) <- id;
        f
  in
  t.stats.Stats.frames_allocated <- t.stats.Stats.frames_allocated + 1;
  t.live <- t.live + 1;
  Bytes.unsafe_set t.allocated frame '\001';
  (* zero-fill *)
  t.content.(frame) <- 0;
  Core.tick core t.params.Params.page_zero;
  frame

let try_alloc t core =
  match alloc t core with f -> Some f | exception Out_of_frames -> None

let free t (core : Core.t) frame =
  if frame < 0 || frame >= t.next then
    invalid_arg "Physmem.free: unknown frame";
  let home = t.home.(frame) in
  (* A frame that is known but not live is being freed twice. Without the
     liveness check the second free would silently push the frame onto the
     free list again — two later allocs would hand out the same frame —
     and [live] would go negative. *)
  if Bytes.get t.allocated frame = '\000' then raise (Double_free frame);
  Bytes.set t.allocated frame '\000';
  Line.write_atomic core t.list_lines.(home);
  t.free_lists.(home) <- frame :: t.free_lists.(home);
  t.stats.Stats.frames_freed <- t.stats.Stats.frames_freed + 1;
  t.live <- t.live - 1

let set_content t frame v =
  if frame < 0 || frame >= t.next then
    invalid_arg "Physmem.set_content: unknown frame";
  t.content.(frame) <- v

let get_content t frame =
  if frame >= 0 && frame < t.next then t.content.(frame) else 0

let live_frames t = t.live
