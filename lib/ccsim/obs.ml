type kind = Plain | Atomic

type event =
  | Read of { core : int; line : int; label : string; kind : kind }
  | Write of { core : int; line : int; label : string; kind : kind }
  | Acquire of { core : int; lock : int; line : int; label : string; rd : bool }
  | Release of { core : int; lock : int; line : int; label : string; rd : bool }
  | Tlb_fill of { core : int; asid : int; vpn : int }
  | Tlb_drop of { core : int; asid : int; vpn : int }
  | Unmap_done of { core : int; asid : int; lo : int; hi : int }
  | Rc_make of { core : int; oid : int; init : int; label : string }
  | Rc_inc of { core : int; oid : int; label : string }
  | Rc_dec of { core : int; oid : int; label : string }
  | Rc_free of { core : int; oid : int; label : string }

(* [hot] caches [quiet = 0 && sink <> None]: it is read before every
   potential event allocation — several times per simulated memory access,
   the single most executed branch in the simulator — so it must be one
   immediate-field load, not an option comparison. The three writers
   ([set_sink], [quiet_incr], [quiet_decr]) keep it in sync. *)
type t = {
  mutable sink : (event -> unit) option;
  mutable quiet : int;
  mutable hot : bool;
  mutable asids : int;  (* address-space ids handed out so far *)
  mutable locks : int;  (* lock ids handed out so far *)
}

let refresh t =
  t.hot <- (t.quiet = 0 && match t.sink with Some _ -> true | None -> false)

let create () = { sink = None; quiet = 0; hot = false; asids = 0; locks = 0 }

let set_sink t sink =
  t.sink <- sink;
  refresh t

let active t = t.hot

let emit t ev =
  if t.quiet = 0 then match t.sink with Some f -> f ev | None -> ()

let quiet_incr t =
  t.quiet <- t.quiet + 1;
  t.hot <- false

let quiet_decr t =
  t.quiet <- t.quiet - 1;
  refresh t

(* Line ids are only used to correlate events and name findings in
   reports; they never feed back into the cost model, so a process-wide
   counter keeps line creation sites untouched by plumbing. The counter is
   atomic because the benchmark harness runs independent simulations on
   concurrent domains: ids from simultaneous jobs interleave (no longer
   dense per machine), but uniqueness — the only property the checkers'
   ledgers rely on — always holds. *)
let line_ids = Atomic.make 0
let fresh_line_id () = Atomic.fetch_and_add line_ids 1

(* Lock ids and address-space ids are numbered per machine: 0, 1, 2, ...
   in creation order, so they stay dense and small however many machines
   the process built before. A checker keeps its per-lock state in arrays
   indexed by the lock id; an asid is packed beside a vpn, and a finding
   names the space by it. Address-space ids distinguish the TLB events of
   different MMUs: every address space has its own per-core TLB
   instances, so "core 1 caches vpn 101" is only meaningful relative to
   an address space. *)
let fresh_lock_id t =
  let l = t.locks in
  t.locks <- l + 1;
  l

let fresh_asid t =
  let a = t.asids in
  t.asids <- a + 1;
  a
