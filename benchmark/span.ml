(* Per-name span aggregates for the traced rep, plus the order statistics
   every metric is reported with.

   A span is the interval around one call into a layer. Spans are never
   logged per call (tens of millions of calls would cost gigabytes);
   each name keeps a call count, the total host nanoseconds, and an exact
   count per distinct simulated-cycle duration — enough for exact
   percentiles at a few kilobytes per name. *)

type t = {
  name : string;
  mutable calls : int;
  mutable host_ns : int;
  mutable cycles : int Ccsim.Int_table.t;  (* duration -> occurrences *)
}

let registry : t list ref = ref []

let make name =
  let s = { name; calls = 0; host_ns = 0; cycles = Ccsim.Int_table.create 0 } in
  registry := s :: !registry;
  s

let reset s =
  s.calls <- 0;
  s.host_ns <- 0;
  s.cycles <- Ccsim.Int_table.create 0

(* The workload's warm-up/measure boundary calls this, so the aggregates
   cover the measured window only. *)
let reset_all () = List.iter reset !registry

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let record s ~host_ns ~cycles =
  s.calls <- s.calls + 1;
  s.host_ns <- s.host_ns + host_ns;
  Ccsim.Int_table.set s.cycles cycles
    (Ccsim.Int_table.find_default s.cycles cycles 0 + 1)

let total_cycles s = Ccsim.Int_table.fold (fun c n acc -> acc + (c * n)) s.cycles 0

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

(* A histogram is a list of (value, occurrences). [percentile p h] is the
   nearest-rank percentile: the smallest value with at least [p * N] of
   the N samples at or below it. Exact, because the histogram is. *)
let percentile p hist =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) hist in
  let n = List.fold_left (fun acc (_, k) -> acc + k) 0 sorted in
  if n = 0 then 0
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    let rec go seen = function
      | [] -> 0
      | (v, k) :: rest -> if seen + k >= rank then v else go (seen + k) rest
    in
    go 0 sorted

let histogram spans =
  let merged = Ccsim.Int_table.create 0 in
  List.iter
    (fun s ->
      Ccsim.Int_table.iter
        (fun c k ->
          Ccsim.Int_table.set merged c (Ccsim.Int_table.find_default merged c 0 + k))
        s.cycles)
    spans;
  Ccsim.Int_table.fold (fun c k acc -> (c, k) :: acc) merged []

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by the exclusive method of Python's
   [statistics.quantiles(xs, n=4)], so the spreads this benchmark reports
   match that common tool's. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
