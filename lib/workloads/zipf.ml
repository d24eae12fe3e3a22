type t = {
  n : int;
  cdf : float array;
  guide : int array;
      (* guide.(b): the smallest rank whose cdf exceeds b / m, where m,
         the number of buckets, is the next power of two >= n *)
  scale : float;  (* m *)
  mutable state : int64;
}

(* splitmix64: a tiny, well-mixed generator with one word of explicit
   state. The weights are normalized in rank order and summed left to
   right, so the table is a pure function of (n, s) — identical floats on
   every host. *)

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~n ~s ~seed =
  if n <= 0 then invalid_arg "Zipf.create";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  (* Guard against the partial sums topping out below 1.0: the last rank
     absorbs the rounding so every u in [0,1) maps to a valid rank. *)
  cdf.(n - 1) <- 1.0;
  let m = ref 1 in
  while !m < n do
    m := 2 * !m
  done;
  let scale = float_of_int !m in
  let rank = ref 0 in
  let guide =
    Array.init !m (fun b ->
        let lo = float_of_int b /. scale in
        while !rank < n - 1 && cdf.(!rank) <= lo do
          incr rank
        done;
        !rank)
  in
  { n; cdf; guide; scale; state = mix (Int64.of_int seed) }

let uniform t =
  t.state <- Int64.add t.state gamma;
  let bits = Int64.shift_right_logical (mix t.state) 11 in
  Int64.to_float bits *. 0x1p-53

(* Indexed search (Chen & Asau): m is a power of two, so [u *. m] and
   [b /. m] are exact, and bucket [b = floor (u *. m)] satisfies
   [b /. m <= u]. Every rank below [guide.(b)] has a cdf of at most
   [b /. m], so the forward scan from there stops on the same rank a
   binary search over the whole table would return. Out-of-range [u]
   is clamped to an end bucket, which keeps the start at or below the
   answer. *)
let sample_u t u =
  let b = int_of_float (u *. t.scale) in
  let last = Array.length t.guide - 1 in
  let b = if b < 0 then 0 else if b > last then last else b in
  let i = ref (Array.unsafe_get t.guide b) in
  while !i < t.n - 1 && not (u < Array.unsafe_get t.cdf !i) do
    incr i
  done;
  !i

let next t = sample_u t (uniform t)
