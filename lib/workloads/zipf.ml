type t = { n : int; cdf : float array; mutable state : int64 }

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
  { n; cdf; state = mix (Int64.of_int seed) }

let uniform t =
  t.state <- Int64.add t.state gamma;
  let bits = Int64.shift_right_logical (mix t.state) 11 in
  Int64.to_float bits *. 0x1p-53

let sample_u t u =
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < t.cdf.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let next t = sample_u t (uniform t)
