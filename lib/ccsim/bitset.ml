(* One block: word 0 holds the capacity, words 1.. the bits. A set lives
   in every line's directory entry and every page's mapping record. *)
type t = int array

(* 32 bits per word: a power of two, so the index split [i lsr 5] /
   [i land 31] is two shift-class instructions — with [Sys.int_size] (63,
   not a power of two) every membership test pays a hardware division.
   The top half of each int is unused; sets here are small (core sets),
   so the space cost is nil. *)
let bits_per_word = 32

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  let t = Array.make (1 + ((n + bits_per_word - 1) / bits_per_word)) 0 in
  t.(0) <- n;
  t

let capacity (t : t) = Array.unsafe_get t 0

(* The word holding bit [i]. *)
let word_of i = (i lsr 5) + 1

let check t i =
  if i < 0 || i >= capacity t then invalid_arg "Bitset: index out of range"

let add t i =
  check t i;
  let w = word_of i in
  t.(w) <- t.(w) lor (1 lsl (i land 31))

let remove t i =
  check t i;
  let w = word_of i in
  t.(w) <- t.(w) land lnot (1 lsl (i land 31))

let mem t i =
  check t i;
  t.(word_of i) land (1 lsl (i land 31)) <> 0

(* No bounds check: for callers that guarantee [0 <= i < capacity]
   structurally (core ids against a set sized [ncores]). *)
let unsafe_mem t i =
  Array.unsafe_get t (word_of i) land (1 lsl (i land 31)) <> 0

let clear t = Array.fill t 1 (Array.length t - 1) 0

(* Top-level rather than local loops: a local recursive function that
   captures [t] is a closure allocated per call, and these two run on
   every line miss. *)
let rec zero_from t k =
  k = Array.length t || (Array.unsafe_get t k = 0 && zero_from t (k + 1))

let is_empty t = zero_from t 1

(* SWAR popcount on OCaml's 63-bit immediates: the usual 64-bit masks
   work unchanged because the (always zero) sign bit contributes
   nothing. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x5555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

let cardinal t =
  let acc = ref 0 in
  for k = 1 to Array.length t - 1 do
    acc := !acc + popcount (Array.unsafe_get t k)
  done;
  !acc

(* Index of the single set bit of [x] (a power of two), by binary
   search — no hardware ctz from OCaml, and the de Bruijn trick needs
   mod-2^64 wraparound that 63-bit ints do not provide. *)
let bit_index x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then n := !n + 1;
  !n

(* Ascending order, isolating one set bit at a time ([w land -w]), so the
   cost is per member rather than per universe bit — sharer sets are
   almost always sparse. *)
let iter f t =
  for k = 1 to Array.length t - 1 do
    let w = ref (Array.unsafe_get t k) in
    if !w <> 0 then begin
      let base = (k - 1) * bits_per_word in
      while !w <> 0 do
        let lsb = !w land (- !w) in
        f (base + bit_index lsb);
        w := !w lxor lsb
      done
    end
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let choose t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

(* The two queries of the line-directory miss path ("is any core but me
   sharing?", "is any core of my socket but me sharing?"): straight mask
   arithmetic, so classifying a miss never walks the members. *)

let rec other_from t ~wi ~b k =
  k < Array.length t
  &&
  let w = Array.unsafe_get t k in
  let w = if k = wi then w land lnot (1 lsl b) else w in
  w <> 0 || other_from t ~wi ~b (k + 1)

let exists_other t i =
  check t i;
  other_from t ~wi:(word_of i) ~b:(i land 31) 1

let mem_range_other t ~lo ~hi i =
  if lo < 0 || hi > capacity t || lo > hi then
    invalid_arg "Bitset.mem_range_other";
  if lo >= hi then false
  else begin
    let wi = word_of i and bi = i land 31 in
    let wlo = word_of lo and whi = word_of (hi - 1) in
    let found = ref false in
    for k = wlo to whi do
      if not !found then begin
        let w = Array.unsafe_get t k in
        (* Restrict to [lo, hi) within this word, then drop bit [i]. *)
        let w =
          if k = wlo then w land (-1 lsl (lo land 31)) else w
        in
        let w =
          if k = whi then
            let top = (hi - 1) land 31 in
            if top = bits_per_word - 1 then w
            else w land ((1 lsl (top + 1)) - 1)
          else w
        in
        let w = if k = wi then w land lnot (1 lsl bi) else w in
        if w <> 0 then found := true
      end
    done;
    !found
  end

let union_into ~dst src =
  if capacity dst <> capacity src then
    invalid_arg "Bitset.union_into: capacity mismatch";
  for w = 1 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done
