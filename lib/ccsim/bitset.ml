type t = { words : int array; n : int }

(* 32 bits per word: a power of two, so the index split [i lsr 5] /
   [i land 31] is two shift-class instructions — with [Sys.int_size] (63,
   not a power of two) every membership test pays a hardware division.
   The top half of each int is unused; sets here are small (core sets),
   so the space cost is nil. *)
let bits_per_word = 32

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; n }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let add t i =
  check t i;
  let w = i lsr 5 and b = i land 31 in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i lsr 5 and b = i land 31 in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i lsr 5 and b = i land 31 in
  t.words.(w) land (1 lsl b) <> 0

(* No bounds check: for callers that guarantee [0 <= i < capacity]
   structurally (core ids against a set sized [ncores]). *)
let unsafe_mem t i =
  Array.unsafe_get t.words (i lsr 5) land (1 lsl (i land 31)) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let is_empty t =
  let rec go k =
    k = Array.length t.words || (Array.unsafe_get t.words k = 0 && go (k + 1))
  in
  go 0

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
  for k = 0 to Array.length t.words - 1 do
    acc := !acc + popcount (Array.unsafe_get t.words k)
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
  for k = 0 to Array.length t.words - 1 do
    let w = ref (Array.unsafe_get t.words k) in
    if !w <> 0 then begin
      let base = k * bits_per_word in
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

let exists_other t i =
  check t i;
  let wi = i lsr 5 and b = i land 31 in
  let rec go k =
    if k = Array.length t.words then false
    else
      let w = Array.unsafe_get t.words k in
      let w = if k = wi then w land lnot (1 lsl b) else w in
      w <> 0 || go (k + 1)
  in
  go 0

let mem_range_other t ~lo ~hi i =
  if lo < 0 || hi > t.n || lo > hi then invalid_arg "Bitset.mem_range_other";
  if lo >= hi then false
  else begin
    let wi = i lsr 5 and bi = i land 31 in
    let wlo = lo lsr 5 and whi = (hi - 1) lsr 5 in
    let found = ref false in
    for k = wlo to whi do
      if not !found then begin
        let w = Array.unsafe_get t.words k in
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
  if dst.n <> src.n then invalid_arg "Bitset.union_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let equal a b =
  a.n = b.n
  &&
  let rec words_eq i =
    i >= Array.length a.words
    || (a.words.(i) = b.words.(i) && words_eq (i + 1))
  in
  words_eq 0

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements t)
