(** A deterministic Zipf(s) sampler over ranks [0, n).

    The cache-serving workload draws keys from this distribution: rank 0
    is the hottest key, and weight falls off as 1/(rank+1)^s. Sampling is
    inverse-CDF over a precomputed table, driven by an explicit
    splitmix64 state — no global [Random], no wall clock — so a sampler
    created with the same [(n, s, seed)] emits the same stream on any
    host, in any domain, at any pool width. *)

type t

val create : n:int -> s:float -> seed:int -> t
(** [n] ranks with skew [s] (s = 0 is uniform; larger is more skewed).
    @raise Invalid_argument if [n <= 0]. *)

val next : t -> int
(** The next rank: [sample_u t (uniform t)]. *)

val uniform : t -> float
(** The next raw uniform draw in [0, 1), advancing the state. Exposed so
    tests can feed the exact same draws to a reference implementation. *)

val sample_u : t -> float -> int
(** Pure inverse-CDF lookup: the smallest rank [i] whose cumulative
    weight (ranks [0..i]) exceeds [u], or [n - 1] if none does. An
    indexed search: a guide table picks where a short forward scan
    starts, with no search over the whole table. Does not advance the
    state. *)
