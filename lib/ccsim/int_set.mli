(** Persistent sets of ints with structural sharing.

    A big-endian Patricia tree (Okasaki & Gill, "Fast Mergeable Integer
    Maps") whose leaves are 32-id bitmaps, so a run of consecutive ids —
    the slot locks of one radix node — costs one leaf per 32 ids. The
    representation is canonical: equal sets are structurally equal
    whatever order they were built in.

    Every operation returns its (first) argument physically when the
    result equals it, so callers can test [s' == s] for "nothing changed"
    and a set copied by pointer stays shared until it actually diverges. *)

type t

val empty : t
val is_empty : t -> bool

val add : int -> t -> t
(** [add x s == s] when [x] is already a member. *)

val remove : int -> t -> t
(** [remove x s == s] when [x] is not a member. *)

val inter : t -> t -> t
(** [inter s t == s] when [s] is a subset of [t]. Subtrees the two sets
    share physically are not visited, so intersecting a set with a
    slightly edited copy of itself costs the edited paths only. *)
