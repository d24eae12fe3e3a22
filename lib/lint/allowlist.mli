(** The committed suppression file ([lint.allow]): one
    [rule-id:Module.path # reason] entry per line. Entries are themselves
    checked — a malformed line or an entry matching no finding is an
    error, so the allowlist can only shrink as sites get fixed. *)

type entry = {
  a_rule : Finding.rule;
  a_site : string;
  a_reason : string;
  a_line : int;
  mutable a_used : bool;  (** set by {!apply} when the entry suppressed
                              at least one finding *)
}

type t = { file : string; entries : entry list }

val empty : t

val load : string -> t * Finding.t list
(** Parses an allowlist file; the findings are [Allow_malformed] errors
    for unparseable lines. Raises [Sys_error] if the file cannot be
    read. *)

val matches : entry -> Finding.t -> bool
(** Rule ids equal and the entry site equals the finding site or is a
    [.]-separated prefix of it. *)

val apply : t -> Finding.t list -> Finding.t list
(** Drops suppressed findings, then appends one [Allow_stale] finding per
    entry that suppressed nothing. *)
