type ipi_response = Prompt | Delayed of int | Stalled

exception Injected_abort of { op : string; point : string }
exception Injected_crash of { op : string; point : string }

type abort_rule = { a_op : string; a_point : string option; a_prob : float }

type t = {
  fseed : int;
  rng : Random.State.t;
  mutable budget : int option;
  ipi : ipi_response Int_table.t;  (* core -> response; absent = Prompt *)
  mutable abort_rules : abort_rule list;
  mutable crash_rules : abort_rule list;
  mutable suppress : int;  (* re-entrant suppression depth *)
  mutable broken : bool;
  mutable n_oom : int;
  mutable n_aborts : int;
  mutable n_crashes : int;
  mutable n_ipi_delays : int;
  mutable n_ipi_abandoned : int;
}

let create ?(seed = 0) () =
  {
    fseed = seed;
    rng = Random.State.make [| 0xfa_017; seed |];
    budget = None;
    ipi = Int_table.create ~size_hint:8 Prompt;
    abort_rules = [];
    crash_rules = [];
    suppress = 0;
    broken = false;
    n_oom = 0;
    n_aborts = 0;
    n_crashes = 0;
    n_ipi_delays = 0;
    n_ipi_abandoned = 0;
  }

let seed t = t.fseed

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let set_frame_budget t b =
  (match b with
  | Some n when n < 0 -> invalid_arg "Fault.set_frame_budget"
  | _ -> ());
  t.budget <- b

let frame_budget t = t.budget

let delay_ipi t ~core ~cycles =
  if cycles < 0 then invalid_arg "Fault.delay_ipi";
  Int_table.set t.ipi core (Delayed cycles)

let stall_ipi t ~core = Int_table.set t.ipi core Stalled
let ipi_response t ~core = Int_table.find_default t.ipi core Prompt
let ipi_faults_active t = Int_table.length t.ipi > 0

let check_prob ~fn p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg ("Fault." ^ fn)

let abort_ops t ~op ?point ~prob () =
  check_prob ~fn:"abort_ops" prob;
  t.abort_rules <- { a_op = op; a_point = point; a_prob = prob } :: t.abort_rules

let crash_ops t ~op ?point ~prob () =
  check_prob ~fn:"crash_ops" prob;
  t.crash_rules <- { a_op = op; a_point = point; a_prob = prob } :: t.crash_rules

(* ------------------------------------------------------------------ *)
(* Hot-path queries                                                    *)

let suppressed t = t.suppress > 0

let rule_fires t r ~op ~point =
  r.a_op = op
  && (match r.a_point with None -> true | Some p -> p = point)
  && Random.State.float t.rng 1.0 < r.a_prob

let abort_now t ~op ~point =
  if t.suppress = 0 then begin
    List.iter
      (fun r ->
        if rule_fires t r ~op ~point then begin
          t.n_aborts <- t.n_aborts + 1;
          raise (Injected_abort { op; point })
        end)
      t.abort_rules;
    (* Crash rules are consulted after abort rules so plans with no
       configured crashes draw exactly the legacy rng sequence. *)
    List.iter
      (fun r ->
        if rule_fires t r ~op ~point then begin
          t.n_crashes <- t.n_crashes + 1;
          raise (Injected_crash { op; point })
        end)
      t.crash_rules
  end

let with_suppressed fo f =
  match fo with
  | None -> f ()
  | Some t ->
      t.suppress <- t.suppress + 1;
      Fun.protect ~finally:(fun () -> t.suppress <- t.suppress - 1) f

(* ------------------------------------------------------------------ *)
(* Known-bad mode and counters                                         *)

let set_break_rollback t b = t.broken <- b
let rollback_broken t = t.broken
let note_oom t = t.n_oom <- t.n_oom + 1
let injected_oom t = t.n_oom
let injected_aborts t = t.n_aborts
let injected_crashes t = t.n_crashes
let note_ipi_delay t = t.n_ipi_delays <- t.n_ipi_delays + 1
let ipi_delays t = t.n_ipi_delays
let note_ipi_abandoned t = t.n_ipi_abandoned <- t.n_ipi_abandoned + 1
let ipi_abandoned t = t.n_ipi_abandoned

