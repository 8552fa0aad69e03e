open Compass_machine
open Compass_spec

(** The simulation-refinement driver: explore every most-general client
    of a registry entry and check forward simulation ({!Simrel}) on each
    execution, aggregating one verdict over the full explored set.

    The per-execution check depends only on the execution's event graph,
    which partial-order reductions preserve up to Mazurkiewicz
    equivalence — so verdicts are invariant across
    [--reduce=sleep|dpor], ±[--incremental] and any [jobs] (the
    differential tests gate this).

    Failures come in two shapes, both simulation-level:

    - a {e commit-point break}: some execution's graph admits no legal
      commit-point assignment; the witness names the earliest breaking
      commit (the exact event, step and matched prefix);
    - a {e concrete fault}: the machine leaves the abstraction relation
      mid-operation (data race, poison read) before reaching a commit —
      the witness names the faulting step and the commits matched so
      far.

    The first failing script is shrunk with the ddmin machinery
    ({!Compass_fuzz.Shrink}) and replayed to recover the break detail;
    [compass replay --sim-client] re-runs it with full tracing. *)

type options = {
  mgc_depth : int;  (** client enumeration bound (default 2) *)
  max_execs : int;  (** exploration budget per generated client *)
  jobs : int;
  reduce : Machine.reduction;  (** default {!Machine.RSleep} *)
  incremental : bool;
  until_violation : bool;
      (** stop at the first breaking client (time-to-witness mode) *)
  shrink : bool;  (** ddmin the witness script (default on) *)
  max_replays : int;  (** shrink budget *)
  only_client : string option;  (** restrict to one generated client id *)
}

val default_options : options

type detail = {
  d_fault : bool;  (** concrete fault vs commit-point break *)
  d_step : int;  (** machine step where the abstraction relation breaks *)
  d_what : string;  (** the breaking commit event, or the fault *)
  d_prefix : string list;  (** commits matched before the break, cix order *)
}

type witness = {
  w_client : string;  (** generated client id (for [--sim-client]) *)
  w_message : string;
  w_trace : Decision.trace;  (** shrunk replay script (typed trace) *)
  w_raw_len : int;
  w_replays : int;  (** shrink replays spent (0 when shrinking is off) *)
  w_detail : detail option;  (** from replaying the shrunk script *)
}

type client_row = {
  c_id : string;
  c_report : Explore.report;
  c_ok : bool;
}

type report = {
  struct_key : string;
  impl_name : string;
  spec_name : string;
  depth : int;
  clients_total : int;  (** generated *)
  clients_run : int;  (** explored (fewer under [until_violation]) *)
  executions : int;
  sim_states : int;  (** total commit-point search states expanded *)
  rows : client_row list;
  witness : witness option;
  ok : bool;
  complete : bool;  (** every explored client exhausted its tree *)
}

val run : ?options:options -> Libspec.entry -> report
(** @raise Invalid_argument when the entry is not refinable *)

val client_scenario :
  ?depth:int -> Libspec.entry -> string -> Explore.scenario option
(** the simulation-judged scenario for one generated client id, for
    [compass replay] (default depth 2) *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Compass_util.Jsonout.t
(** the report as JSON.  Each [clients[]] row carries the client's
    [executions], [dpor_pruned] and [rf_pruned] counts from its
    {!Explore.report}; under [dpor] and [dpor-rf] their sum is the runs
    the client launched. *)
