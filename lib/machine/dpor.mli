(** Source-DPOR with wakeup sequences (Abdulla et al., "Optimal dynamic
    partial order reduction") — the shared exploration state behind
    [Explore]'s [--reduce=dpor] mode.

    Pure bookkeeping over decision scripts, tids and footprints: nodes
    (one per multi-alternative scheduling choice) carry source sets and
    per-branch sleep installs; tasks are script prefixes with their
    install obligations and an optional wakeup sequence.  The [Explore]
    driver runs tasks on the machine, records observations, and feeds
    each finished execution back through {!integrate}, which returns the
    data-alternative siblings and the race-reversal branches as new
    tasks; the driver keeps them on its own work-stealing deques.  The
    nodes are shared by every task below them, so {!integrate} updates
    them under an internal lock, and one [t] may serve every worker
    domain of a parallel search. *)

type fp = Deps.footprint

type task

val root_task : task
val script : task -> Decision.trace
val installs : task -> (int * (int * fp) list) list
(** decision position -> sleep entries to install there, ascending *)

val wakeup : task -> int list
(** tids to prefer at scheduling choices past the branch point *)

val branch_step : task -> int
(** step index of the branch; races wholly before it are already
    analysed *)

(** Observations the driver records at decision positions past the task's
    scripted prefix.  [o_step] is {!Machine.dpor_depth} at pick time: for
    scheduling choices the index of the step being scheduled, for data
    choices the index after the step being executed. *)
type obs =
  | Osched of {
      o_pos : int;
      o_step : int;
      o_tids : int array;
      o_fps : fp array;
      o_sleep : (int * fp) list;
      o_taken : int;
    }
  | Odata of { o_pos : int; o_step : int; o_arity : int; o_taken : int }

type t

val create : ?rf:bool -> unit -> t
(** a fresh search, to be started from {!root_task}.  [rf] (default
    off) turns on the reads-from–aware rule: atomic write/read race
    reversals are not queued — with the later read's rf edge fixed both
    orders commute, and every rf edge the reversal could realise is
    already enumerated as a data sibling of the read choice.  Reversals
    involving a non-atomic access are always kept (na-race fault
    detection is order-sensitive). *)

val integrate :
  t ->
  task ->
  ds:Decision.trace ->
  obs:obs list ->
  steps:(int * fp) array ->
  task list
(** account one finished (or pruned) execution of a task: create nodes
    from fresh scheduling observations, spawn data-alternative siblings,
    insert race-reversal branches per the source-DPOR rule.  [ds] is the
    full decision trace, [obs] the observations in execution order,
    [steps] the (tid, footprint) log oldest first.  Returns the spawned
    tasks, shallowest branch first: a driver that pushes them in order
    onto a stack pops the deepest next. *)
