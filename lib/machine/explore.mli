(** Exploration drivers: stateless model checking.

    Executions replay from decision scripts — typed {!Decision} traces
    carrying the choice taken, the branching factor, and (for reads) the
    reads-from provenance.  One work-stealing driver ({!pdfs}; {!dfs}
    is the same driver at one job) enumerates the decision tree
    exhaustively as a tree of tasks: each task's run yields one
    execution, and the rest of the task's subtree is split into child
    tasks that OCaml 5 domains explore independently.  [~reduce] selects
    a partial-order reduction: sleep sets in the scheduler (see
    {!Machine.run}), source-DPOR with wakeup sequences ({!Dpor}), or
    reads-from–aware source-DPOR ([RDporRf]: one counted execution per
    distinct rf⊕mo class).  The random driver
    samples seeded executions.  Where the paper {e proves} a property of
    all executions, we {e enumerate} them (up to the configured bounds)
    and check it on each. *)

type verdict =
  | Pass
  | Violation of string
  | Discard of string
      (** blocked / bounded / irrelevant execution — counted separately *)

type scenario = {
  name : string;
  build : Machine.t -> (Machine.outcome -> verdict);
      (** runs once per execution on a fresh machine: allocate, spawn
          threads, return the judge.  Shared statistics live in closures
          created before the scenario.  Under {!pdfs} at [jobs > 1] the
          closure runs on several domains concurrently: the machine is domain-local, and
          the report fields are merged from domain-local tallies, but any
          counters the scenario itself mutates are updated racily —
          treat them as approximate when [jobs > 1]. *)
}

type failure = { message : string; trace : Decision.trace }

val failure_script : failure -> int array
(** the failure's decision vector — [Decision.choices] of its trace *)

type report = {
  name : string;
  executions : int;
  distinct : int;
      (** distinct decision vectors among the executions — equals
          [executions] under DFS (which enumerates); under random sampling
          the gap is the sampling redundancy *)
  passed : int;
  discarded : int;
  bounded : int;
  blocked : int;
  pruned : int;
      (** subtrees skipped by sleep-set reduction (0 unless
          [~reduce:RSleep]) *)
  dpor_pruned : int;
      (** executions killed as redundant under [~reduce:RDpor] — sleeping
          threads scheduled by a stale branch.  An optimal DPOR search
          reports 0; nonzero counts measure how far the source-set
          approximation is from optimality on this scenario. *)
  rf_pruned : int;
      (** completed runs discarded under [~reduce:RDporRf] because their
          reads-from class ({!rf_class_key}) was already counted.  Like
          [pruned]/[dpor_pruned], never counted in [executions] and never
          judged — on an exhaustive search [executions] equals the number
          of distinct rf⊕mo classes. *)
  violations : failure list;  (** first few, oldest first *)
  complete : bool;  (** DFS exhausted the tree within the budget *)
}

val pp_report : Format.formatter -> report -> unit

val ok : report -> bool
(** no violations *)

val report_to_json : report -> Compass_util.Jsonout.t
(** the report as a JSON object, for [--json] flags and CI artifacts.
    Kept violations carry both the legacy ["script"] int array and the
    typed ["trace"] (with per-decision kind and rf provenance). *)

val run_one :
  config:Machine.config ->
  scenario ->
  Decision.trace ->
  Machine.t * Oracle.t * Machine.outcome * verdict
(** one execution from a decision script, {e strict}: an out-of-range
    choice raises [Invalid_argument] (exposed for driver-internal replay,
    where scripts are machine-generated and a mismatch is a bug) *)

(** The result of one {e clamped} external replay: what the CLI, the
    fuzzer's confirmation pass and the witness detail recovery use. *)
type replayed = {
  r_machine : Machine.t;
  r_outcome : Machine.outcome;
  r_verdict : verdict;
  r_trace : Decision.trace;
      (** the typed decision log of what actually ran — a valid strict
          script, with kinds, sites and rf provenance filled in *)
  r_clamped : int;  (** out-of-range choices clamped during the replay *)
}

val replay : config:Machine.config -> scenario -> Decision.trace -> replayed
(** re-run one script with tracing on, for counterexample display.
    Uniformly {e clamped}: scripts crossing a tool boundary (saved
    corpora, witness files, hand-edited CLI input) may be stale, so
    out-of-range choices take the last alternative and are counted in
    [r_clamped] instead of raising. *)

val rf_class_key : outcome:Machine.outcome -> Access.t list -> string
(** canonical key of an execution's reads-from class: the outcome tag
    plus, per thread in program order, each access's kind/location/mode
    and the {e mo ranks} of the timestamps it read and wrote (ranks, not
    raw timestamps, so the key is placement-independent under the [`Gap]
    policy).  Two interleavings get equal keys iff they realise the same
    execution graph (same per-thread accesses, rf edges and mo order).
    Requires the access log ([record_accesses]).

    The byte format (the rf census and the tests compare keys as
    strings):
{v
key    ::= outcome thread*            threads by ascending tid
outcome::= Machine.outcome_to_string  e.g. finished((),0)  fault: ...
thread ::= "|T" tid ":" event*        tid may be -1 (the init writes)
event  ::= kind lockey mode ["r" rank] ["w" rank] ";"
         | "F" fence ";"
kind   ::= "L" | "S" | "U"            load, store, update (RMW)
lockey ::= Loc.key, in decimal
mode   ::= na | rlx | acq | rel | acq_rel          (Mode.access_to_string)
fence  ::= fence_acq | fence_rel | fence_acq_rel | fence_sc
rank   ::= position of the timestamp among the distinct timestamps
           observed at that location in this log (0 = oldest)
v}
    Events keep log order within a thread, which is program order;
    [r] is present iff the access read a message, [w] iff it wrote one.
    For example, CoRR's first execution keys as
    [finished((),0)|T-1:S0naw0;|T0:S0rlxw1;S0rlxw2;|T1:L0rlxr0;L0rlxr0;]. *)

val default_stride : int
(** decisions between checkpoints in the incremental engine (1: checkpoint
    every decision — maximal reuse; memory is bounded by the decision
    depth either way, so larger strides only trade replayed suffix steps
    for fewer snapshots) *)

val dfs :
  ?max_execs:int ->
  ?reduce:Machine.reduction ->
  ?incremental:bool ->
  ?stride:int ->
  ?until_violation:bool ->
  ?config:Machine.config ->
  scenario ->
  report
(** exhaustive sequential DFS: {!pdfs} at [~jobs:1], in the caller's
    domain.  Under [RNone]/[RSleep] each task bumps the deepest untried
    alternative of the previous run, so the enumeration order is
    lexicographic on decision vectors; under [RDpor]/[RDporRf] tasks
    are explored deepest branch first.  [reduce] selects a partial-order
    reduction (default {!Machine.RNone}): [RSleep] turns on sleep sets —
    redundant interleavings of independent steps are pruned (counted in
    {!report.pruned}), never losing a violation up to graph isomorphism;
    [RDpor] switches to source-DPOR with wakeup sequences ({!Dpor}),
    which explores strictly fewer executions than sleep sets (near one
    per Mazurkiewicz trace) with the same verdicts and kept violations,
    counting its few redundant kills in {!report.dpor_pruned}; [RDporRf]
    stacks the reads-from reduction on top — atomic write/read race
    reversals are not queued (every rf edge a reversal could realise is
    already a read-choice alternative) and completed runs are
    deduplicated by {!rf_class_key}, so [executions] counts exactly the
    distinct rf⊕mo classes, with the same verdicts and kept violations.

    [incremental] (default on) explores with the checkpoint/restore
    engine: one machine built once, a stack of snapshots keyed by decision
    depth, and only the decision suffix past the deepest valid checkpoint
    re-executed per run — instead of replaying every execution from the
    root.  Reports are field-for-field identical either way (the replay
    path, [~incremental:false], is kept as the differential-testing
    oracle); [stride] sets the checkpoint spacing in decisions.

    [max_execs] (default 100 000) bounds the counted executions: pruned
    runs and rf duplicates are not counted, and a search the budget
    truncates reports exactly [max_execs] executions and
    [complete = false].  [until_violation] (default off) stops the
    search at the first kept violation — what the mode-necessity audit
    uses to witness a broken mutant without paying for the rest of the
    tree.  A search cut short this way reports [complete = false]. *)

val pdfs :
  ?jobs:int ->
  ?max_execs:int ->
  ?reduce:Machine.reduction ->
  ?incremental:bool ->
  ?stride:int ->
  ?until_violation:bool ->
  ?config:Machine.config ->
  scenario ->
  report
(** the exploration driver, for every [reduce]: each of the [jobs]
    domains (default [Domain.recommended_domain_count ()]; at [jobs = 1]
    the caller's domain, none spawned) owns a Chase-Lev deque
    ({!Wsdeque}) of tasks that partition the tree — decision prefixes
    under [RNone]/[RSleep], {!Dpor} tasks (prefixes with their
    wakeup-sequence and sleep-install obligations) under
    [RDpor]/[RDporRf].  After each run a worker pushes the run's child
    tasks shallow-first: its own LIFO pops continue with the deepest
    (the sequential {!dfs} order), idle workers steal the shallowest —
    the largest — pending subtree.  Per-domain statistics are merged
    into one report, with kept violations re-sorted into script order.
    Each worker keeps one incremental engine (machine + checkpoint
    stack) for its whole lifetime, and claims execution budget in
    batches rather than one atomic per run; a worker stops only when it
    can get no budget, so a truncated search counts exactly [max_execs]
    executions at any job count (not necessarily the same subset as
    {!dfs}).

    Under [RNone]/[RSleep], on a complete search, [pdfs ~jobs] and
    {!dfs} agree on every report field; kept violations are the
    lexicographically first scripts, so they agree on those too
    whenever at most 16 violations exist.  Under [RDpor]/[RDporRf] the
    verdicts and violation sets are the sequential search's, but the
    execution {e count} may differ run to run — racing workers can both
    explore a branch the other would have put to sleep; under [RDporRf]
    the shared rf-class table makes the counted executions — the
    distinct classes — schedule-independent again on complete
    searches. *)

val random : ?execs:int -> ?seed:int -> ?config:Machine.config -> scenario -> report
