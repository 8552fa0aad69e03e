open Compass_rmc
open Compass_event

(** The interleaving machine.

    One machine instance executes one scenario once: a deterministic solo
    setup phase (allocation, initialisation), a concurrent phase (threads
    interleaved step by step, nondeterminism resolved by an oracle), and
    an optional finale running with the join of all thread views (the
    parent after joining its children).

    Because ORC11 forbids load-buffering ([po ∪ rf] acyclic — the model's
    defining restriction, Section 1.2), an interleaving-based operational
    semantics with stale-read choices is adequate: weak behaviours come
    from reading old messages and from view-limited message views, never
    from cycles in [po ∪ rf]. *)

type config = {
  max_steps : int;  (** per concurrent phase; exceeding yields [Bounded] *)
  policy : Memory.policy;
  backend : Memory.backend;
      (** history representation; [`Flat] (default) is the fast path,
          [`Map] the differential oracle ([`Gap] policy forces [`Map]) *)
  record_trace : bool;
  record_accesses : bool;
      (** record memory accesses for the axiomatic differential check
          ({!Rc11}) *)
  overrides : Override.t;
      (** mode overrides applied by site label just before an instruction
          executes — how the synchronization audit runs weakened mutants
          of unmodified programs *)
}

val default_config : config

type thread = {
  tid : int;
  mutable prog : Value.t Prog.t;
  mutable tv : Tview.t;
  mutable finished : Value.t option;
}

type outcome =
  | Finished of Value.t array  (** all threads returned; their results *)
  | Fault of string  (** data race, uninitialised read, or program error *)
  | Blocked of string  (** deadlock on [await], or a spin loop out of fuel *)
  | Bounded  (** step budget exhausted *)
  | Pruned
      (** partial-order reduction stopped the run: the scheduled thread
          was asleep, so the subtree is a commuted copy of one already
          explored.  Only produced by {!run} with a reduction other than
          [RNone]; never counted as an execution by the explorer. *)

val pp_outcome : Format.formatter -> outcome -> unit

val outcome_to_string : outcome -> string
(** the text {!pp_outcome} prints, e.g. ["finished((),0)"],
    ["fault: data race on node"], ["bounded"] *)

type reduction =
  | RNone  (** explore every interleaving the oracle asks for *)
  | RSleep
      (** Godefroid sleep sets, reconstructed from DFS sibling order
          during replay — self-contained in the machine *)
  | RDpor
      (** source-DPOR: the machine records the (tid, footprint) step log,
          honours driver-installed sleep sets ({!set_sleep}) and wakes
          sleepers on dependent steps; backtrack/wakeup-tree logic lives
          in the {!Explore} DPOR driver *)
  | RDporRf
      (** reads-from–aware source-DPOR: identical to [RDpor] inside the
          machine; the driver additionally skips atomic write/read race
          reversals (covered by read-choice alternatives) and deduplicates
          executions by reads-from class — one counted execution per
          distinct rf⊕mo graph *)

type t

val create : ?config:config -> unit -> t
val registry : t -> Registry.t
val memory : t -> Memory.t
val trace : t -> Trace.entry list

val accesses : t -> Access.t list
(** recorded memory accesses (oldest first), when [record_accesses] is on *)

val steps : t -> int
val new_graph : t -> name:string -> Graph.t

val solo : ?tid:int -> t -> Value.t Prog.t -> Value.t
(** run a program to completion deterministically on a pseudo-thread
    sharing the setup view; for setup (before {!spawn}) and finale (after
    {!run}).
    @raise Failure on divergence or a blocked await *)

val alloc : t -> ?init:Value.t -> name:string -> int -> Loc.t
(** convenience: allocate during setup *)

val spawn : t -> Value.t Prog.t list -> unit
(** install the concurrent threads, each starting from the setup view *)

val spawned_progs : t -> Value.t Prog.t list
(** the thread programs as handed to {!spawn} (thread [i]'s tid is [i]),
    before any execution consumed them — how the static analyzer
    ({!Compass_static}) gets at a built scenario's program terms *)

val thread_view : t -> int -> Tview.t

val prime : t -> unit
(** initialise the concurrent-phase step deadline and sleep set without
    running — what {!run}[ ~resume:false] does on entry.  The incremental
    explorer primes once after build, takes the root {!snapshot}, and then
    always runs with [~resume:true]. *)

val run :
  ?reduction:reduction ->
  ?resume:bool ->
  ?on_step:(unit -> unit) ->
  ?on_sched:(unit -> unit) ->
  t ->
  Oracle.t ->
  outcome
(** interleave the spawned threads to completion (or fault / block /
    budget).  With [~reduction:RSleep] the scheduler maintains a sleep
    set along the replayed path and stops with {!Pruned} as soon as the
    decision script schedules a sleeping thread — i.e. as soon as the run
    would only commute independent steps of an already-explored subtree.
    Two pending steps are independent when they touch different locations
    or are both reads (and neither is an allocation or SC fence); see
    DESIGN.md, "Parallel exploration & reduction".  With
    [~reduction:RDpor] the sleep sets come from the driver ({!set_sleep})
    instead of sibling order, and every concurrent-phase step is logged
    ({!dpor_steps}) for the dependency analysis.

    [resume] (default off) continues a concurrent phase from a state
    installed by {!restore}: the step deadline and sleep set of the
    checkpointed phase are kept instead of being re-initialised, so the
    resumed run bounds and prunes exactly like a from-the-root replay of
    the same decision script.  [on_step] is called after every completed
    machine step; [on_sched] is called at the settled step boundary just
    before a scheduling choice with more than one alternative is
    consumed.  Both are the incremental explorer's checkpoint hooks. *)

(** {1 DPOR driver hooks}

    Used by the {!Explore} source-DPOR driver; state observed or
    installed at settled step boundaries (inside an oracle pick or an
    [on_sched] callback). *)

val dpor_steps : t -> (int * Deps.footprint) array
(** the (tid, footprint) log of every concurrent-phase step taken along
    the current path, oldest first — only maintained under [RDpor] *)

val dpor_depth : t -> int
(** [Array.length (dpor_steps m)] without building the array *)

val get_sleep : t -> (int * Deps.footprint) list
val set_sleep : t -> (int * Deps.footprint) list -> unit

val pending_footprint : t -> int -> Deps.footprint
(** footprint of the next operation of the thread with this tid *)

type snapshot
(** a value-copy of all machine state (threads, memory, graphs, views,
    sleep set, DPOR step log), sharing persistent substructure:
    O(#locations + #graphs + #threads) pointers.  Valid to take between
    machine steps. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** roll the machine — including its memory, registry and thread records,
    all mutated in place so handles captured at build time stay valid —
    back to [snapshot].  Follow with {!run}[ ~resume:true] to re-explore
    from that point under a different decision suffix. *)

val join_views : t -> unit
(** join all thread views into the setup view (parent joins children) *)

val finale : t -> Value.t Prog.t -> Value.t
(** {!join_views} then {!solo} — e.g. to read results non-atomically
    without racing *)
