(* Source-DPOR with wakeup sequences (Abdulla, Aronis, Jonsson, Sagonas,
   "Optimal dynamic partial order reduction").

   The exploration is organised as a tree of *tasks*.  A task is a
   decision-script prefix that must be replayed verbatim, together with
   the sleep sets to install at the branch points along it and an
   optional wakeup sequence steering the free suffix.  Running a task
   yields one execution; its scheduling observations create *nodes* (one
   per multi-alternative scheduling choice), its data observations spawn
   sibling tasks for the untaken read/timestamp alternatives (DPOR
   reduces over scheduling only — data nondeterminism is enumerated
   exhaustively, exactly as in the sleep-set and unreduced modes), and a
   race analysis of its step log ({!Deps.races}) inserts backtrack tasks
   at the nodes where a reversible race can be scheduled the other way.

   Per node we keep the runnable threads with their pending footprints,
   the set of threads scheduled there so far — explored or queued: the
   node's *source set* — and per explored branch the sleep set a task
   taking that branch must install: the branches scheduled before it.
   That is the classic sleep-set discipline keyed to the DPOR tree
   instead of left-to-right DFS order; the machine re-arms it on every
   replay (installs are positional), filters it as dependent steps wake
   sleepers, and kills with [Pruned] any execution that schedules a
   sleeping thread.

   Race integration follows the source-DPOR rule.  For a reversible race
   (i, j) with branch node [n] at step [i]:

     v        = notdep(i) · j   (the steps after i not trace-ordered
                                 behind i, then j itself)
     I(v)     = threads whose first step in v has no happens-before
                predecessor inside v (all enabled at n)

   If some thread of I(v) is already in n's source set the reversal is
   covered; otherwise we queue a branch for a member of I(v) that is not
   sleeping at n — preferring v's own first thread, in which case the
   rest of v rides along as the wakeup sequence so the new execution
   drives straight to the reversed race instead of rediscovering it.

   Everything here is pure bookkeeping over ints and footprints: the
   module knows nothing about {!Machine} (the {!Explore} driver feeds it
   observations and step logs), which keeps the dependency order
   machine → deps → dpor → explore acyclic. *)

type fp = Deps.footprint

type node = {
  n_pos : int;  (** oracle decision position of this scheduling choice *)
  n_step : int;  (** index of the machine step this choice schedules *)
  n_tids : int array;  (** runnable tids; choice [c] runs [n_tids.(c)] *)
  n_fps : fp array;  (** pending footprint of each runnable thread *)
  n_sleep : (int * fp) list;
      (** sleep set inherited at this node — path-determined, so recording
          it once at node creation is exact *)
  mutable n_sched : int list;
      (** source set: tids scheduled here (explored or queued), in
          insertion order *)
  mutable n_installs : (int * (int * fp) list) list;
      (** per branch choice, the sleep entries a task taking that branch
          installs: the branches scheduled before it.  Fixed at branch
          creation, so every task through the same (node, branch) shares
          checkpoint-consistent sleep state. *)
}

type task = {
  t_script : Decision.trace;  (** decision prefix to replay verbatim *)
  t_installs : (int * (int * fp) list) list;
      (** decision position -> sleep entries, ascending; applied by the
          driver's oracle when the replay reaches each position *)
  t_path : (int * node) list;
      (** (step, node) for every branch node along the prefix, ascending *)
  t_wakeup : int list;
      (** wakeup sequence: tids to prefer at scheduling choices past the
          branch point, abandoned on first divergence *)
  t_branch_step : int;
      (** step index of the branch node; races wholly before it were
          analysed by ancestor tasks *)
}

let root_task =
  {
    t_script = [||];
    t_installs = [];
    t_path = [];
    t_wakeup = [];
    t_branch_step = 0;
  }

let script t = t.t_script
let installs t = t.t_installs
let wakeup t = t.t_wakeup
let branch_step t = t.t_branch_step

(* Observations recorded by the driver's oracle at decision positions past
   the task's scripted prefix. *)
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

type t = {
  lock : Mutex.t;
      (** guards the nodes' mutable source sets and branch installs, which
          tasks integrated on different domains share *)
  rf : bool;
      (** reads-from–aware mode: skip atomic write/read race reversals —
          with the later read's rf edge fixed, both orders reach the same
          machine state, and every rf edge the reversal could realise is
          already enumerated as a data sibling of the read choice.
          Reversals involving a non-atomic access are kept: the machine's
          na-race fault detection is order-sensitive. *)
}

let create ?(rf = false) () = { lock = Mutex.create (); rf }

let array_index a x =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) = x then Some i else go (i + 1) in
  go 0

(* Process one finished (or pruned) execution of [task]: create nodes from
   its fresh scheduling observations, spawn sibling tasks for untaken data
   alternatives, and integrate the reversible races of its step log.
   [ds] is the full decision trace, [obs] the observations in execution
   order, [steps] the (tid, footprint) step log oldest first.  Returns
   the spawned tasks shallowest branch first. *)
let integrate st task ~ds ~obs ~steps =
  Mutex.lock st.lock;
  let slen = Array.length task.t_script in
  let fresh_nodes =
    List.filter_map
      (function
        | Osched o when o.o_pos >= slen ->
            Some
              ( o.o_step,
                {
                  n_pos = o.o_pos;
                  n_step = o.o_step;
                  n_tids = o.o_tids;
                  n_fps = o.o_fps;
                  n_sleep = o.o_sleep;
                  n_sched = [ o.o_tids.(o.o_taken) ];
                  n_installs = [];
                } )
        | _ -> None)
      obs
  in
  let path = task.t_path @ fresh_nodes in
  let children = ref [] in
  (* Install list for a child branching at decision position [pos]: every
     non-empty branch install along its prefix, read back from the fixed
     per-(node, branch) records. *)
  let installs_below pos =
    List.filter_map
      (fun (_, nd) ->
        if nd.n_pos >= pos then None
        else
          match List.assoc_opt ds.(nd.n_pos).Decision.choice nd.n_installs with
          | Some (_ :: _ as inst) -> Some (nd.n_pos, inst)
          | _ -> None)
      path
  in
  let path_below pos = List.filter (fun (_, nd) -> nd.n_pos < pos) path in
  (* Data siblings: every untaken alternative of a fresh data choice owns
     a disjoint subtree; enumerate them all (DPOR does not reduce data
     nondeterminism). *)
  List.iter
    (function
      | Odata o when o.o_pos >= slen && o.o_arity > 1 ->
          let pre_installs = installs_below o.o_pos in
          let pre_path = path_below o.o_pos in
          for c = o.o_arity - 1 downto 0 do
            if c <> o.o_taken then
              children :=
                {
                  t_script =
                    Array.append (Array.sub ds 0 o.o_pos)
                      [| Decision.resolve ds.(o.o_pos) c |];
                  t_installs = pre_installs;
                  t_path = pre_path;
                  t_wakeup = [];
                  t_branch_step = o.o_step;
                }
                :: !children
          done
      | _ -> ())
    obs;
  (* Queue branch [u] (choice [c]) at node [nd], sleeping every branch
     scheduled before it. *)
  let spawn_branch nd c u ~wakeup =
    let install =
      List.map
        (fun w ->
          match array_index nd.n_tids w with
          | Some i -> (w, nd.n_fps.(i))
          | None -> (w, Deps.FGlobal) (* unreachable: w was runnable *))
        nd.n_sched
    in
    nd.n_installs <- (c, install) :: nd.n_installs;
    nd.n_sched <- nd.n_sched @ [ u ];
    let branch =
      let d = Decision.resolve ds.(nd.n_pos) c in
      d.Decision.kind <- Decision.Sched nd.n_tids.(c);
      d
    in
    children :=
      {
        t_script = Array.append (Array.sub ds 0 nd.n_pos) [| branch |];
        t_installs = installs_below nd.n_pos @ [ (nd.n_pos, install) ];
        t_path = path_below nd.n_pos @ [ (nd.n_step, nd) ];
        t_wakeup = wakeup;
        t_branch_step = nd.n_step;
      }
      :: !children
  in
  let sarr = Deps.analyze_steps steps in
  (* In rf mode, atomic-write-before-atomic-read races need no reversal:
     the read's alternatives (its data siblings) already cover every
     message the reversed order could make it read, and with the rf edge
     fixed both orders commute to the same state. *)
  let keep_race (i, j) =
    (not st.rf)
    ||
    match (Deps.step_fp sarr i, Deps.step_fp sarr j) with
    | Deps.FWrite _, Deps.FRead _ -> false
    | _ -> true
  in
  List.iter
    (fun (i, j) ->
      match List.assoc_opt i path with
      | None ->
          (* Step i was forced: its thread was the only one runnable, so
             [notdep(i) · j] — whose first step is enabled there and is
             never of i's thread — cannot be scheduled: the race is not
             reversible at this state. *)
          ()
      | Some nd ->
          let v = ref [ j ] in
          for k = j - 1 downto i + 1 do
            if not (Deps.hb sarr i k) then v := k :: !v
          done;
          let v = !v in
          let initials =
            let rec go acc seen = function
              | [] -> List.rev acc
              | k :: rest ->
                  let blocked = List.exists (fun l -> Deps.hb sarr l k) seen in
                  let t = Deps.step_tid sarr k in
                  let acc =
                    if blocked || List.mem t acc then acc else t :: acc
                  in
                  go acc (k :: seen) rest
            in
            go [] [] v
          in
          if List.exists (fun t -> List.mem t nd.n_sched) initials then
            (* some initial already in the source set: covered *)
            ()
          else begin
            let sleeping = List.map fst nd.n_sleep in
            match
              List.filter (fun t -> not (List.mem t sleeping)) initials
            with
            | [] -> () (* every initial asleep: covered at an ancestor *)
            | candidates -> (
                let first_tid = Deps.step_tid sarr (List.hd v) in
                let u =
                  if List.mem first_tid candidates then first_tid
                  else List.hd candidates
                in
                match array_index nd.n_tids u with
                | Some c ->
                    let wakeup =
                      if u = first_tid then
                        List.map (Deps.step_tid sarr) (List.tl v)
                      else []
                    in
                    spawn_branch nd c u ~wakeup
                | None ->
                    (* Defensive fallback — an initial should always be
                       runnable at the node; if the approximation ever
                       disagrees, fall back to opening every unexplored,
                       non-sleeping branch (complete, merely
                       conservative). *)
                    Array.iteri
                      (fun c w ->
                        if
                          (not (List.mem w nd.n_sched))
                          && not (List.mem w sleeping)
                        then spawn_branch nd c w ~wakeup:[])
                      nd.n_tids)
          end)
    (List.filter keep_race (Deps.races ~from:task.t_branch_step sarr));
  (* Shallowest branch first: the driver pushes them in this order, so
     its LIFO pop takes the deepest — at jobs = 1 the DPOR tree is
     explored depth-first, which keeps the incremental engine's
     divergence suffixes short. *)
  let sorted =
    List.stable_sort (fun a b -> compare a.t_branch_step b.t_branch_step)
      !children
  in
  Mutex.unlock st.lock;
  sorted
