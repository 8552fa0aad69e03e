open Compass_rmc
open Compass_machine
open Compass_dstruct
open Compass_clients
open Prog.Syntax

(* The exploration engine: the work-stealing search ([Explore.pdfs]) at
   any job count must agree with the sequential one ([Explore.dfs], the
   same loop at one job) field for field, sleep-set reduction must
   explore strictly fewer executions without losing any violation or
   litmus verdict, budgets and [until_violation] must behave the same
   under every reduction, and per-execution machines must be isolated
   enough to run on several domains at once. *)

let vi n = Value.Int n

let msgs (r : Explore.report) =
  List.sort compare (List.map (fun (f : Explore.failure) -> f.Explore.message) r.Explore.violations)

let scripts (r : Explore.report) =
  List.sort compare
    (List.map
       (fun (f : Explore.failure) -> Array.to_list (Explore.failure_script f))
       r.Explore.violations)

let report_eq ~name (a : Explore.report) (b : Explore.report) =
  Alcotest.(check int) (name ^ ": executions") a.Explore.executions b.Explore.executions;
  Alcotest.(check int) (name ^ ": passed") a.Explore.passed b.Explore.passed;
  Alcotest.(check int) (name ^ ": discarded") a.Explore.discarded b.Explore.discarded;
  Alcotest.(check int) (name ^ ": blocked") a.Explore.blocked b.Explore.blocked;
  Alcotest.(check int) (name ^ ": bounded") a.Explore.bounded b.Explore.bounded;
  Alcotest.(check int) (name ^ ": pruned") a.Explore.pruned b.Explore.pruned;
  Alcotest.(check int) (name ^ ": dpor_pruned") a.Explore.dpor_pruned b.Explore.dpor_pruned;
  Alcotest.(check bool) (name ^ ": complete") a.Explore.complete b.Explore.complete;
  Alcotest.(check (list string)) (name ^ ": violation multiset") (msgs a) (msgs b)

let red_name = function
  | Machine.RNone -> "none"
  | Machine.RSleep -> "sleep"
  | Machine.RDpor -> "dpor"
  | Machine.RDporRf -> "dpor-rf"

(* For two drivers with the same enumeration order (e.g. incremental vs
   replay-from-root DFS) the kept violations must match script for
   script, not just message for message. *)
let report_eq_strict ~name a b =
  report_eq ~name a b;
  Alcotest.(check (list (list int)))
    (name ^ ": violation scripts (sorted)")
    (scripts a) (scripts b)

(* An intentionally broken scenario: MP over raw cells with a relaxed
   flag, where the stale read is reported as a violation.  The full DFS
   finds it, and so must every reduced or parallel variant.  A third
   thread hammers an unrelated location so there is genuine scheduling
   nondeterminism for the sleep sets to prune. *)
let seeded_mp_violation () =
  {
    Explore.name = "seeded-mp-rlx";
    build =
      (fun m ->
        let x = Machine.alloc m ~name:"x" ~init:(vi 0) 1 in
        let y = Machine.alloc m ~name:"y" ~init:(vi 0) 1 in
        let flag = Machine.alloc m ~name:"flag" ~init:(vi 0) 1 in
        let t1 =
          let* () = Prog.store x (vi 1) Mode.Rlx in
          let* () = Prog.store flag (vi 1) Mode.Rlx in
          Prog.return Value.Unit
        in
        let t2 =
          let* _ = Prog.await flag Mode.Rlx (Value.equal (vi 1)) in
          Prog.load x Mode.Rlx
        in
        let t3 =
          let* () = Prog.store y (vi 1) Mode.Rlx in
          let* () = Prog.store y (vi 2) Mode.Rlx in
          Prog.return Value.Unit
        in
        Machine.spawn m [ t1; t2; t3 ];
        function
        | Machine.Finished [| _; r2; _ |] ->
            if Value.equal r2 (vi 0) then Explore.Violation "stale read of x"
            else Explore.Pass
        | Machine.Finished _ -> Explore.Violation "arity"
        | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
        | Machine.Blocked s -> Explore.Discard s
        | Machine.Bounded -> Explore.Discard "bounded"
        | Machine.Pruned -> Explore.Discard "pruned");
  }

(* The equivalence scenarios the spec asks for — an MP queue client, a
   litmus test, and Treiber stack workloads — plus a seeded violation.
   The 2-pusher Treiber tree has ~300k executions, so that one runs with
   reduction on both sides; the small Treiber covers the unreduced
   path. *)
let equivalence_cases () =
  [
    ( "mp-queue",
      Machine.RNone,
      fun () -> Mp.make Msqueue.instantiate (Mp.fresh_stats ()) );
    ("litmus-sb", Machine.RNone, fun () -> (Litmus.sb ()).Litmus.scenario);
    ( "treiber-small",
      Machine.RNone,
      fun () ->
        Harness.stack_workload Treiber.instantiate ~pushers:1 ~poppers:1 ~ops:1 () );
    ( "treiber-reduced",
      Machine.RSleep,
      fun () ->
        Harness.stack_workload Treiber.instantiate ~pushers:2 ~poppers:1 ~ops:1 () );
    ("seeded-violation", Machine.RNone, fun () -> seeded_mp_violation ());
  ]

(* -- incremental vs replay-from-root differential suite ----------------------

   The incremental checkpoint/restore engine must be observationally
   identical to the replay-from-root oracle: same enumeration order, so
   every report field — including the kept violation scripts — must agree
   exactly, whatever the checkpoint stride, with and without sleep-set
   reduction, and under pdfs sharding (per-worker engines). *)

let test_incremental_equivalence () =
  List.iter
    (fun (name, _, mk) ->
      List.iter
        (fun reduce ->
          let oracle =
            Explore.dfs ~incremental:false ~reduce ~max_execs:200_000 (mk ())
          in
          List.iter
            (fun stride ->
              let inc =
                Explore.dfs ~incremental:true ~stride ~reduce
                  ~max_execs:200_000 (mk ())
              in
              report_eq_strict
                ~name:
                  (Printf.sprintf "%s (reduce %s, stride %d)" name
                     (red_name reduce) stride)
                oracle inc)
            [ 1; 2; 5 ])
        [ Machine.RNone; Machine.RSleep ])
    (equivalence_cases ())

let test_incremental_litmus () =
  (* Every litmus verdict — pass/fail plus observation counts — is
     preserved by the incremental engine. *)
  List.iter
    (fun mk ->
      let t_seq = mk () and t_inc = mk () in
      let ok_seq, r_seq, obs_seq = Litmus.verdict ~incremental:false t_seq in
      let ok_inc, r_inc, obs_inc = Litmus.verdict ~incremental:true t_inc in
      Alcotest.(check bool)
        (r_seq.Explore.name ^ ": verdict preserved incrementally")
        ok_seq ok_inc;
      Alcotest.(check int)
        (r_seq.Explore.name ^ ": observation count preserved")
        obs_seq obs_inc;
      report_eq_strict ~name:r_seq.Explore.name r_seq r_inc)
    [
      Litmus.sb; Litmus.sb_sc_fences; (fun () -> Litmus.mp ());
      Litmus.mp_fences; Litmus.corr; Litmus.cowr; Litmus.lb; Litmus.wrc;
      (fun () -> Litmus.faa_atomic ());
    ]

let test_incremental_pdfs () =
  (* Sharding composes with checkpointing: each worker's engine only ever
     restores checkpoints of its own shard, so incremental pdfs matches
     the replay-from-root sequential driver field for field. *)
  List.iter
    (fun (name, reduce, mk) ->
      let oracle =
        Explore.dfs ~incremental:false ~reduce ~max_execs:200_000 (mk ())
      in
      let par =
        Explore.pdfs ~jobs:4 ~incremental:true ~reduce ~max_execs:200_000
          (mk ())
      in
      report_eq ~name:(name ^ " (incremental pdfs vs replay dfs)") oracle par)
    (equivalence_cases ())

let test_pdfs_equivalence () =
  List.iter
    (fun (name, reduce, mk) ->
      let seq = Explore.dfs ~reduce ~max_execs:200_000 (mk ()) in
      Alcotest.(check bool) (name ^ ": sequential exhausts") true seq.Explore.complete;
      List.iter
        (fun jobs ->
          let par = Explore.pdfs ~jobs ~reduce ~max_execs:200_000 (mk ()) in
          report_eq ~name:(Printf.sprintf "%s (jobs %d)" name jobs) seq par)
        [ 2; 4 ])
    (equivalence_cases ())

let test_reduce_equivalence () =
  (* Reduced DFS: same verdict on every litmus test, strictly fewer
     executions over the battery, and a nonzero pruned tally. *)
  let full_total = ref 0 and red_total = ref 0 and pruned_total = ref 0 in
  List.iter
    (fun mk ->
      let t_full = mk () and t_red = mk () in
      let ok_full, r_full, obs_full = Litmus.verdict t_full in
      let ok_red, r_red, _ = Litmus.verdict ~reduce:Machine.RSleep t_red in
      Alcotest.(check bool)
        (r_full.Explore.name ^ ": verdict preserved under reduction")
        ok_full ok_red;
      (match t_full.Litmus.expect with
      | `Observable ->
          Alcotest.(check bool)
            (r_full.Explore.name ^ ": observable outcome survives reduction")
            true
            (obs_full > 0)
      | `Forbidden -> ());
      full_total := !full_total + r_full.Explore.executions;
      red_total := !red_total + r_red.Explore.executions;
      pruned_total := !pruned_total + r_red.Explore.pruned)
    [
      Litmus.sb; Litmus.sb_sc_fences; (fun () -> Litmus.mp ());
      Litmus.mp_fences; Litmus.corr; Litmus.cowr; Litmus.lb; Litmus.wrc;
      (fun () -> Litmus.faa_atomic ());
    ];
  Alcotest.(check bool)
    (Printf.sprintf "battery: reduced %d < full %d executions" !red_total !full_total)
    true
    (!red_total < !full_total);
  Alcotest.(check bool) "battery: subtrees were pruned" true (!pruned_total > 0)

let test_reduce_keeps_violations () =
  let full = Explore.dfs (seeded_mp_violation ()) in
  let red = Explore.dfs ~reduce:Machine.RSleep (seeded_mp_violation ()) in
  Alcotest.(check bool) "full DFS finds the seeded violation" false (Explore.ok full);
  Alcotest.(check bool) "reduced DFS finds it too" false (Explore.ok red);
  (* Reduction collapses equivalent violating interleavings to one
     representative, so instance counts shrink — but every distinct
     violation must survive. *)
  let distinct r = List.sort_uniq compare (msgs r) in
  Alcotest.(check (list string)) "distinct violations preserved" (distinct full)
    (distinct red);
  Alcotest.(check bool) "reduction explored fewer executions" true
    (red.Explore.executions < full.Explore.executions)

let test_pdfs_reduce () =
  (* Reduction composes with sharding: replay reconstructs the sleep sets
     from the root, so pruning is identical however the tree is carved. *)
  let seq = Explore.dfs ~reduce:Machine.RSleep (seeded_mp_violation ()) in
  let par =
    Explore.pdfs ~jobs:4 ~reduce:Machine.RSleep (seeded_mp_violation ())
  in
  report_eq ~name:"reduced pdfs vs reduced dfs" seq par

(* -- flat vs map backend differential suite ----------------------------------

   The flat array store (growable write-history arrays, truncating
   restores) must be observationally identical to the persistent-map
   oracle.  Both backends feed the same machine the same choices in the
   same order, so the comparison is exact — every report field including
   the kept violation scripts — with and without sleep-set reduction,
   replaying from the root or from checkpoints at any stride, and under
   the work-stealing parallel driver at any job count. *)

let map_config = { Machine.default_config with Machine.backend = `Map }

let backend_cases () =
  ( "hw-queue",
    Machine.RNone,
    fun () -> Mp.make Hwqueue.instantiate (Mp.fresh_stats ()) )
  :: equivalence_cases ()

let test_backend_equivalence () =
  List.iter
    (fun (name, _, mk) ->
      List.iter
        (fun reduce ->
          (* Same enumeration order on both sides, so a budget-capped run
             compares exactly too — the big trees need not exhaust. *)
          let oracle =
            Explore.dfs ~config:map_config ~incremental:false ~reduce
              ~max_execs:60_000 (mk ())
          in
          let replay =
            Explore.dfs ~incremental:false ~reduce ~max_execs:60_000 (mk ())
          in
          report_eq_strict
            ~name:
              (Printf.sprintf "%s (map vs flat replay, reduce %s)" name
                 (red_name reduce))
            oracle replay;
          List.iter
            (fun stride ->
              let inc =
                Explore.dfs ~incremental:true ~stride ~reduce ~max_execs:60_000
                  (mk ())
              in
              report_eq_strict
                ~name:
                  (Printf.sprintf "%s (map vs flat stride %d, reduce %s)" name
                     stride (red_name reduce))
                oracle inc)
            [ 1; 2; 5 ])
        [ Machine.RNone; Machine.RSleep ])
    (backend_cases ())

let test_backend_pdfs () =
  (* Parallel flat exploration vs the sequential map oracle: on a
     complete search the work-stealing partition covers exactly the same
     executions whatever the job count. *)
  List.iter
    (fun (name, reduce, mk) ->
      let oracle =
        Explore.dfs ~config:map_config ~reduce ~max_execs:200_000 (mk ())
      in
      Alcotest.(check bool)
        (name ^ ": map oracle exhausts")
        true oracle.Explore.complete;
      List.iter
        (fun jobs ->
          let par = Explore.pdfs ~jobs ~reduce ~max_execs:200_000 (mk ()) in
          report_eq
            ~name:(Printf.sprintf "%s (flat pdfs jobs %d vs map dfs)" name jobs)
            oracle par)
        [ 1; 2; 4 ])
    (backend_cases ())

let test_domain_isolation () =
  (* Hammer two domains with allocation-heavy exploration concurrently;
     every per-execution machine must be isolated (the shared block-name
     registry is the one global, and it is mutex-guarded). *)
  let explore () = Explore.dfs ~max_execs:2_000 (Mp.make Msqueue.instantiate (Mp.fresh_stats ())) in
  let reference = explore () in
  let domains = Array.init 2 (fun _ -> Domain.spawn explore) in
  Array.iter
    (fun d -> report_eq ~name:"concurrent domain" reference (Domain.join d))
    domains

(* -- budget and stop behaviour ------------------------------------------------

   Every reduction runs on the same work-stealing loop, so every
   reduction at every job count must spend a truncating budget exactly —
   a worker stops only when no slot is left, not when another worker ran
   out — and must stop at the first kept violation under
   [until_violation]. *)

let all_reductions =
  [ Machine.RNone; Machine.RSleep; Machine.RDpor; Machine.RDporRf ]

let test_budget_and_stop () =
  let max_execs = 150 in
  List.iter
    (fun reduce ->
      List.iter
        (fun jobs ->
          let name = Printf.sprintf "%s, jobs %d" (red_name reduce) jobs in
          let r =
            Explore.pdfs ~jobs ~reduce ~max_execs
              (Harness.queue_workload Lockqueue.instantiate ~enqers:2
                 ~deqers:2 ~ops:1 ())
          in
          Alcotest.(check int)
            (name ^ ": budget spent exactly")
            max_execs r.Explore.executions;
          Alcotest.(check bool)
            (name ^ ": budget-limited") false r.Explore.complete;
          let v =
            Explore.pdfs ~jobs ~reduce ~until_violation:true
              (seeded_mp_violation ())
          in
          Alcotest.(check bool)
            (name ^ ": until_violation keeps a violation")
            true
            (v.Explore.violations <> []);
          Alcotest.(check bool)
            (name ^ ": stopped early") false v.Explore.complete)
        [ 1; 2 ])
    all_reductions

let suite =
  [
    Alcotest.test_case "incremental == replay dfs (strides 1/2/5, ±reduce)"
      `Slow test_incremental_equivalence;
    Alcotest.test_case "incremental preserves litmus verdicts" `Quick
      test_incremental_litmus;
    Alcotest.test_case "incremental pdfs == replay dfs" `Slow
      test_incremental_pdfs;
    Alcotest.test_case "pdfs == dfs (3 scenarios + seeded violation)" `Slow
      test_pdfs_equivalence;
    Alcotest.test_case "sleep sets preserve litmus verdicts" `Slow
      test_reduce_equivalence;
    Alcotest.test_case "sleep sets keep seeded violations" `Quick
      test_reduce_keeps_violations;
    Alcotest.test_case "reduced pdfs == reduced dfs" `Quick test_pdfs_reduce;
    Alcotest.test_case "flat == map oracle (±reduce, strides 1/2/5)" `Slow
      test_backend_equivalence;
    Alcotest.test_case "flat pdfs (jobs 1/2/4) == map dfs" `Slow
      test_backend_pdfs;
    Alcotest.test_case "two domains explore concurrently" `Slow
      test_domain_isolation;
    Alcotest.test_case "budget and until_violation (every reduce, jobs 1/2)"
      `Quick test_budget_and_stop;
  ]
