(* COMPASS-OCaml benchmark harness.

   One Bechamel group per experiment of DESIGN.md's index (E1-E6; E7 is a
   report, produced by [bin/compass report]).  The paper's evaluation is a
   body of verifications, so what we measure is the *cost of checking*: the
   model checker's execution throughput per structure and client, and the
   per-execution cost of each spec-style checker — the operational
   counterpart of proof effort.  Absolute numbers are machine-dependent;
   the interesting shape is the relative cost of spec styles (LAThist's
   search > graph checks > abstract-state replay) and of structures
   (elimination stack > its parts). *)

open Bechamel
open Toolkit
open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Compass_clients
open Compass_util
module Fz = Compass_fuzz

let vi n = Value.Int n

(* Structures resolve through the central spec registry, like the CLI. *)
let queue_factory key =
  match Specreg.find key with
  | Some { Compass_spec.Libspec.impl = Specreg.Queue f; _ } -> f
  | _ -> failwith ("no registered queue implementation: " ^ key)

let stack_factory key =
  match Specreg.find key with
  | Some { Compass_spec.Libspec.impl = Specreg.Stack f; _ } -> f
  | _ -> failwith ("no registered stack implementation: " ^ key)

(* -- graph sampling: one representative finished execution ------------------- *)

let sample_queue_graph (factory : Iface.queue_factory) ~enqers ~deqers ~ops
    ~seed =
  let rec try_seed seed =
    let m = Machine.create () in
    let q = factory.make_queue m ~name:"q" in
    Machine.spawn m
      (List.init enqers (fun tid ->
           Prog.returning_unit
             (Prog.for_ 0 (ops - 1) (fun i ->
                  q.Iface.enq (Harness.val_of ~tid ~i))))
      @ List.init deqers (fun _ ->
            Prog.returning_unit
              (Prog.for_ 0 (ops - 1) (fun _ ->
                   Prog.bind (q.Iface.deq ()) (fun _ -> Prog.return ())))));
    match Machine.run m (Oracle.random ~seed) with
    | Machine.Finished _ -> q.Iface.q_graph
    | _ -> try_seed (seed + 1)
  in
  try_seed seed

let sample_stack_graph (factory : Iface.stack_factory) ~pushers ~poppers ~ops
    ~seed =
  let rec try_seed seed =
    let m = Machine.create () in
    let s = factory.make_stack m ~name:"s" in
    Machine.spawn m
      (List.init pushers (fun tid ->
           Prog.returning_unit
             (Prog.for_ 0 (ops - 1) (fun i ->
                  s.Iface.push (Harness.val_of ~tid ~i))))
      @ List.init poppers (fun _ ->
            Prog.returning_unit
              (Prog.for_ 0 (ops - 1) (fun _ ->
                   Prog.bind (s.Iface.pop ()) (fun _ -> Prog.return ())))));
    match Machine.run m (Oracle.random ~seed) with
    | Machine.Finished _ -> s.Iface.s_graph
    | _ -> try_seed (seed + 1)
  in
  try_seed seed

let explore_n ~execs sc () = ignore (Explore.random ~execs ~seed:17 sc)

(* -- E1: the MP client (Figure 1 + Figure 3) --------------------------------- *)

let e1_mp =
  Test.make_grouped ~name:"E1-mp"
    [
      Test.make ~name:"ms-queue/rel-acq"
        (Staged.stage (fun () ->
             explore_n ~execs:20 (Mp.make Msqueue.instantiate (Mp.fresh_stats ())) ()));
      Test.make ~name:"ms-queue/weak-flag"
        (Staged.stage (fun () ->
             explore_n ~execs:20 (Mp.make_weak Msqueue.instantiate (Mp.fresh_stats ())) ()));
      Test.make ~name:"hw-queue/rel-acq"
        (Staged.stage (fun () ->
             explore_n ~execs:20 (Mp.make Hwqueue.instantiate (Mp.fresh_stats ())) ()));
      Test.make ~name:"hw-queue/weak-flag"
        (Staged.stage (fun () ->
             explore_n ~execs:20 (Mp.make_weak Hwqueue.instantiate (Mp.fresh_stats ())) ()));
    ]

(* -- E2: spec-style matrix — per-execution checking cost --------------------- *)

let e2_matrix =
  let ms = sample_queue_graph Msqueue.instantiate ~enqers:2 ~deqers:2 ~ops:2 ~seed:3 in
  let hw = sample_queue_graph Hwqueue.instantiate ~enqers:2 ~deqers:2 ~ops:2 ~seed:3 in
  let tr = sample_stack_graph Treiber.instantiate ~pushers:2 ~poppers:2 ~ops:2 ~seed:3 in
  let mk name style kind g =
    Test.make ~name (Staged.stage (fun () -> ignore (Styles.check style kind g)))
  in
  Test.make_grouped ~name:"E2-spec-styles"
    [
      mk "ms/LATso-abs" Styles.So_abs Styles.Queue ms;
      mk "ms/LAThb" Styles.Hb Styles.Queue ms;
      mk "ms/LAThb-abs" Styles.Hb_abs Styles.Queue ms;
      mk "ms/LAThist" Styles.Hist Styles.Queue ms;
      mk "hw/LAThb" Styles.Hb Styles.Queue hw;
      mk "hw/LAThist" Styles.Hist Styles.Queue hw;
      mk "treiber/LAThb" Styles.Hb Styles.Stack tr;
      mk "treiber/LAThist" Styles.Hist Styles.Stack tr;
    ]

(* -- E3: Herlihy-Wing — abstract states vs graph conditions ------------------ *)

let e3_hw =
  let hw = sample_queue_graph Hwqueue.instantiate ~enqers:3 ~deqers:2 ~ops:2 ~seed:5 in
  Test.make_grouped ~name:"E3-hw-queue"
    [
      Test.make ~name:"abstract-state-replay"
        (Staged.stage (fun () -> ignore (Queue_spec.abstract_state hw)));
      Test.make ~name:"graph-consistency"
        (Staged.stage (fun () -> ignore (Queue_spec.consistent hw)));
      Test.make ~name:"explore"
        (Staged.stage
           (explore_n ~execs:20
              (Harness.queue_workload Hwqueue.instantiate ~enqers:2 ~deqers:2
                 ~ops:2 ())));
    ]

(* -- E4: SPSC and the two-queue pipeline (Section 3.2) ------------------------ *)

let e4_spsc =
  Test.make_grouped ~name:"E4-spsc"
    [
      Test.make ~name:"ms-queue"
        (Staged.stage (fun () ->
             explore_n ~execs:10
               (Spsc_client.make ~n:3 Msqueue.instantiate (Spsc_client.fresh_stats ()))
               ()));
      Test.make ~name:"hw-queue"
        (Staged.stage (fun () ->
             explore_n ~execs:10
               (Spsc_client.make ~n:3 Hwqueue.instantiate (Spsc_client.fresh_stats ()))
               ()));
      Test.make ~name:"pipeline-ms-hw"
        (Staged.stage (fun () ->
             explore_n ~execs:10
               (Pipeline.make ~n:2 Msqueue.instantiate Hwqueue.instantiate
                  (Pipeline.fresh_stats ()))
               ()));
    ]

(* -- E5: Treiber LAThist — commit order vs search (Figure 4) ------------------ *)

let e5_linearize =
  let tr = sample_stack_graph Treiber.instantiate ~pushers:2 ~poppers:2 ~ops:2 ~seed:9 in
  let hw = sample_queue_graph Hwqueue.instantiate ~enqers:2 ~deqers:2 ~ops:2 ~seed:9 in
  Test.make_grouped ~name:"E5-linearize"
    [
      Test.make ~name:"treiber/commit-order"
        (Staged.stage (fun () ->
             ignore (Linearize.commit_order_valid Linearize.Stack tr)));
      Test.make ~name:"treiber/search"
        (Staged.stage (fun () -> ignore (Linearize.search Linearize.Stack tr)));
      Test.make ~name:"hw/search"
        (Staged.stage (fun () -> ignore (Linearize.search Linearize.Queue hw)));
    ]

(* -- E6: exchanger and elimination stack (Section 4) -------------------------- *)

let e6_exchanger =
  Test.make_grouped ~name:"E6-exchanger-es"
    [
      Test.make ~name:"exchanger-pair"
        (Staged.stage
           (explore_n ~execs:20 (Harness.exchanger_workload ~threads:2 ())));
      Test.make ~name:"resource-exchange"
        (Staged.stage (fun () ->
             explore_n ~execs:20
               (Resource_exchange.make ~threads:2 (Resource_exchange.fresh_stats ()))
               ()));
      Test.make ~name:"treiber-workload"
        (Staged.stage
           (explore_n ~execs:10
              (Harness.stack_workload Treiber.instantiate ~pushers:2 ~poppers:2
                 ~ops:1 ())));
      Test.make ~name:"es-workload"
        (Staged.stage
           (explore_n ~execs:10
              (Harness.stack_workload Elimination.instantiate ~pushers:2
                 ~poppers:2 ~ops:1 ())));
      Test.make ~name:"es-compose-check"
        (Staged.stage (fun () ->
             explore_n ~execs:10
               (Es_compose.make ~pushers:2 ~poppers:2 ~ops:1
                  (Es_compose.fresh_stats ()))
               ()));
    ]

(* -- E8: Chase-Lev work-stealing deque (Section 6 future work) ----------------- *)

let e8_chaselev =
  Test.make_grouped ~name:"E8-chaselev"
    [
      Test.make ~name:"explore-sc-fences"
        (Staged.stage (fun () ->
             explore_n ~execs:20
               (Ws_client.make ~tasks:2 ~thieves:1 ~steals:1
                  (Ws_client.fresh_stats ()))
               ()));
      Test.make ~name:"explore-weak-fences"
        (Staged.stage (fun () ->
             explore_n ~execs:20
               (Ws_client.make ~weak_fences:true ~tasks:2 ~thieves:1 ~steals:2
                  (Ws_client.fresh_stats ()))
               ()));
      Test.make ~name:"explore-contended"
        (Staged.stage (fun () ->
             explore_n ~execs:10
               (Ws_client.make ~tasks:3 ~thieves:2 ~steals:2
                  (Ws_client.fresh_stats ()))
               ()));
    ]

(* -- substrate microbenchmarks ------------------------------------------------ *)

let micro =
  let view =
    List.fold_left
      (fun v i -> View.extend v (Loc.make ~base:i ~off:0) i)
      View.bot
      (List.init 16 (fun i -> i))
  in
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"view-join"
        (Staged.stage (fun () -> ignore (View.join view view)));
      Test.make ~name:"machine-steps-1k"
        (Staged.stage (fun () ->
             let m = Machine.create () in
             let x = Machine.alloc m ~name:"x" ~init:(vi 0) 1 in
             ignore
               (Machine.solo m
                  (Prog.map
                     (Prog.for_ 1 500 (fun _ ->
                          Prog.bind (Prog.load x Mode.Rlx) (fun _ ->
                              Prog.store x (vi 1) Mode.Rlx)))
                     (fun () -> Value.Unit)))));
      Test.make ~name:"solo-msqueue-5-enq-deq"
        (Staged.stage (fun () ->
             let m = Machine.create () in
             let t = Msqueue.create m ~name:"q" in
             ignore
               (Machine.solo m
                  (Prog.map
                     (Prog.for_ 1 5 (fun i ->
                          Prog.bind (Msqueue.enq t (vi i)) (fun () ->
                              Prog.bind (Msqueue.deq t) (fun _ -> Prog.return ()))))
                     (fun () -> Value.Unit)))));
    ]

(* -- scaling: checker cost vs history size ------------------------------------- *)

(* Build progressively larger stack graphs (sequentially, so they are
   valid) and measure how each checker's cost grows — the operational
   analogue of "proof effort scales with history length". *)
let scaling =
  let graph_of_size n =
    let m = Machine.create () in
    let t = Treiber.create ~fuel:64 m ~name:"s" in
    ignore
      (Machine.solo m
         (Prog.map
            (Prog.for_ 1 n (fun i ->
                 Prog.bind (Treiber.push t (vi i)) (fun () ->
                     if i mod 2 = 0 then
                       Prog.bind (Treiber.pop t) (fun _ -> Prog.return ())
                     else Prog.return ())))
            (fun () -> Value.Unit)));
    Treiber.graph t
  in
  let sizes = [ 4; 8; 16; 32 ] in
  Test.make_grouped ~name:"scaling"
    (List.concat_map
       (fun n ->
         let g = graph_of_size n in
         [
           Test.make
             ~name:(Printf.sprintf "graph-consistency/%d-ops" n)
             (Staged.stage (fun () -> ignore (Stack_spec.consistent g)));
           Test.make
             ~name:(Printf.sprintf "linearize-search/%d-ops" n)
             (Staged.stage (fun () ->
                  ignore (Linearize.search Linearize.Stack g)));
         ])
       sizes)

(* -- explore-throughput mode (--explore [--quick] [--check]) -------------------

   Machine-readable exploration throughput, written to BENCH_explore.json:
   for each scenario,

   - "sequential"          — replay-from-root DFS ([~incremental:false]),
                             the differential-testing oracle;
   - "incremental"         — the default checkpoint/restore engine;
   - "incremental_reduced" — the same engine with sleep-set reduction;
   - "incremental_dpor"    — the same engine under source-DPOR with
                             wakeup sequences (strictly fewer executions
                             than sleep sets on a complete search);
   - "pdfs"                — the work-stealing driver at 1/2/4 domains
                             (each worker owns a per-domain incremental
                             engine).

   Both reduction rows carry a "reduction_factor" column: full-tree
   executions over reduced executions (higher = stronger reduction).

   The report fields are exact whatever the mode; wall-clock speedups
   depend on the host.  Multi-domain pdfs rows are skipped (and marked as
   such) when the host only recommends one domain — a 1-core box cannot
   exhibit parallel speedup, only scheduling noise.  [--check] exits
   nonzero if the incremental engine is slower than sequential replay on
   any scenario: the CI perf-smoke gate. *)

let write_json_file file json =
  let s = Report.to_string ~tool:"bench" json in
  let oc = open_out file in
  output_string oc s;
  close_out oc;
  print_string s;
  Format.printf "wrote %s@." file

(* The host fields every timing ledger records, so rows taken on
   different machines are not compared by mistake. *)
let host_fields ?(forced_jobs = false) () =
  [
    ("recommended_domains", Jsonout.Int (Domain.recommended_domain_count ()));
    ("forced_jobs", Jsonout.Bool forced_jobs);
    ("ocaml", Jsonout.Str Sys.ocaml_version);
  ]

(* Timed run with allocation telemetry: wall clock plus [Gc.quick_stat]
   deltas (minor words allocated, major collections forced) — the
   flat-buffer core is judged on allocation per execution as much as on
   throughput. *)
let time_gc f =
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  ( r,
    t,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

let bench_explore ~quick ~check ~force_jobs =
  let max_execs = if quick then 2_000 else 20_000 in
  let scenarios =
    [
      ( "mp-queue",
        fun () -> Mp.make (queue_factory "ms") (Mp.fresh_stats ()) );
      ( "hw-queue",
        fun () ->
          Harness.queue_workload (queue_factory "hw") ~enqers:2 ~deqers:1
            ~ops:1 () );
      ( "treiber",
        fun () ->
          Harness.stack_workload (stack_factory "treiber") ~pushers:2
            ~poppers:1 ~ops:2 () );
    ]
  in
  (* The host's usable parallelism.  [recommended_domain_count] reflects
     the actual CPU budget (cgroup/affinity aware), unlike raw core
     counts; [--force-jobs] runs the multi-domain rows anyway — useful
     for differential correctness runs on starved hosts, meaningless for
     speedup numbers. *)
  let domains = Domain.recommended_domain_count () in
  let rate (r : Explore.report) t =
    if t > 0. then float_of_int r.Explore.executions /. t else 0.
  in
  let slow = ref []
  and inc_speedups = ref []
  and flat_ratios = ref []
  and reduction_gaps = ref []
  and scale4 = ref []
  and forced_rows = ref false in
  let run_row (r : Explore.report) (t, minor, majors) extra =
    let per_exec x = x /. float_of_int (max 1 r.Explore.executions) in
    Jsonout.Obj
      ([
         ("executions", Jsonout.Int r.Explore.executions);
         ("complete", Jsonout.Bool r.Explore.complete);
         ("seconds", Jsonout.Float t);
         ("execs_per_sec", Jsonout.Float (rate r t));
         ("minor_words_per_exec", Jsonout.Float (per_exec minor));
         ("major_collections", Jsonout.Int majors);
       ]
      @ extra)
  in
  let scenario_json (name, mk) =
    let seq, seq_t, seq_mw, seq_mc =
      time_gc (fun () -> Explore.dfs ~max_execs ~incremental:false (mk ()))
    in
    let inc, inc_t, inc_mw, inc_mc =
      time_gc (fun () -> Explore.dfs ~max_execs (mk ()))
    in
    if rate inc inc_t < rate seq seq_t then slow := name :: !slow;
    inc_speedups :=
      (name, if rate seq seq_t > 0. then rate inc inc_t /. rate seq seq_t else 0.)
      :: !inc_speedups;
    (* The same incremental exploration against the map-backend oracle:
       the within-host measure of what the flat data plane buys, and the
       host-independent CI gate (both runs share whatever hardware this
       is). *)
    let map_config = { Machine.default_config with Machine.backend = `Map } in
    let map, map_t, map_mw, map_mc =
      time_gc (fun () -> Explore.dfs ~max_execs ~config:map_config (mk ()))
    in
    let flat_ratio =
      if inc_t > 0. then rate inc inc_t /. rate map map_t else 0.
    in
    flat_ratios := (name, flat_ratio) :: !flat_ratios;
    let speedup t =
      ( "speedup_vs_sequential",
        Jsonout.Float (if t > 0. then seq_t /. t else 0.) )
    in
    let pdfs_jobs1_t = ref 0. in
    let pdfs_row jobs =
      if jobs > 1 && domains < jobs && not force_jobs then begin
        let why =
          Printf.sprintf
            "host recommends %d domain(s); rerun with --force-jobs for a \
             correctness (not speedup) row"
            domains
        in
        Format.eprintf "bench: %s: skipping pdfs jobs=%d row: %s@." name jobs
          why;
        Jsonout.Obj
          [ ("jobs", Jsonout.Int jobs); ("skipped", Jsonout.Str why) ]
      end
      else begin
        let r, t, mw, mc =
          time_gc (fun () -> Explore.pdfs ~jobs ~max_execs (mk ()))
        in
        if jobs = 1 then pdfs_jobs1_t := t;
        if jobs = 4 && domains >= 4 && !pdfs_jobs1_t > 0. && t > 0. then
          scale4 := (name, !pdfs_jobs1_t /. t) :: !scale4;
        let forced =
          if jobs > 1 && domains < jobs then begin
            forced_rows := true;
            [ ("forced", Jsonout.Bool true) ]
          end
          else []
        in
        match run_row r (t, mw, mc) (speedup t :: forced) with
        | Jsonout.Obj fields ->
            Jsonout.Obj (("jobs", Jsonout.Int jobs) :: fields)
        | j -> j
      end
    in
    let pdfs_rows = List.map pdfs_row [ 1; 2; 4 ] in
    let red, red_t, red_mw, red_mc =
      time_gc (fun () ->
          Explore.dfs ~reduce:Machine.RSleep ~max_execs (mk ()))
    in
    let dpor, dpor_t, dpor_mw, dpor_mc =
      time_gc (fun () ->
          Explore.dfs ~reduce:Machine.RDpor ~max_execs (mk ()))
    in
    (* reduction_factor: full-tree executions per reduced execution —
       the measure the dpor >= sleep gate compares. *)
    let factor (r : Explore.report) =
      float_of_int (max 1 seq.Explore.executions)
      /. float_of_int (max 1 r.Explore.executions)
    in
    reduction_gaps := (name, factor red, factor dpor) :: !reduction_gaps;
    let reduced_extra r rt =
      [
        ( "execs_vs_full",
          Jsonout.Float
            (float_of_int r.Explore.executions
            /. float_of_int (max 1 seq.Explore.executions)) );
        ("reduction_factor", Jsonout.Float (factor r));
        speedup rt;
      ]
    in
    Jsonout.Obj
      [
        ("name", Jsonout.Str name);
        ("sequential", run_row seq (seq_t, seq_mw, seq_mc) []);
        ("incremental", run_row inc (inc_t, inc_mw, inc_mc) [ speedup inc_t ]);
        ( "map_backend",
          run_row map (map_t, map_mw, map_mc)
            [ ("flat_speedup_vs_map", Jsonout.Float flat_ratio) ] );
        ("pdfs", Jsonout.List pdfs_rows);
        ( "incremental_reduced",
          run_row red (red_t, red_mw, red_mc)
            (("pruned", Jsonout.Int red.Explore.pruned)
            :: reduced_extra red red_t) );
        ( "incremental_dpor",
          run_row dpor (dpor_t, dpor_mw, dpor_mc)
            (("dpor_pruned", Jsonout.Int dpor.Explore.dpor_pruned)
            :: reduced_extra dpor dpor_t) );
      ]
  in
  (* -- reads-from reduction rows -------------------------------------
     Data-heavy litmus tests where interleaving enumeration repeats
     execution graphs: the exhaustive rf-class census (one key per
     distinct rf⊕mo graph, via {!Explore.rf_class_key}) is the ground
     truth; [--reduce=dpor-rf] must count at most dpor's executions,
     reach the same verdict, and — the acceptance row, CoRR — exactly
     one execution per class. *)
  let census_config =
    { Machine.default_config with Machine.record_accesses = true }
  in
  let rf_litmus =
    [
      ("CoRR", Litmus.corr);
      ("SB", fun () -> Litmus.sb ());
      ("IRIW", Litmus.iriw);
    ]
  in
  let rf_gate = ref [] and rf_key_gate = ref [] in
  let rf_row (name, (mk : unit -> Litmus.t)) =
    let classes = Hashtbl.create 64 in
    let logs = ref [] in
    let t = mk () in
    let censused =
      {
        t.Litmus.scenario with
        Explore.build =
          (fun m ->
            let judge = t.Litmus.scenario.Explore.build m in
            fun outcome ->
              (match outcome with
              | Machine.Pruned -> ()
              | _ ->
                  let log = Machine.accesses m in
                  logs := (outcome, log) :: !logs;
                  Hashtbl.replace classes (Explore.rf_class_key ~outcome log) ());
              judge outcome);
      }
    in
    let full = Explore.dfs ~config:census_config ~max_execs censused in
    let rf_classes = Hashtbl.length classes in
    let logs = !logs in
    let ok_dpor, dpor, _ =
      Litmus.verdict ~max_execs ~reduce:Machine.RDpor (mk ())
    in
    let (ok_rf, rf, _), rf_t, _, _ =
      time_gc (fun () ->
          Litmus.verdict ~max_execs ~reduce:Machine.RDporRf (mk ()))
    in
    let launched =
      rf.Explore.executions + rf.Explore.rf_pruned + rf.Explore.dpor_pruned
    in
    (* The key's cost per call, over this row's census executions, and
       dpor-rf's time per launched run, both steady state: 21 rounds, each
       timing ~1000 key calls and then one more dpor-rf search, each on an
       emptied minor heap, so host speed drift hits both sides alike;
       medians of each. *)
    let calls_per_pass = max 1 (List.length logs) in
    let passes = max 1 (1_000 / calls_per_pass) in
    let rounds =
      List.init 21 (fun _ ->
          Gc.minor ();
          let (), key_t, _, _ =
            time_gc (fun () ->
                for _ = 1 to passes do
                  List.iter
                    (fun (outcome, log) ->
                      ignore
                        (Sys.opaque_identity
                           (Explore.rf_class_key ~outcome log)))
                    logs
                done)
          in
          Gc.minor ();
          let _, run_t, _, _ =
            time_gc (fun () ->
                Litmus.verdict ~max_execs ~reduce:Machine.RDporRf (mk ()))
          in
          ( key_t *. 1e6 /. float_of_int (passes * calls_per_pass),
            run_t *. 1e6 /. float_of_int (max 1 launched) ))
    in
    let key_us = median (List.map fst rounds) in
    let launch_us = median (List.map snd rounds) in
    rf_gate :=
      (name, ok_dpor, ok_rf, dpor.Explore.executions, rf.Explore.executions,
       rf_classes, full.Explore.complete && rf.Explore.complete)
      :: !rf_gate;
    rf_key_gate := (name, key_us, launch_us) :: !rf_key_gate;
    Jsonout.Obj
      [
        ("name", Jsonout.Str name);
        ("rf_classes", Jsonout.Int rf_classes);
        ("executions_full", Jsonout.Int full.Explore.executions);
        ("executions_dpor", Jsonout.Int dpor.Explore.executions);
        ("executions_dpor_rf", Jsonout.Int rf.Explore.executions);
        ("rf_pruned", Jsonout.Int rf.Explore.rf_pruned);
        ("verdict_dpor", Jsonout.Bool ok_dpor);
        ("verdict_dpor_rf", Jsonout.Bool ok_rf);
        ("complete", Jsonout.Bool (full.Explore.complete && rf.Explore.complete));
        ("seconds_dpor_rf", Jsonout.Float rf_t);
        ("launched_dpor_rf", Jsonout.Int launched);
        ("us_per_launch_dpor_rf", Jsonout.Float launch_us);
        ("rf_key_us_per_call", Jsonout.Float key_us);
        ( "reduction_factor_vs_dpor",
          Jsonout.Float
            (float_of_int (max 1 dpor.Explore.executions)
            /. float_of_int (max 1 rf.Explore.executions)) );
      ]
  in
  let rf_rows = List.map rf_row rf_litmus in
  let json =
    Jsonout.Obj
      [
        ("max_execs", Jsonout.Int max_execs);
        ("quick", Jsonout.Bool quick);
        ( "host",
          Jsonout.Obj
            (host_fields ~forced_jobs:force_jobs ()
            @
            (* Only rows forced past the host's domain count are
               correctness-only; a jobs=2 row on a 2-domain host is a
               real measurement. *)
            if not !forced_rows then []
            else
              [
                ( "scaling_note",
                  Jsonout.Str
                    (Printf.sprintf
                       "host recommends %d domain(s): pdfs rows marked \
                        \"forced\" ran more jobs than that (via \
                        --force-jobs) and are correctness measurements \
                        only, not speedups"
                       domains) );
              ]) );
        ("scenarios", Jsonout.List (List.map scenario_json scenarios));
        ("rf_reduction", Jsonout.List rf_rows);
      ]
  in
  write_json_file "BENCH_explore.json" json;
  if check then begin
    let failed = ref false in
    (match !slow with
    | [] -> Format.printf "perf-smoke: incremental >= sequential everywhere@."
    | l ->
        Format.printf
          "perf-smoke FAILED: incremental slower than sequential on: %s@."
          (String.concat ", " (List.rev l));
        failed := true);
    (* The within-run incremental-vs-sequential speedup is the headline
       same-host ratio (measured 3.9-5.1x on the reference container):
       it is what the flat data plane buys end to end, because the
       unboxed length-array snapshots are what make checkpoint-per-
       decision affordable.  Gate at 2x to leave noise margin. *)
    let min_inc_speedup = 2.0 in
    List.iter
      (fun (name, s) ->
        if s < min_inc_speedup then begin
          Format.printf
            "perf-smoke FAILED: incremental only %.2fx sequential on %s (gate \
             %.1fx)@."
            s name min_inc_speedup;
          failed := true
        end
        else
          Format.printf "perf-smoke: incremental %.2fx sequential on %s@." s
            name)
      (List.rev !inc_speedups);
    (* Flat-vs-map holds the *algorithm* fixed (both incremental), so it
       isolates the representation alone: histories are a minor share of
       per-execution cost next to the machine and the spec checkers, and
       the honest like-for-like ratio is ~1.15x.  Gate it as a
       no-regression bound with noise margin — the representation's real
       payoff is gated above. *)
    let min_flat_ratio = 0.9 in
    List.iter
      (fun (name, r) ->
        if r < min_flat_ratio then begin
          Format.printf
            "perf-smoke FAILED: flat backend %.2fx the map oracle on %s \
             (no-regression gate %.1fx)@."
            r name min_flat_ratio;
          failed := true
        end
        else
          Format.printf "perf-smoke: flat backend %.2fx the map oracle on %s@."
            r name)
      (List.rev !flat_ratios);
    (* DPOR must reduce at least as hard as sleep sets on the mp-queue
       battery (on a complete search it explores a subset of the
       sleep-set representatives, so equality is the worst legal case). *)
    List.iter
      (fun (name, sleep_f, dpor_f) ->
        if name = "mp-queue" then
          if dpor_f < sleep_f then begin
            Format.printf
              "perf-smoke FAILED: dpor reduction %.2fx below sleep-set %.2fx \
               on %s@."
              dpor_f sleep_f name;
            failed := true
          end
          else
            Format.printf
              "perf-smoke: dpor reduction %.2fx >= sleep-set %.2fx on %s@."
              dpor_f sleep_f name)
      (List.rev !reduction_gaps);
    (* Multi-domain scaling gates only where the host can express it. *)
    if domains >= 4 then
      List.iter
        (fun (name, s) ->
          if s < 2.5 then begin
            Format.printf
              "perf-smoke FAILED: pdfs jobs=4 only %.2fx jobs=1 on %s (gate \
               2.5x)@."
              s name;
            failed := true
          end
          else
            Format.printf "perf-smoke: pdfs jobs=4 is %.2fx jobs=1 on %s@." s
              name)
        (List.rev !scale4)
    else
      Format.printf
        "perf-smoke: scaling gate waived (host recommends %d domain(s), need \
         >= 4)@."
        domains;
    (* dpor-rf must never count more runs than dpor, must agree on every
       verdict, and on a complete search must count exactly one
       execution per distinct rf-class (the CoRR acceptance row). *)
    List.iter
      (fun (name, ok_dpor, ok_rf, ex_dpor, ex_rf, classes, complete) ->
        if ok_rf <> ok_dpor then begin
          Format.printf
            "perf-smoke FAILED: dpor-rf verdict differs from dpor on %s@." name;
          failed := true
        end;
        if ex_rf > ex_dpor then begin
          Format.printf
            "perf-smoke FAILED: dpor-rf counted %d > dpor's %d executions on \
             %s@."
            ex_rf ex_dpor name;
          failed := true
        end;
        if complete && ex_rf <> classes then begin
          Format.printf
            "perf-smoke FAILED: dpor-rf counted %d executions over %d \
             rf-classes on %s@."
            ex_rf classes name;
          failed := true
        end;
        if not !failed then
          Format.printf
            "perf-smoke: dpor-rf %s: %d executions == %d rf-classes (dpor: \
             %d)@."
            name ex_rf classes ex_dpor)
      (List.rev !rf_gate);
    (* The rf-class key is paid by every launched dpor-rf run, kept or
       discarded: it must cost at most half of a launched run. *)
    let max_key_share = 0.5 in
    List.iter
      (fun (name, key_us, launch_us) ->
        if key_us > max_key_share *. launch_us then begin
          Format.printf
            "perf-smoke FAILED: rf_class_key %.2f us/call > %.1f x dpor-rf's \
             %.2f us per launched run on %s@."
            key_us max_key_share launch_us name;
          failed := true
        end
        else
          Format.printf
            "perf-smoke: rf_class_key %.2f us/call <= %.1f x dpor-rf's %.2f \
             us per launched run on %s@."
            key_us max_key_share launch_us name)
      (List.rev !rf_key_gate);
    (* trace-compat: a pinned legacy v1 witness script must parse, lift,
       round-trip through the v2 line format, and replay to the
       byte-identical outcome. *)
    begin
      let legacy = "1 0 2 0 1 0 3 0 1" in
      let outcome_of tr =
        let t = Litmus.corr () in
        let r = Explore.replay ~config:Machine.default_config t.Litmus.scenario tr in
        Format.asprintf "%a/%d" Machine.pp_outcome r.Explore.r_outcome
          r.Explore.r_clamped
      in
      match Decision.of_line legacy with
      | None ->
          Format.printf "perf-smoke FAILED: legacy v1 fixture did not parse@.";
          failed := true
      | Some v1 -> (
          let direct =
            Decision.of_ints
              (Array.of_list
                 (List.map int_of_string (String.split_on_char ' ' legacy)))
          in
          if not (Decision.equal_trace v1 direct) then begin
            Format.printf
              "perf-smoke FAILED: legacy v1 fixture lifts differently@.";
            failed := true
          end;
          match Decision.of_line (Decision.to_line v1) with
          | None ->
              Format.printf
                "perf-smoke FAILED: v2 round-trip of legacy fixture did not \
                 parse@.";
              failed := true
          | Some v2 ->
              let o1 = outcome_of v1 and o2 = outcome_of v2 in
              if o1 <> o2 then begin
                Format.printf
                  "perf-smoke FAILED: legacy fixture replays %s but its v2 \
                   form replays %s@."
                  o1 o2;
                failed := true
              end
              else
                Format.printf
                  "perf-smoke: trace-compat: legacy fixture and v2 form both \
                   replay %s@."
                  o1)
    end;
    if !failed then exit 1
  end

(* -- fuzz-comparison mode (--fuzz [--quick] [--check]) -------------------------

   Time-to-first-violation comparison of the fuzzing strategies, written
   to BENCH_fuzz.json: for each violating target (the deliberately weak
   MS queue, plus litmus tests whose distinguished weak outcome we hunt
   as if it were a bug), run each mode over a batch of seeds and compare
   the median number of executions to the first violation (deterministic
   per seed) and the median wall-clock seconds (host-dependent).  A trial
   that exhausts its budget without a violation counts as the full budget
   (censored).  [--check] exits nonzero if neither PCT nor the
   coverage-guided mode beats-or-ties uniform random on the ms-weak
   median: the CI fuzz-smoke gate. *)

let bench_fuzz ~quick ~check =
  let budget = if quick then 2_000 else 10_000 in
  let seeds = List.init (if quick then 7 else 15) (fun i -> 100 + i) in
  (* Hunt a litmus test's distinguished weak outcome as a "violation":
     the judge flags any execution that bumps the observation counter. *)
  let hunt name (mk_t : unit -> Litmus.t) () =
    let t = mk_t () in
    let before = ref 0 in
    {
      Explore.name;
      build =
        (fun m ->
          before := !(t.Litmus.observed);
          let judge = t.Litmus.scenario.Explore.build m in
          fun outcome ->
            match judge outcome with
            | Explore.Pass when !(t.Litmus.observed) > !before ->
                Explore.Violation "target behaviour observed"
            | v -> v);
    }
  in
  let targets =
    [
      ( "ms-weak",
        fun () -> Mp.make (queue_factory "ms-weak") (Mp.fresh_stats ()) );
      ("litmus-sb", hunt "sb-hunt" (fun () -> Litmus.sb ()));
      ( "litmus-mp-rlx",
        hunt "mp-rlx-hunt" (fun () -> Litmus.mp ~rmode:Mode.Rlx ()) );
      ("litmus-iriw", hunt "iriw-hunt" (fun () -> Litmus.iriw ()));
    ]
  in
  let modes = [ Fz.Fuzz.Uniform; Fz.Fuzz.Pct; Fz.Fuzz.Guided ] in
  let medians = Hashtbl.create 16 in
  let target_json (tname, mk) =
    let mode_json mode =
      let trials =
        List.map
          (fun seed ->
            let options =
              {
                Fz.Fuzz.default_options with
                Fz.Fuzz.mode;
                execs = budget;
                seed;
                shrink = false;
              }
            in
            let o = Fz.Fuzz.run ~options mk in
            (* censored at the budget when no violation was found *)
            let first =
              match o.Fz.Fuzz.first_violation_exec with
              | Some i -> i + 1
              | None -> budget
            in
            ( seed,
              first,
              o.Fz.Fuzz.first_violation_exec <> None,
              o.Fz.Fuzz.seconds ))
          seeds
      in
      let found = List.filter (fun (_, _, f, _) -> f) trials in
      let med_execs =
        median (List.map (fun (_, n, _, _) -> float_of_int n) trials)
      in
      let med_seconds = median (List.map (fun (_, _, _, s) -> s) trials) in
      Hashtbl.replace medians (tname, mode) med_execs;
      Jsonout.Obj
        [
          ("mode", Jsonout.Str (Fz.Fuzz.mode_name mode));
          ("trials", Jsonout.Int (List.length trials));
          ("found", Jsonout.Int (List.length found));
          ("median_execs_to_violation", Jsonout.Float med_execs);
          ("median_seconds", Jsonout.Float med_seconds);
          ( "per_seed",
            Jsonout.List
              (List.map
                 (fun (seed, n, f, s) ->
                   Jsonout.Obj
                     [
                       ("seed", Jsonout.Int seed);
                       ("execs_to_violation", Jsonout.Int n);
                       ("found", Jsonout.Bool f);
                       ("seconds", Jsonout.Float s);
                     ])
                 trials) );
        ]
    in
    Jsonout.Obj
      [
        ("target", Jsonout.Str tname);
        ("modes", Jsonout.List (List.map mode_json modes));
      ]
  in
  let json =
    Jsonout.Obj
      [
        ("budget", Jsonout.Int budget);
        ("seeds", Jsonout.Int (List.length seeds));
        ("quick", Jsonout.Bool quick);
        ("pct_depth", Jsonout.Int Fz.Fuzz.default_options.Fz.Fuzz.pct_depth);
        ("targets", Jsonout.List (List.map target_json targets));
      ]
  in
  write_json_file "BENCH_fuzz.json" json;
  if check then begin
    let m mode = Hashtbl.find medians ("ms-weak", mode) in
    let u = m Fz.Fuzz.Uniform
    and p = m Fz.Fuzz.Pct
    and g = m Fz.Fuzz.Guided in
    if Float.min p g <= u then
      Format.printf
        "fuzz-smoke: directed search beats-or-ties uniform on ms-weak \
         (uniform %.0f, pct %.0f, guided %.0f median execs)@."
        u p g
    else begin
      Format.printf
        "fuzz-smoke FAILED: uniform %.0f beats pct %.0f and guided %.0f on \
         ms-weak@."
        u p g;
      exit 1
    end
  end

(* -- audit-prioritization mode (--static [--check]) ----------------------------

   Machine-readable cost-to-first-verdict comparison, written to
   BENCH_static.json: for each probe, the mode-necessity audit is run
   twice — in declaration (discovery) order and in the static linter's
   predicted order (predicted-necessary sites first, their weakest
   verdict mutant run before the intermediate ones) — and the report's
   [first_violation] counter says how many mutants and executions each
   order spent before its first Necessary verdict.  The static analysis
   wall time is reported alongside: the prediction is only worth its
   cost if it is cheap next to the exploration it saves.  The [analyze]
   rows time [Static.analyze] on every registry entry.  [--check]
   exits nonzero unless the prioritized order reaches the first verdict
   in strictly fewer executions (and no more mutants) on every probe:
   the CI static-smoke gate. *)

let bench_static ~check =
  let module Audit = Compass_analysis.Audit in
  let module Static = Compass_static.Static in
  let probes = [ "ms" ] in
  let options =
    {
      Audit.default_options with
      execs = 4000;
      jobs = 1;
      reduce = Machine.RSleep;
    }
  in
  let failed = ref [] in
  let probe_json key =
    let e =
      match Specreg.find key with
      | Some e -> e
      | None -> failwith ("no registered structure: " ^ key)
    in
    let scenarios = e.Compass_spec.Libspec.scenarios in
    let t0 = Unix.gettimeofday () in
    let decl = Audit.run ~options ~probe:key scenarios in
    let t1 = Unix.gettimeofday () in
    let st = Static.analyze ~subject:key scenarios in
    let t2 = Unix.gettimeofday () in
    let predicted = st.Static.predicted_necessary in
    let prio =
      Audit.run ~options
        ~prioritize:(predicted @ st.Static.over_strong)
        ~verdict_first:(fun s -> List.mem s predicted)
        ~probe:key scenarios
    in
    let t3 = Unix.gettimeofday () in
    let order_json (m, x) =
      Jsonout.Obj [ ("mutants", Jsonout.Int m); ("executions", Jsonout.Int x) ]
    in
    (match (decl.Audit.first_violation, prio.Audit.first_violation) with
    | Some (dm, dx), Some (pm, px) ->
        Format.printf
          "%-10s declaration order: %d mutants, %4d execs; prioritized: %d \
           mutants, %4d execs (static analysis %.1fs)@."
          key dm dx pm px (t2 -. t1);
        if not (px < dx && pm <= dm) then failed := key :: !failed
    | _ ->
        Format.printf "%-10s no first violation in one of the orders@." key;
        failed := key :: !failed);
    Jsonout.Obj
      [
        ("probe", Jsonout.Str key);
        ("predicted_necessary", Jsonout.str_list predicted);
        ("over_strong_candidates", Jsonout.str_list st.Static.over_strong);
        ( "declaration_order",
          Jsonout.Obj
            [
              ( "first_violation",
                Jsonout.opt order_json decl.Audit.first_violation );
              ("seconds", Jsonout.Float (t1 -. t0));
            ] );
        ( "static_prioritized",
          Jsonout.Obj
            [
              ( "first_violation",
                Jsonout.opt order_json prio.Audit.first_violation );
              ("analysis_seconds", Jsonout.Float (t2 -. t1));
              ("audit_seconds", Jsonout.Float (t3 -. t2));
            ] );
      ]
  in
  let analyze_json (e : Compass_spec.Libspec.entry) =
    let key = e.Compass_spec.Libspec.key in
    let t0 = Unix.gettimeofday () in
    let st = Static.analyze ~subject:key e.Compass_spec.Libspec.scenarios in
    let t = Unix.gettimeofday () -. t0 in
    Format.printf "%-10s Static.analyze %.2fs (%d paths)@." key t
      st.Static.stats.Static.paths;
    Jsonout.Obj
      [
        ("key", Jsonout.Str key);
        ("seconds", Jsonout.Float t);
        ("paths", Jsonout.Int st.Static.stats.Static.paths);
        ("clean", Jsonout.Bool (Static.clean st));
      ]
  in
  (* list literals evaluate right to left: run the probes first *)
  let probes = List.map probe_json probes in
  let json =
    Jsonout.Obj
      [
        ("host", Jsonout.Obj (host_fields ()));
        ("execs_per_mutant", Jsonout.Int options.Audit.execs);
        ("probes", Jsonout.List probes);
        ("analyze", Jsonout.List (List.map analyze_json (Specreg.all ())));
      ]
  in
  write_json_file "BENCH_static.json" json;
  if check then
    match List.rev !failed with
    | [] ->
        Format.printf
          "static-smoke: prioritized order reaches the first verdict cheaper \
           everywhere@."
    | l ->
        Format.printf "static-smoke FAILED on: %s@." (String.concat ", " l);
        exit 1

(* -- simulation-refinement ledger (BENCH_sim.json) ---------------------------- *)

(* The cost profile of [compass sim]: per structure, how many executions
   the most-general-client family needs and how much the commit-point
   assignment search adds on top ([sim_states] per execution ~ the
   search's branching), plus time-to-witness on the checked-in broken
   fixture (ms-weak, [--until-violation] + shrink).  [--check] gates the
   verdicts: every correct structure must simulate, ms-weak must break
   with a localised witness. *)
let bench_sim ~quick ~check =
  let depth = if quick then 1 else 2 in
  let max_execs = if quick then 20_000 else 100_000 in
  (* Each structure is gated at the deepest MGC depth it simulates at.  The
     weak Herlihy-Wing variant is gated at depth 1: at depth 2 the client
     [ir|ir] exposes its weak empty dequeue (a fruitless scan bounded by a
     stale relaxed read of [back]) as a genuine LAThist-level break — the
     registry ladder's Hist:sat only covers the registered workloads, none
     of which run an enqueue and a dequeue on the same thread.  The break
     is pinned as an expected finding below rather than averaged away. *)
  let sim_structs =
    [ ("ms", depth); ("treiber", depth); ("hw", 1); ("lock-queue", depth) ]
  in
  let entry key =
    match Specreg.find key with
    | Some e -> e
    | None -> failwith ("no registered structure: " ^ key)
  in
  let wrong = ref [] in
  let rows =
    List.map
      (fun (key, depth) ->
        let e = entry key in
        let options =
          { Compass_sim.Sim.default_options with mgc_depth = depth; max_execs }
        in
        let r, t, _, _ =
          time_gc (fun () -> Compass_sim.Sim.run ~options e)
        in
        Format.printf
          "sim %-12s depth %d: %3d clients, %7d executions, %8d search \
           states, %6.2fs  %s@."
          key depth r.Compass_sim.Sim.clients_run r.Compass_sim.Sim.executions
          r.Compass_sim.Sim.sim_states t
          (if r.Compass_sim.Sim.ok then "SIMULATES" else "BREAKS");
        if not r.Compass_sim.Sim.ok then wrong := key :: !wrong;
        ( key,
          Jsonout.Obj
            [
              ("struct", Jsonout.Str key);
              ("mgc_depth", Jsonout.Int depth);
              ("clients", Jsonout.Int r.Compass_sim.Sim.clients_run);
              ("executions", Jsonout.Int r.Compass_sim.Sim.executions);
              ("sim_states", Jsonout.Int r.Compass_sim.Sim.sim_states);
              ("seconds", Jsonout.Float t);
              ("ok", Jsonout.Bool r.Compass_sim.Sim.ok);
              ("complete", Jsonout.Bool r.Compass_sim.Sim.complete);
            ] ))
      sim_structs
  in
  (* Pinned finding (full mode): hw at depth 2 must BREAK on the weak empty
     dequeue.  Run with the breaking client only so the row measures
     time-to-witness, not the whole 136-client family. *)
  let hw_depth2 =
    if quick then None
    else begin
      let options =
        {
          Compass_sim.Sim.default_options with
          mgc_depth = 2;
          max_execs;
          until_violation = true;
          only_client = Some "ir|ir";
        }
      in
      let r, t, _, _ =
        time_gc (fun () -> Compass_sim.Sim.run ~options (entry "hw"))
      in
      Format.printf
        "sim %-12s depth 2: client ir|ir — %s in %.2fs (weak empty dequeue, \
         expected)@."
        "hw"
        (if r.Compass_sim.Sim.ok then "SIMULATES" else "BREAKS")
        t;
      Some (r, t)
    end
  in
  (* Time-to-witness on the broken fixture: stop at the first breaking
     client, shrink, localise. *)
  let weak = entry "ms-weak" in
  let options =
    {
      Compass_sim.Sim.default_options with
      mgc_depth = depth;
      max_execs;
      until_violation = true;
    }
  in
  let wr, wt, _, _ =
    time_gc (fun () -> Compass_sim.Sim.run ~options weak)
  in
  let witness_ok =
    match wr.Compass_sim.Sim.witness with
    | Some w -> w.Compass_sim.Sim.w_detail <> None
    | None -> false
  in
  Format.printf
    "sim %-12s depth %d: time-to-witness %.2fs over %d executions — %s@."
    "ms-weak" depth wt wr.Compass_sim.Sim.executions
    (match wr.Compass_sim.Sim.witness with
    | Some w ->
        Printf.sprintf "witness on client %s (%d shrink replays%s)"
          w.Compass_sim.Sim.w_client w.Compass_sim.Sim.w_replays
          (if witness_ok then ", localised" else ", NO break detail")
    | None -> "NO WITNESS");
  let json =
    Jsonout.Obj
      [
        ("mgc_depth", Jsonout.Int depth);
        ("structures", Jsonout.List (List.map snd rows));
        ( "hw_depth2",
          match hw_depth2 with
          | None -> Jsonout.Null
          | Some (r, t) ->
              Jsonout.Obj
                [
                  ("client", Jsonout.Str "ir|ir");
                  ("breaks", Jsonout.Bool (not r.Compass_sim.Sim.ok));
                  ("executions", Jsonout.Int r.Compass_sim.Sim.executions);
                  ("time_to_witness_s", Jsonout.Float t);
                  ( "note",
                    Jsonout.Str
                      "weak empty dequeue: fruitless scan bounded by a stale \
                       relaxed back read; genuine LAThist-level break, see \
                       DESIGN.md" );
                ] );
        ( "ms_weak",
          Jsonout.Obj
            [
              ("executions", Jsonout.Int wr.Compass_sim.Sim.executions);
              ("time_to_witness_s", Jsonout.Float wt);
              ("ok", Jsonout.Bool wr.Compass_sim.Sim.ok);
              ( "witness",
                match wr.Compass_sim.Sim.witness with
                | None -> Jsonout.Null
                | Some w ->
                    Jsonout.Obj
                      [
                        ("client", Jsonout.Str w.Compass_sim.Sim.w_client);
                        ("message", Jsonout.Str w.Compass_sim.Sim.w_message);
                        ( "shrink_replays",
                          Jsonout.Int w.Compass_sim.Sim.w_replays );
                        ("localised", Jsonout.Bool witness_ok);
                      ] );
            ] );
      ]
  in
  write_json_file "BENCH_sim.json" json;
  if check then begin
    if !wrong <> [] then begin
      Format.printf "sim-smoke FAILED: should simulate but break: %s@."
        (String.concat ", " (List.rev !wrong));
      exit 1
    end;
    if wr.Compass_sim.Sim.ok then begin
      Format.printf
        "sim-smoke FAILED: ms-weak simulates but the registry expects a \
         violation@.";
      exit 1
    end;
    if not witness_ok then begin
      Format.printf
        "sim-smoke FAILED: ms-weak witness is missing or not localised to \
         a break step@.";
      exit 1
    end;
    (match hw_depth2 with
    | Some (r, _) when r.Compass_sim.Sim.ok ->
        Format.printf
          "sim-smoke FAILED: hw simulates at depth 2 on ir|ir — the weak \
           empty dequeue finding disappeared@.";
        exit 1
    | _ -> ());
    Format.printf
      "sim-smoke: %d structures simulate, ms-weak breaks with a localised \
       witness in %.2fs@."
      (List.length sim_structs) wt
  end

(* -- driver ------------------------------------------------------------------- *)

let bench_bechamel () =
  let tests =
    Test.make_grouped ~name:"compass"
      [
        e1_mp; e2_matrix; e3_hw; e4_spsc; e5_linearize; e6_exchanger;
        e8_chaselev; scaling; micro;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "%-50s %11s %8s@." "benchmark" "time/run" "r^2";
  Format.printf "%s@." (String.make 72 '-');
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         let est =
           match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
         in
         let pp_time ppf ns =
           if ns >= 1e9 then Format.fprintf ppf "%8.2f s " (ns /. 1e9)
           else if ns >= 1e6 then Format.fprintf ppf "%8.2f ms" (ns /. 1e6)
           else if ns >= 1e3 then Format.fprintf ppf "%8.2f us" (ns /. 1e3)
           else Format.fprintf ppf "%8.2f ns" ns
         in
         Format.printf "%-50s %a %8s@." name pp_time est
           (match Analyze.OLS.r_square ols with
           | Some r -> Printf.sprintf "%.3f" r
           | None -> "-"))

let () =
  let argv = Array.to_list Sys.argv in
  if List.mem "--explore" argv then
    bench_explore ~quick:(List.mem "--quick" argv)
      ~check:(List.mem "--check" argv)
      ~force_jobs:(List.mem "--force-jobs" argv)
  else if List.mem "--fuzz" argv then
    bench_fuzz ~quick:(List.mem "--quick" argv)
      ~check:(List.mem "--check" argv)
  else if List.mem "--static" argv then
    bench_static ~check:(List.mem "--check" argv)
  else if List.mem "--sim" argv then
    bench_sim ~quick:(List.mem "--quick" argv)
      ~check:(List.mem "--check" argv)
  else bench_bechamel ()
