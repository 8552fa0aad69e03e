(* The three workloads as lists of jobs.  A job is one registry scenario
   (explored to a verdict), one most-general client (simulation-checked
   under dpor-rf) or one structure's static analysis.  Every job carries
   its known answer; sim jobs also carry their coverage reference (the
   rf⊕mo class count from the dpor census in coverage.tsv). *)

open Compass_event
open Compass_machine
open Compass_spec
open Compass_clients
open Compass_sim
open Compass_static
module Shrink = Compass_fuzz.Shrink

type verdict = Clean | Broken

let verdict_name = function Clean -> "clean" | Broken -> "broken"

(* What a job reports: its verdict and the counters the determinism
   self-check compares (from [Explore.report] and [Static.report]). *)
type result = {
  verdict : verdict;
  complete : bool;
  kept : int;
  sleep_pruned : int;
  dpor_pruned : int;
  rf_pruned : int;
  sim_states : int;
  sym_paths : int;
  sym_dropped : int;
  relints : int;
  shrink_replays : int;
  lathist_rejects : bool option;
}

let no_result =
  {
    verdict = Clean;
    complete = true;
    kept = 0;
    sleep_pruned = 0;
    dpor_pruned = 0;
    rf_pruned = 0;
    sim_states = 0;
    sym_paths = 0;
    sym_dropped = 0;
    relints = 0;
    shrink_replays = 0;
    lathist_rejects = None;
  }

let launched r = r.kept + r.dpor_pruned + r.rf_pruned

(* Per-pass state: Sim.run shrinks only the first failing client of an
   entry, so the sim jobs of one entry share whether it has a witness. *)
type pass = { witnessed : (string, unit) Hashtbl.t }

type job = {
  jid : string;
  group : string;  (** jobs of one group stay together, in order *)
  expect : verdict option;  (** [None]: no per-job known answer *)
  reference : int option;  (** coverage: rf⊕mo classes a complete search keeps *)
  run : pass -> id:int -> result;
  after : id:int -> result -> string option;
      (** traced run only, outside the timed pass: the static layer probe,
          and the sim jobs' cross-check against [Sim.run]'s own report *)
}

let nothing ~id:_ _ = None

(* Fixed settings: 10 000 executions per explore job (a tenth of
   [check]'s default, so that a run makes many short passes), and the CLI
   defaults [sim] uses, 50 000 per client and 20 000 shrink replays. *)
let explore_budget = 10_000
let sim_budget = 50_000
let shrink_replays = 20_000

let tracing () = Atomic.get Span.on

(* Wrap a scenario's build function and judge closure in per-call
   timers.  [judge:false] leaves the judge to time itself (the sim judge
   times only its Simrel call); [rf] also times [Explore.rf_class_key] on
   every judged execution (the access log exists only under dpor-rf). *)
let traced ?(judge = true) ?(rf = false) (sc : Explore.scenario) =
  {
    sc with
    Explore.build =
      (fun m ->
        let j = Span.timed Span.Build sc.Explore.build m in
        fun o ->
          Span.add Span.Steps (Machine.steps m);
          if rf then
            ignore
              (Span.timed Span.Rf_key
                 (fun () -> Explore.rf_class_key ~outcome:o (Machine.accesses m))
                 ());
          if judge then Span.timed Span.Judge j o else j o);
  }

let of_report (r : Explore.report) =
  {
    no_result with
    verdict = (if Explore.ok r then Clean else Broken);
    complete = r.Explore.complete;
    kept = r.Explore.executions;
    sleep_pruned = r.Explore.pruned;
    dpor_pruned = r.Explore.dpor_pruned;
    rf_pruned = r.Explore.rf_pruned;
  }

(* Call [f] under an ["explore"] span and fold the per-call layers it ran
   into summary spans beneath it. *)
let explore_call ~id f =
  Span.span ~job:id "explore" (fun () ->
      let r = f () in
      Span.drain ~job:id;
      r)

(* -- explore (and its pdfs pass in the traced run) ------------------------ *)

let explore_jobs ~jobs () =
  List.concat_map
    (fun (e : Libspec.entry) ->
      let expect = Some (if e.Libspec.expect_violation then Broken else Clean) in
      let job name (sc : Explore.scenario) =
        let jid = Printf.sprintf "%s/%s" e.Libspec.key name in
        {
          jid;
          group = jid;
          expect;
          reference = None;
          run =
            (fun _ ~id ->
              let sc = if tracing () then traced sc else sc in
              let r =
                explore_call ~id (fun () ->
                    if jobs = 1 then Explore.dfs ~max_execs:explore_budget sc
                    else Explore.pdfs ~jobs ~max_execs:explore_budget sc)
              in
              of_report r);
          after = nothing;
        }
      in
      List.mapi
        (fun i mk ->
          let sc : Explore.scenario = mk () in
          job (Printf.sprintf "%d:%s" i sc.Explore.name) sc)
        e.Libspec.scenarios
      @ [ job "smoke" (e.Libspec.smoke ()) ])
    (Specreg.all ())

(* -- sim ------------------------------------------------------------------- *)

(* Sim.run's per-execution judge, with its Simrel call timed. *)
let sim_judge kind states g outcome =
  match outcome with
  | Machine.Finished _ -> (
      match Span.timed Span.Simrel (Simrel.check kind) g with
      | Simrel.Simulates { states = s } ->
          states := !states + s;
          Explore.Pass
      | Simrel.Breaks b ->
          states := !states + b.Simrel.states;
          Explore.Violation
            (Format.asprintf
               "simulation break at commit %a by thread %d: no legal \
                commit-point assignment"
               Event.pp_typ b.Simrel.at.Event.typ b.Simrel.at.Event.tid)
      | Simrel.Gave_up { states = s } ->
          states := !states + s;
          Explore.Discard "simulation search budget exhausted")
  | Machine.Fault s -> Explore.Violation ("simulation break (concrete fault): " ^ s)
  | Machine.Blocked s -> Explore.Discard s
  | Machine.Bounded -> Explore.Discard "bounded"
  | Machine.Pruned -> Explore.Discard "pruned"

(* Known answers: the registry expects every refinable entry but ms-weak
   to simulate.  Pinned per client: ms-weak breaks on the E1 race shape
   [ii|r] and simulates under its synchronised variant [ii|r+h2.1]; hw's
   weak empty dequeue breaks on [ir|ir]; ms-fences breaks on [i|ir]
   (triaged in NOTES.md: the LAThist search rejects the witness graph
   too).  Other clients of those three entries have no per-client answer;
   the pinned breaks carry the entry-level one. *)
let breaking = [ "ms-weak"; "hw"; "ms-fences" ]

let pinned =
  [
    (("ms-weak", "ii|r"), Broken);
    (("ms-weak", "ii|r+h2.1"), Clean);
    (("hw", "ir|ir"), Broken);
    (("ms-fences", "i|ir"), Broken);
  ]

let sim_expect key depth id =
  match List.assoc_opt (key, id) pinned with
  | Some v when depth = 2 -> Some v
  | _ -> if List.mem key breaking then None else Some Clean

(* Commit-point breaks pinned as expected only because the independent
   LAThist search rejects the same graph: re-checked on every run. *)
let triaged = [ ("hw", "ir|ir"); ("ms-fences", "i|ir") ]

let lathist_rejects e kind c (f : Explore.failure) =
  let graph = ref None in
  let sc = Mgc.scenario e ~judge:(fun g _ -> graph := Some g; Explore.Pass) c in
  ignore (Explore.replay ~config:Machine.default_config sc f.Explore.trace);
  match !graph with
  | Some g -> Linearize.search kind g = Linearize.Not_linearizable
  | None -> false

(* A few clients per entry are re-run through [Sim.run] itself: its
   report rows must carry the counters this benchmark's own dfs call
   returned (the witness shrink adds Simrel states, so states are compared
   only on jobs that did not shrink). *)
let cross_checked = [ "i|i"; "i|ir"; "ii|r"; "ir|ir"; "ii|ii" ]

let sim_cross_check e depth id res =
  let options =
    {
      Sim.default_options with
      mgc_depth = depth;
      max_execs = sim_budget;
      reduce = Machine.RDporRf;
      shrink = false;
      only_client = Some id;
    }
  in
  let sr = Sim.run ~options e in
  match sr.Sim.rows with
  | [ row ] ->
      let r = row.Sim.c_report in
      let ours = (res.kept, res.dpor_pruned, res.rf_pruned, res.complete, res.verdict = Clean) in
      let theirs =
        (r.Explore.executions, r.Explore.dpor_pruned, r.Explore.rf_pruned, r.Explore.complete, row.Sim.c_ok)
      in
      if ours <> theirs || (res.shrink_replays = 0 && res.sim_states <> sr.Sim.sim_states) then
        Some (Printf.sprintf "Sim.run disagrees with the benchmark's dfs call on %s" id)
      else None
  | _ -> Some ("Sim.run did not run client " ^ id)

(* The 8 refinable entries at MGC depth 2, then treiber at depth 3. *)
let sim_plan () =
  let refinable = List.filter (fun e -> e.Libspec.refinable) (Specreg.all ()) in
  List.map (fun e -> (e, 2)) refinable
  @ [ (Option.get (Specreg.find "treiber"), 3) ]

let sim_jid key depth id = Printf.sprintf "%s@%d/%s" key depth id

let sim_jobs ~reference () =
  let clients = [ (2, Mgc.generate ~depth:2 ()); (3, Mgc.generate ~depth:3 ()) ] in
  List.concat_map
    (fun ((e : Libspec.entry), depth) ->
      let key = e.Libspec.key in
      let kind = Option.get e.Libspec.spec.Libspec.kind in
      List.map
        (fun (c : Mgc.client) ->
          let jid = sim_jid key depth c.Mgc.id in
          let states = ref 0 in
          let sc = Mgc.scenario e ~judge:(sim_judge kind states) c in
          {
            jid;
            group = Printf.sprintf "%s@%d" key depth;
            expect = sim_expect key depth c.Mgc.id;
            reference = reference jid;
            run =
              (fun pass ~id ->
                states := 0;
                let sc = if tracing () then traced ~judge:false ~rf:true sc else sc in
                let r =
                  explore_call ~id (fun () ->
                      Explore.dfs ~max_execs:sim_budget ~reduce:Machine.RDporRf sc)
                in
                let replays =
                  match r.Explore.violations with
                  | f :: _ when not (Hashtbl.mem pass.witnessed key) ->
                      Hashtbl.replace pass.witnessed key ();
                      Span.span ~job:id "shrink" (fun () ->
                          let stats, _ =
                            Shrink.minimize ~max_replays:shrink_replays
                              ~scenario:(Mgc.scenario e ~judge:(sim_judge kind states) c)
                              ~message:f.Explore.message f.Explore.trace
                          in
                          Span.drain ~job:id;
                          stats.Shrink.replays)
                  | _ -> 0
                in
                let lathist =
                  match r.Explore.violations with
                  | f :: _ when depth = 2 && List.mem (key, c.Mgc.id) triaged ->
                      Some (lathist_rejects e kind c f)
                  | _ -> None
                in
                {
                  (of_report r) with
                  sim_states = !states;
                  shrink_replays = replays;
                  lathist_rejects = lathist;
                });
            after =
              (fun ~id:_ res ->
                if List.mem c.Mgc.id cross_checked then
                  sim_cross_check e depth c.Mgc.id res
                else None);
          })
        (List.assoc depth clients))
    (sim_plan ())

(* -- static ---------------------------------------------------------------- *)

(* The weakening Static.analyze re-lints a site under (its private
   [weakest_hyp]): labeled acquire/release accesses drop to relaxed and
   labeled fences are removed; relaxed and non-atomic sites are not
   re-linted. *)
let weakest_hyp (s : Sitegraph.site) =
  if not s.Sitegraph.labeled then None
  else
    match s.Sitegraph.kind with
    | Sitegraph.KAccess (Compass_rmc.Mode.AcqRel | Acq | Rel) ->
        Some
          (Override.weaken_access s.Sitegraph.key Compass_rmc.Mode.Rlx
             Override.empty)
    | Sitegraph.KAccess (Rlx | Na) -> None
    | Sitegraph.KFence _ -> Some (Override.drop_fence s.Sitegraph.key Override.empty)

(* The traced run's layer split of one analysis, re-run outside the
   [static.analyze] span: Sym.run per scenario, then the base lint pass
   and every re-lint. *)
let static_probe (e : Libspec.entry) ~id =
  Span.span ~job:id "static.probe" (fun () ->
      let runs =
        List.map
          (fun mk ->
            let sc : Explore.scenario = mk () in
            let m = Machine.create () in
            let (_ : Machine.outcome -> Explore.verdict) = sc.Explore.build m in
            ( sc.Explore.name,
              Span.span ~job:id "sym.run" (fun () -> Sym.run m) ))
          e.Libspec.scenarios
      in
      Span.span ~job:id "lints.run" (fun () ->
          let lint ?hyp () =
            List.iter
              (fun (name, r) ->
                ignore
                  (Lints.run ?hyp ~with_candidates:(hyp = None) ~scenario:name
                     r.Sym.paths))
              runs
          in
          lint ();
          let graph = Sitegraph.build (List.concat_map (fun (_, r) -> r.Sym.paths) runs) in
          List.iter
            (fun s -> Option.iter (fun hyp -> lint ~hyp ()) (weakest_hyp s))
            graph.Sitegraph.sites))

let static_jobs () =
  List.map
    (fun (e : Libspec.entry) ->
      let built = List.map (fun mk -> mk ()) e.Libspec.scenarios in
      {
        jid = e.Libspec.key;
        group = e.Libspec.key;
        expect = Some (if e.Libspec.expect_violation then Broken else Clean);
        reference = None;
        run =
          (fun _ ~id ->
            let scenarios =
              List.map
                (fun sc () -> if tracing () then traced sc else sc)
                built
            in
            let r =
              Span.span ~job:id "static.analyze" (fun () ->
                  let r = Static.analyze ~subject:e.Libspec.key scenarios in
                  Span.drain ~job:id;
                  r)
            in
            let st = r.Static.stats in
            {
              no_result with
              verdict = (if Static.clean r then Clean else Broken);
              sym_paths = st.Static.paths;
              sym_dropped = st.Static.dropped;
              relints =
                List.length
                  (List.filter
                     (fun s -> weakest_hyp s <> None)
                     r.Static.graph.Sitegraph.sites);
            });
        after =
          (fun ~id _ ->
            static_probe e ~id;
            None);
      })
    (Specreg.all ())

(* -- the workload table ---------------------------------------------------- *)

(* A run of [--seconds s] makes [max 1 (s / pass_s)] whole passes, where
   [pass_s] is about the pass time on a 2-domain Xeon host.  The pass count
   depends on nothing measured, so every run of a workload takes the
   median over the same number of passes. *)
type workload = { name : string; pass_s : float; make : unit -> job list }

let workloads ~reference =
  [
    { name = "explore"; pass_s = 2.5; make = explore_jobs ~jobs:1 };
    { name = "sim"; pass_s = 35.; make = sim_jobs ~reference };
    { name = "static"; pass_s = 15.; make = static_jobs };
  ]
