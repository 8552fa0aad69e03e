open Compass_rmc
open Compass_machine
open Compass_util

(* The mode-necessity audit.

   For every labeled atomic access site (and every labeled fence) a
   probe's scenarios exercise, generate the strictly weaker mutants —
   acq_rel -> acq / rel -> rlx for accesses, weaker-or-dropped for
   fences, never down to non-atomic — and re-run bounded exploration on
   the *unmodified* program under a mode {!Override}.  A mutant that
   witnesses a violation proves that much strength is load-bearing; a
   mutant whose exploration completes with no violation proves the
   original mode over-strong for these clients.

   The verdict for a site comes from its *weakest* mutant (rlx, or a
   dropped fence):

   - [Necessary]: the weakest mutant violates — with the lexicographically
     least violating decision script as a counterexample, replayable via
     [compass replay --weaken site=mode --script ...];
   - [Over_strong]: the weakest mutant explored its whole tree without a
     violation — the site could be demoted outright;
   - [Unknown]: the budget ran out before either;
   - [Minimal]: the site is already relaxed; there is nothing to weaken.

   Intermediate mutants refine a [Necessary] verdict: a site can be
   necessary as a whole yet safely lose half its strength (e.g. an
   acq_rel CAS whose rel half is all that matters here) — the weakest
   mutant that explored safely is reported as [weakest_safe].

   Verdicts are relative to the probe's clients and bounds, like every
   claim this tool makes: [Over_strong] means "no client in this probe,
   within these bounds, distinguishes the weaker mode" — the paper's
   per-client notion of sufficient synchronisation, not a proof about
   all clients. *)

type site_kind = Access_site of Mode.access | Fence_site of Mode.fence

let kind_to_string = function
  | Access_site m -> Mode.access_to_string m
  | Fence_site f -> Format.asprintf "%a" Mode.pp_fence f

type weakening = To_mode of Mode.access | To_fence of Mode.fence | Drop

let weakening_to_string = function
  | To_mode m -> Mode.access_to_string m
  | To_fence f -> Format.asprintf "%a" Mode.pp_fence f
  | Drop -> "drop"

let spec_of site w = Printf.sprintf "%s=%s" site (weakening_to_string w)

(* Strictly weaker alternatives, strongest first (so the *last* entry is
   the weakest — the verdict mutant).  Atomics never weaken to na: that
   changes the program's race obligations, not just its ordering. *)
let weakenings = function
  | Access_site m -> (
      match m with
      | Mode.AcqRel -> [ To_mode Mode.Acq; To_mode Mode.Rel; To_mode Mode.Rlx ]
      | Mode.Acq | Mode.Rel -> [ To_mode Mode.Rlx ]
      | Mode.Rlx | Mode.Na -> [])
  | Fence_site f -> (
      match f with
      | Mode.F_sc -> [ To_fence Mode.F_acqrel; Drop ]
      | Mode.F_acqrel -> [ To_fence Mode.F_acq; To_fence Mode.F_rel; Drop ]
      | Mode.F_acq | Mode.F_rel -> [ Drop ])

let override_of site = function
  | To_mode m -> Override.weaken_access site m Override.empty
  | To_fence f -> Override.weaken_fence site f Override.empty
  | Drop -> Override.drop_fence site Override.empty

(* -- site discovery ----------------------------------------------------------- *)

let mode_rank = function
  | Mode.Na -> 0
  | Mode.Rlx -> 1
  | Mode.Acq | Mode.Rel -> 2
  | Mode.AcqRel -> 3

(* Run a small recorded exploration of each scenario and collect the
   labeled sites it exercises.  A site's mode is the strongest recorded
   one: a failed CAS records the read half of an acq_rel RMW as an acq
   load, and the audit must weaken the site's static mode, not a
   projection of it. *)
let discover ?(execs = 256) scenarios =
  let config = { Machine.default_config with Machine.record_accesses = true } in
  let tbl : (string, site_kind) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let note site kind =
    match Hashtbl.find_opt tbl site with
    | None ->
        Hashtbl.replace tbl site kind;
        order := site :: !order
    | Some (Access_site m0) -> (
        match kind with
        | Access_site m when mode_rank m > mode_rank m0 ->
            Hashtbl.replace tbl site kind
        | _ -> ())
    | Some (Fence_site _) -> ()
  in
  let collect accesses =
    List.iter
      (fun a ->
        match a with
        | Access.Access { site = Some s; mode; _ } -> note s (Access_site mode)
        | Access.Fence { site = Some s; fence; _ } -> note s (Fence_site fence)
        | _ -> ())
      accesses
  in
  List.iter
    (fun mk ->
      let sc = Instrument.with_accesses (mk ()) collect in
      ignore (Explore.dfs ~max_execs:execs ~config sc))
    scenarios;
  List.rev_map (fun s -> (s, Hashtbl.find tbl s)) !order

(* -- mutant exploration ------------------------------------------------------- *)

type outcome = Violated of Explore.failure | Safe | Exhausted

type mutant_result = {
  weakening : weakening;
  spec : string;  (** the [--weaken] spec that replays this mutant *)
  outcome : outcome;
  executions : int;
  scenario : string option;  (** the scenario that witnessed the violation *)
}

type options = {
  execs : int;  (** DFS budget per mutant per scenario *)
  jobs : int;
  reduce : Machine.reduction;
  discover_execs : int;
  shrink : bool;  (** delta-debug witness scripts before reporting *)
  shrink_replays : int;
}

let default_options =
  {
    execs = 100_000;
    jobs = 1;
    reduce = Machine.RSleep;
    discover_execs = 256;
    shrink = true;
    shrink_replays = 20_000;
  }

let explore_one opts override mk =
  let config =
    { Machine.default_config with Machine.overrides = override }
  in
  let sc = mk () in
  let r =
    Explore.pdfs ~config ~jobs:opts.jobs ~reduce:opts.reduce
      ~until_violation:true ~max_execs:opts.execs sc
  in
  (sc.Explore.name, r)

(* Shrink a witness script before reporting it.  Verdicts never depend on
   the script, only on whether a violation exists; a 1-minimal script is
   what a human replays.  The shrinker preserves the exact violation
   message under the same overrides, and hands the script back unchanged
   if it somehow fails to reproduce, so witnesses stay replayable. *)
let shrink_failure opts override mk (f : Explore.failure) =
  if not opts.shrink then f
  else
    let config =
      { Machine.default_config with Machine.overrides = override }
    in
    let _, script =
      Compass_fuzz.Shrink.minimize ~config ~max_replays:opts.shrink_replays
        ~scenario:(mk ()) ~message:f.Explore.message f.Explore.trace
    in
    { f with Explore.trace = script }

let run_mutant opts scenarios site w =
  let override = override_of site w in
  let rec go execs incomplete = function
    | [] ->
        {
          weakening = w;
          spec = spec_of site w;
          outcome = (if incomplete then Exhausted else Safe);
          executions = execs;
          scenario = None;
        }
    | mk :: rest -> (
        let name, r = explore_one opts override mk in
        match r.Explore.violations with
        | f :: _ ->
            {
              weakening = w;
              spec = spec_of site w;
              outcome = Violated (shrink_failure opts override mk f);
              executions = execs + r.Explore.executions;
              scenario = Some name;
            }
        | [] ->
            go
              (execs + r.Explore.executions)
              (incomplete || not r.Explore.complete)
              rest)
  in
  go 0 false scenarios

(* -- classification ----------------------------------------------------------- *)

type verdict =
  | Necessary of { witness : Explore.failure; weakening : weakening }
  | Over_strong of { weakening : weakening }
  | Unknown
  | Minimal

let verdict_to_string = function
  | Necessary _ -> "necessary"
  | Over_strong _ -> "over-strong"
  | Unknown -> "unknown"
  | Minimal -> "minimal"

type site_result = {
  site : string;
  kind : site_kind;
  mutants : mutant_result list;  (** strongest first; weakest last *)
  verdict : verdict;
  weakest_safe : weakening option;
      (** the weakest mutant that explored completely with no violation *)
}

let classify mutants =
  let weakest_safe =
    List.fold_left
      (fun acc m -> match m.outcome with Safe -> Some m.weakening | _ -> acc)
      None mutants
  in
  let verdict =
    match List.rev mutants with
    | [] -> Minimal
    | weakest :: _ -> (
        match weakest.outcome with
        | Violated witness -> Necessary { witness; weakening = weakest.weakening }
        | Safe -> Over_strong { weakening = weakest.weakening }
        | Exhausted -> Unknown)
  in
  (verdict, weakest_safe)

(* -- the audit ---------------------------------------------------------------- *)

type report = {
  probe : string;
  scenario_names : string list;
  budget : int;  (** per-mutant, per-scenario execution budget *)
  baseline_ok : bool;
  baseline_failure : Explore.failure option;
  sites : site_result list;
  first_violation : (int * int) option;
      (** (mutants run, executions spent) in run order up to and
          including the first violating mutant — the cost-to-first-
          verdict metric prioritization is benchmarked on *)
}

let counts r =
  List.fold_left
    (fun (n, o, u, m) s ->
      match s.verdict with
      | Necessary _ -> (n + 1, o, u, m)
      | Over_strong _ -> (n, o + 1, u, m)
      | Unknown -> (n, o, u + 1, m)
      | Minimal -> (n, o, u, m + 1))
    (0, 0, 0, 0) r.sites

(* [prioritize] lists sites to audit first (in the given order — e.g. a
   static analysis's predicted-necessary ranking); everything else keeps
   discovery order.  [verdict_first] marks sites whose *weakest* mutant
   (the verdict mutant) should run before the intermediate ones, so a
   predicted-necessary site reaches its violation without first paying
   for complete explorations of the stronger mutants.  Stored results
   are re-sorted to the canonical strongest-first order either way. *)
let run ?(options = default_options) ?(site_filter = fun _ -> true)
    ?(prioritize = []) ?(verdict_first = fun _ -> false) ?(log = fun _ -> ())
    ~probe scenarios =
  let scenario_names =
    List.map (fun mk -> (mk () : Explore.scenario).Explore.name) scenarios
  in
  (* Baseline sanity: the unmutated structure must pass its probe, or
     every verdict below would be noise. *)
  let baseline_failure =
    List.fold_left
      (fun acc mk ->
        match acc with
        | Some _ -> acc
        | None -> (
            let _, r = explore_one options Override.empty mk in
            match r.Explore.violations with
            | f :: _ -> Some (shrink_failure options Override.empty mk f)
            | [] -> None))
      None scenarios
  in
  let baseline_ok = baseline_failure = None in
  let mutants_run = ref 0
  and execs_run = ref 0
  and first_violation = ref None in
  let note_run m =
    if !first_violation = None then begin
      incr mutants_run;
      execs_run := !execs_run + m.executions;
      match m.outcome with
      | Violated _ -> first_violation := Some (!mutants_run, !execs_run)
      | _ -> ()
    end
  in
  let reorder discovered =
    let keyed = List.map (fun ((s, _) as e) -> (s, e)) discovered in
    let front = List.filter_map (fun s -> List.assoc_opt s keyed) prioritize in
    front
    @ List.filter (fun (s, _) -> not (List.mem s prioritize)) discovered
  in
  let sites =
    if not baseline_ok then []
    else
      discover ~execs:options.discover_execs scenarios
      |> List.filter (fun (s, _) -> site_filter s)
      |> reorder
      |> List.map (fun (site, kind) ->
             log (Printf.sprintf "auditing %s (%s)" site (kind_to_string kind));
             let ws = weakenings kind in
             let reversed = verdict_first site in
             let run_order = if reversed then List.rev ws else ws in
             let results =
               List.map
                 (fun w ->
                   let m = run_mutant options scenarios site w in
                   note_run m;
                   m)
                 run_order
             in
             let mutants = if reversed then List.rev results else results in
             let verdict, weakest_safe = classify mutants in
             log
               (Printf.sprintf "  -> %s" (verdict_to_string verdict));
             { site; kind; mutants; verdict; weakest_safe })
  in
  {
    probe;
    scenario_names;
    budget = options.execs;
    baseline_ok;
    baseline_failure;
    sites;
    first_violation = !first_violation;
  }

(* -- rendering ---------------------------------------------------------------- *)

let pp_script ppf script =
  Format.fprintf ppf "%s"
    (String.concat "," (Array.to_list script |> List.map string_of_int))

let pp_report ppf r =
  Format.fprintf ppf "@[<v>mode-necessity audit: %s@ clients: %s@ budget: %d executions per mutant per client@ "
    r.probe
    (String.concat ", " r.scenario_names)
    r.budget;
  (match r.baseline_failure with
  | Some f ->
      Format.fprintf ppf
        "BASELINE FAILS: %s (script %a)@ no sites audited — fix the structure (or you are auditing a known-broken mutant)@ "
        f.Explore.message pp_script (Explore.failure_script f)
  | None -> ());
  if r.baseline_ok then begin
    Format.fprintf ppf "@ %-34s %-10s %-12s %-10s@ " "site" "mode"
      "verdict" "weakenable";
    List.iter
      (fun s ->
        Format.fprintf ppf "%-34s %-10s %-12s %-10s@ " s.site
          (kind_to_string s.kind)
          (verdict_to_string s.verdict)
          (match s.weakest_safe with
          | Some w -> "to " ^ weakening_to_string w
          | None -> "-");
        List.iter
          (fun m ->
            match m.outcome with
            | Violated f ->
                Format.fprintf ppf
                  "    %s: violation after %d executions%s: %s@       replay: --weaken %s --script %a@ "
                  (weakening_to_string m.weakening)
                  m.executions
                  (match m.scenario with
                  | Some n -> Printf.sprintf " of %s" n
                  | None -> "")
                  f.Explore.message m.spec pp_script (Explore.failure_script f)
            | Safe ->
                Format.fprintf ppf
                  "    %s: exploration complete, no violation (%d executions)@ "
                  (weakening_to_string m.weakening)
                  m.executions
            | Exhausted ->
                Format.fprintf ppf
                  "    %s: budget exhausted, no violation (%d executions)@ "
                  (weakening_to_string m.weakening)
                  m.executions)
          s.mutants)
      r.sites;
    let n, o, u, m = counts r in
    Format.fprintf ppf
      "@ %d sites audited: %d necessary, %d over-strong, %d unknown, %d minimal@ "
      (List.length r.sites) n o u m;
    match r.first_violation with
    | Some (mc, ec) ->
        Format.fprintf ppf
          "first violation reached after %d mutant(s), %d executions@ " mc ec
    | None -> ()
  end;
  Format.fprintf ppf "@]"

let report_to_json r =
  let outcome_json = function
    | Violated f ->
        Jsonout.Obj
          [
            ("result", Jsonout.Str "violated");
            ("message", Jsonout.Str f.Explore.message);
            ("script", Jsonout.int_array (Explore.failure_script f));
            ("trace", Compass_machine.Decision.trace_to_json f.Explore.trace);
          ]
    | Safe -> Jsonout.Obj [ ("result", Jsonout.Str "safe") ]
    | Exhausted -> Jsonout.Obj [ ("result", Jsonout.Str "exhausted") ]
  in
  Jsonout.Obj
    [
      ("probe", Jsonout.Str r.probe);
      ("clients", Jsonout.str_list r.scenario_names);
      ("budget", Jsonout.Int r.budget);
      ("baseline_ok", Jsonout.Bool r.baseline_ok);
      ( "first_violation",
        Jsonout.opt
          (fun (mc, ec) ->
            Jsonout.Obj
              [ ("mutants", Jsonout.Int mc); ("executions", Jsonout.Int ec) ])
          r.first_violation );
      ( "baseline_failure",
        Jsonout.opt
          (fun (f : Explore.failure) ->
            Jsonout.Obj
              [
                ("message", Jsonout.Str f.Explore.message);
                ("script", Jsonout.int_array (Explore.failure_script f));
                ("trace", Compass_machine.Decision.trace_to_json f.Explore.trace);
              ])
          r.baseline_failure );
      ( "sites",
        Jsonout.List
          (List.map
             (fun s ->
               Jsonout.Obj
                 [
                   ("site", Jsonout.Str s.site);
                   ("mode", Jsonout.Str (kind_to_string s.kind));
                   ("verdict", Jsonout.Str (verdict_to_string s.verdict));
                   ( "weakest_safe",
                     Jsonout.opt
                       (fun w -> Jsonout.Str (weakening_to_string w))
                       s.weakest_safe );
                   ( "mutants",
                     Jsonout.List
                       (List.map
                          (fun m ->
                            Jsonout.Obj
                              [
                                ("weaken", Jsonout.Str m.spec);
                                ("executions", Jsonout.Int m.executions);
                                ( "scenario",
                                  Jsonout.opt (fun n -> Jsonout.Str n)
                                    m.scenario );
                                ("outcome", outcome_json m.outcome);
                              ])
                          s.mutants) );
                 ])
             r.sites) );
    ]
