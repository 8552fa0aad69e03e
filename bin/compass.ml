(* The compass CLI: run litmus tests, client verifications, the spec
   matrix, and the full experiment battery from the command line.

     compass litmus [--gap]
     compass client (mp / mp-weak / spsc / pipeline / resource / es) [--queue ms/hw]
     compass specs [--json FILE]
     compass check --struct KEY [--style STYLE]   (or legacy: check ms/hw/treiber/es)
     compass refine --struct KEY [--method outcomes/simulation] [--strict]
                    [--json FILE] [--expect-violation]
     compass sim (--struct KEY / --all) [--client ID] [--mgc-depth D]
                 [--until-violation] [--strict] [--json FILE]
     compass matrix
     compass dot (ms / hw / treiber / es / exchanger / chaselev)
     compass axioms
     compass analyze races --struct KEY [--strict] [--json FILE]
     compass analyze modes --struct KEY [--prioritize=static] [--strict]
                           [--json FILE]
     compass analyze static (--struct KEY / --all) [--weaken SITE=MODE]
                            [--strict] [--json FILE]
     compass replay [--script N,N,...] [--weaken SITE=MODE] [--struct KEY]
                    [--refine-client I] [--sim-client ID [--mgc-depth D]]
     compass fuzz --struct KEY [--mode uniform/pct/guided]
                  [--pct-depth D] [--execs N] [--seed S] [--jobs N]
                  [--corpus FILE] [--json FILE] [--expect-violation]
     compass shrink --script N,N,... [--struct KEY] [--weaken SITE=MODE]
     compass report [--quick]

   Structure keys ([--struct]) resolve through the central spec registry
   (Specreg; [compass specs] lists them).  Every exploring subcommand
   also takes [--jobs N] (explore on N domains),
   [--reduce[=sleep|dpor|dpor-rf|none]] (partial-order reduction: sleep
   sets, source-DPOR with wakeup sequences, or source-DPOR plus the
   reads-from reduction; bare [--reduce] means sleep),
   [--incremental BOOL] (checkpoint/restore exploration, default on;
   false = replay-from-root oracle) and [--stride N] (checkpoint
   spacing).

   Each flag is declared once below; where subcommands differ (default,
   presence, doc line) the declaration takes that as a parameter.
*)

open Cmdliner
open Compass_rmc
open Compass_machine
open Compass_event
open Compass_spec
open Compass_dstruct
open Compass_clients
open Compass_analysis
module Fz = Compass_fuzz
module Static = Compass_static.Static
module Sim = Compass_sim.Sim
module J = Compass_util.Jsonout

(* -- shared arguments --------------------------------------------------------- *)

let int_conv ~what ~min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a %s integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Budgets, job counts, strides, thread and operation counts and MGC
   depths below 1 are rejected at parse time: a zero budget would report a
   pass that explored nothing. *)
let pos_int = int_conv ~what:"positive" ~min:1

(* Indices, PCT parameters and the shrinker's replay budget may be 0. *)
let nonneg_int = int_conv ~what:"non-negative" ~min:0

let script_string choices =
  String.concat "," (List.map string_of_int (Array.to_list choices))

(* Decision scripts are comma-separated choices; empty fields are skipped,
   so [--script ""] is the empty script. *)
let script_conv =
  let parse s =
    let fields = List.filter (( <> ) "") (String.split_on_char ',' s) in
    match List.map int_of_string_opt fields with
    | ints when List.for_all Option.is_some ints ->
        Ok (Decision.of_ints (Array.of_list (List.map Option.get ints)))
    | _ ->
        Error
          (`Msg (Printf.sprintf "expected comma-separated integers, got %S" s))
  in
  let print ppf tr =
    Format.pp_print_string ppf (script_string (Decision.choices tr))
  in
  Arg.conv (parse, print)

let execs ?(default = 100_000)
    ?(doc = "Execution budget for exhaustive (DFS) exploration.") () =
  Arg.(value & opt pos_int default & info [ "execs"; "e" ] ~docv:"N" ~doc)

let random_mode =
  let doc = "Use seeded random sampling instead of exhaustive DFS." in
  Arg.(value & flag & info [ "random" ] ~doc)

let seed =
  let doc = "Seed for random exploration." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs =
  let doc =
    "Explore on $(docv) domains, which steal subtrees of the search from \
     each other (1 = no extra domain)."
  in
  Arg.(value & opt pos_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* [--reduce] history: it began life as a plain flag meaning sleep sets,
   so the converter keeps [true]/[false] as aliases and a bare
   [--reduce] still means [sleep]. *)
let reduction_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "sleep" | "true" | "on" -> Ok Machine.RSleep
    | "dpor" -> Ok Machine.RDpor
    | "dpor-rf" | "dporrf" | "rf" -> Ok Machine.RDporRf
    | "none" | "false" | "off" -> Ok Machine.RNone
    | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "invalid reduction %S (expected 'sleep', 'dpor', 'dpor-rf' \
                 or 'none')"
                s))
  in
  let print ppf r =
    Format.pp_print_string ppf
      (match r with
      | Machine.RNone -> "none"
      | Machine.RSleep -> "sleep"
      | Machine.RDpor -> "dpor"
      | Machine.RDporRf -> "dpor-rf")
  in
  Arg.conv (parse, print)

let reduce_doc =
  "Partial-order reduction: $(b,sleep) (sleep sets: skip interleavings \
   that only reorder independent steps), $(b,dpor) (source-DPOR with \
   wakeup sequences: near one execution per Mazurkiewicz trace), \
   $(b,dpor-rf) (source-DPOR plus the reads-from reduction: one counted \
   execution per distinct rf⊕mo class) or $(b,none).  Bare \
   $(b,--reduce) means $(b,sleep).  Verdicts and violations are the \
   same under all of them; only the execution count shrinks."

(* [--reduce] unset is [None], so a subcommand can pick its default
   after parsing; [absent] documents that default. *)
let reduce_opt ~absent ~doc =
  Arg.(
    value
    & opt ~vopt:(Some Machine.RSleep) (some reduction_conv) None
    & info [ "reduce" ] ~docv:"RED" ~absent ~doc)

(* Most subcommands explore unreduced by default; [sim] and [analyze]
   default to sleep sets (see their docs), and [refine] picks its
   default by method. *)
let reduce ?(default = Machine.RNone) ?(doc = reduce_doc) () =
  let absent = Format.asprintf "%a" (Arg.conv_printer reduction_conv) default in
  Term.(const (Option.value ~default) $ reduce_opt ~absent ~doc)

let sleep_default_doc =
  "Partial-order reduction (default $(b,sleep); $(b,dpor) switches to \
   source-DPOR, $(b,--reduce=none) explores the full tree)."

let incremental =
  let doc =
    "Incremental checkpoint/restore exploration (default on): backtrack \
     by restoring machine snapshots and re-execute only decision \
     suffixes.  $(b,--incremental=false) replays every execution from \
     the root — the differential-testing oracle, with identical reports."
  in
  Arg.(value & opt bool true & info [ "incremental" ] ~docv:"BOOL" ~doc)

let stride =
  let doc = "Checkpoint every $(docv) decisions in incremental mode." in
  Arg.(
    value
    & opt pos_int Compass_machine.Explore.default_stride
    & info [ "stride" ] ~docv:"N" ~doc)

(* The exploration flags litmus, client, check and axioms share;
   [sampling] adds [--random]/[--seed] (client and check). *)
type exploration = {
  execs : int;
  jobs : int;
  reduce : Machine.reduction;
  incremental : bool;
  stride : int;
  random : bool;
  seed : int;
}

let exploration ?(sampling = false) () =
  let make execs jobs reduce incremental stride random seed =
    { execs; jobs; reduce; incremental; stride; random; seed }
  in
  let random, seed =
    if sampling then (random_mode, seed) else (Term.const false, Term.const 0)
  in
  Term.(
    const make $ execs () $ jobs $ reduce () $ incremental $ stride $ random
    $ seed)

let explore ?config x sc =
  if x.random then Explore.random ?config ~execs:x.execs ~seed:x.seed sc
  else
    Explore.pdfs ?config ~jobs:x.jobs ~max_execs:x.execs ~reduce:x.reduce
      ~incremental:x.incremental ~stride:x.stride sc

let queue_arg =
  let impls =
    Arg.enum [ ("ms", Msqueue.instantiate); ("hw", Hwqueue.instantiate) ]
  in
  let doc = "Queue implementation: $(b,ms) (Michael-Scott) or $(b,hw) (Herlihy-Wing)." in
  Arg.(value & opt impls Msqueue.instantiate & info [ "queue"; "q" ] ~docv:"IMPL" ~doc)

let style_arg =
  let impls =
    Arg.enum
      [
        ("hb", Styles.Hb);
        ("so-abs", Styles.So_abs);
        ("hb-abs", Styles.Hb_abs);
        ("hist", Styles.Hist);
        ("sc-abs", Styles.Sc_abs);
      ]
  in
  let doc =
    "Spec style to check: $(b,hb), $(b,so-abs), $(b,hb-abs), $(b,hist), or \
     $(b,sc-abs)."
  in
  Arg.(value & opt impls Styles.Hb & info [ "style"; "s" ] ~docv:"STYLE" ~doc)

let finish report =
  Format.printf "%a@." Explore.pp_report report;
  if Explore.ok report then 0 else 1

(* Structure keys resolve through the central spec registry.  [presence]
   is [Arg.value] (an optional key) or [Arg.required]; replay and shrink
   also accept the key as [--probe]. *)
let struct_key ?(probe = false) presence doc =
  let info names =
    Arg.info (if probe then names @ [ "probe" ] else names) ~docv:"KEY" ~doc
  in
  presence (Arg.opt (Arg.some Arg.string) None (info [ "struct" ]))

let struct_doc what =
  Printf.sprintf "%s ($(b,compass specs) lists them): %s." what
    (String.concat ", "
       (List.map (fun k -> Printf.sprintf "$(b,%s)" k) (Specreg.keys ())))

let all_arg doc = Arg.(value & flag & info [ "all" ] ~doc)

(* Runner-side errors (unknown keys, bad [--weaken] specs, missing
   scenarios) print one line to stderr and exit 2. *)
let ( let* ) r f =
  match r with
  | Ok x -> f x
  | Error msg ->
      Format.eprintf "%s@." msg;
      2

(* The one registry lookup behind [--struct], [--probe], [--all] and the
   positional [check IMPL]. *)
let lookup key =
  match Specreg.find key with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown structure %s (try: %s)" key
           (String.concat ", " (Specreg.keys ())))

(* [--struct KEY] or [--all] (every entry [all] returns), exactly one. *)
let select ~all = function
  | Some key, false -> Result.map (fun e -> [ e ]) (lookup key)
  | None, true -> Ok (all ())
  | _ -> Error "pass exactly one of --struct KEY or --all"

let scenario_arg doc =
  Arg.(value & opt nonneg_int 0 & info [ "scenario" ] ~docv:"I" ~doc)

let scenario (e : Libspec.entry) i =
  match Specreg.scenario e i with
  | Some mk -> Ok mk
  | None ->
      Error (Printf.sprintf "structure %s has no scenario %d" e.Libspec.key i)

(* [--weaken SITE=MODE] (repeatable), parsed into one override set. *)
let weaken doc =
  let parse specs =
    Result.map_error
      (fun e -> "bad --weaken spec: " ^ e)
      (Override.of_specs specs)
  in
  let specs =
    Arg.(value & opt_all string [] & info [ "weaken" ] ~docv:"SITE=MODE" ~doc)
  in
  Term.(const parse $ specs)

let script presence doc =
  presence
    Arg.(opt (some script_conv) None & info [ "script" ] ~docv:"N,N,..." ~doc)

let expect_violation doc = Arg.(value & flag & info [ "expect-violation" ] ~doc)

let json_arg =
  let doc = "Also write the analysis report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let write_json ?seed ~tool path json =
  Compass_util.Report.write ?seed ~tool ~file:path json;
  Format.printf "JSON report written to %s@." path

(* CI gate: [--strict] turns findings into a nonzero exit, not just
   internal errors (race pairs for [analyze races], over-strong/unknown
   verdicts for [modes], expectation mismatches for [static], registry
   expectation mismatches for [refine]/[sim]). *)
let strict_arg =
  let doc =
    "Strict exit code: exit nonzero on any finding or expectation \
     mismatch, not only on errors — for CI gates."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let mgc_depth_arg =
  let doc =
    "Most-general-client enumeration bound: per-thread operation \
     sequences up to $(docv) requests (with every release/acquire \
     flag-handoff position)."
  in
  Arg.(value & opt pos_int 2 & info [ "mgc-depth" ] ~docv:"D" ~doc)

(* A word a POSIX shell reads back as [s]: plain words stay as they are,
   anything else (a client id such as [i|i], the empty script) is quoted. *)
let shell_word s =
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | ',' | '.' | '_' | '-' -> true
    | _ -> false
  in
  if s <> "" && String.for_all plain s then s else Filename.quote s

(* The replay line printed under a refine or sim counterexample; [client]
   is [`Refine i] or [`Sim (id, mgc_depth)]. *)
let print_replay_hint key client choices =
  Format.printf "replay it: compass replay --struct %s %s --script %s@." key
    (match client with
    | `Refine i -> Printf.sprintf "--refine-client %d" i
    | `Sim (id, depth) ->
        Printf.sprintf "--sim-client %s --mgc-depth %d" (shell_word id) depth)
    (shell_word (script_string choices))

(* Exit-code policy shared by [refine] and [sim]: [--strict] compares the
   verdict against the registry's [expect_violation] expectation (like
   [analyze static]), so checked-in broken fixtures gate as green when
   they do fail; [--expect-violation] inverts the plain verdict. *)
let exit_code ~strict ~expect ~expect_violation ok =
  if strict then if ok <> expect_violation then 0 else 1
  else if expect then if ok then 1 else 0
  else if ok then 0
  else 1

let refinable (e : Libspec.entry) =
  if e.Libspec.refinable then Ok ()
  else Error (Printf.sprintf "structure %s is not refinable" e.Libspec.key)

(* Forward simulation over [entries], for [sim] and [refine
   --method=simulation]: report, replay hint and strict mismatch line per
   entry, then the JSON (one report, or a [structures] list). *)
let simulate ~tool ~options ~strict ~expect ~json entries =
  let runs =
    List.map
      (fun (e : Libspec.entry) ->
        let r = Sim.run ~options e in
        Format.printf "%a@." Sim.pp r;
        Option.iter
          (fun w ->
            print_replay_hint e.Libspec.key
              (`Sim (w.Sim.w_client, options.Sim.mgc_depth))
              (Decision.choices w.Sim.w_trace))
          r.Sim.witness;
        let code =
          exit_code ~strict ~expect
            ~expect_violation:e.Libspec.expect_violation r.Sim.ok
        in
        if strict && code <> 0 then
          Format.printf
            "EXPECTATION MISMATCH: %s %s but the registry expects %s@."
            e.Libspec.key
            (if r.Sim.ok then "simulates" else "breaks")
            (if e.Libspec.expect_violation then "a violation" else "success");
        (r, code))
      entries
  in
  Option.iter
    (fun file ->
      write_json ~tool file
        (match runs with
        | [ (r, _) ] -> Sim.to_json r
        | rs ->
            let structures = List.map (fun (r, _) -> Sim.to_json r) rs in
            J.Obj [ ("structures", J.List structures) ]))
    json;
  List.fold_left (fun acc (_, code) -> max acc code) 0 runs

(* -- litmus -------------------------------------------------------------------- *)

let litmus_cmd =
  let gap =
    let doc = "Use the Gap timestamp policy (enables mo-middle insertion, e.g. 2+2W)." in
    Arg.(value & flag & info [ "gap" ] ~doc)
  in
  let run gap x =
    let config =
      { Machine.default_config with policy = (if gap then `Gap else `Append) }
    in
    let tests =
      Litmus.all () @ if gap then [ Litmus.two_two_w () ] else []
    in
    let code = ref 0 in
    List.iter
      (fun (t : Litmus.t) ->
        let ok, report, obs =
          Litmus.verdict ~max_execs:x.execs ~config ~jobs:x.jobs
            ~reduce:x.reduce ~incremental:x.incremental ~stride:x.stride t
        in
        if not ok then code := 1;
        Format.printf "%-12s %-42s expect %-10s observed %-8d execs %-8d %s@."
          report.Explore.name t.Litmus.descr
          (match t.Litmus.expect with
          | `Observable -> "observable"
          | `Forbidden -> "forbidden")
          obs report.Explore.executions
          (if ok then "OK" else "FAIL"))
      tests;
    !code
  in
  let doc = "Run the litmus-test battery against the ORC11 substrate." in
  Cmd.v (Cmd.info "litmus" ~doc) Term.(const run $ gap $ exploration ())

(* -- client -------------------------------------------------------------------- *)

let client_cmd =
  let which =
    let doc =
      "Client to verify: $(b,mp), $(b,mp-weak), $(b,spsc), $(b,pipeline), \
       $(b,resource), $(b,es), $(b,mp-stack), $(b,strong-fifo), $(b,ws), or \
       $(b,ws-weak)."
    in
    Arg.(
      required
      & pos 0 (some (enum
                       [
                         ("mp", `Mp);
                         ("mp-weak", `Mp_weak);
                         ("spsc", `Spsc);
                         ("pipeline", `Pipeline);
                         ("resource", `Resource);
                         ("es", `Es);
                         ("mp-stack", `Mp_stack);
                         ("strong-fifo", `Strong_fifo);
                         ("ws", `Ws);
                         ("ws-weak", `Ws_weak);
                       ]))
          None
      & info [] ~docv:"CLIENT" ~doc)
  in
  let run which factory x =
    match which with
    | `Mp ->
        let st = Mp.fresh_stats () in
        let r = explore x (Mp.make factory st) in
        let code = finish r in
        Format.printf "%a@." Mp.pp_stats st;
        if st.Mp.right_empty > 0 then 1 else code
    | `Mp_weak ->
        let st = Mp.fresh_stats () in
        let r = explore x (Mp.make_weak factory st) in
        let code = finish r in
        Format.printf "%a@." Mp.pp_stats st;
        Format.printf
          "(the empty outcome above is the point: no synchronisation, no \
           exclusion)@.";
        code
    | `Spsc ->
        let st = Spsc_client.fresh_stats () in
        let r =
          explore x (Spsc_client.make ~n:3 factory st)
        in
        finish r
    | `Pipeline ->
        let st = Pipeline.fresh_stats () in
        let r =
          explore x
            (Pipeline.make ~n:2 factory Hwqueue.instantiate st)
        in
        finish r
    | `Resource ->
        let st = Resource_exchange.fresh_stats () in
        let r =
          explore x (Resource_exchange.make ~threads:2 st)
        in
        let code = finish r in
        Format.printf "swaps %d, failed exchanges %d@."
          st.Resource_exchange.swaps st.Resource_exchange.fails;
        code
    | `Es ->
        let st = Es_compose.fresh_stats () in
        let r =
          explore x
            (Es_compose.make ~pushers:2 ~poppers:2 ~ops:1 st)
        in
        let code = finish r in
        Format.printf "ops via base stack %d, eliminated pairs %d@."
          st.Es_compose.via_base st.Es_compose.eliminated;
        code
    | `Mp_stack ->
        let st = Mp_stack.fresh_stats () in
        let r =
          explore x (Mp_stack.make Treiber.instantiate st)
        in
        let code = finish r in
        Format.printf "right pop: got %d, empty %d@." st.Mp_stack.right_got
          st.Mp_stack.right_empty;
        code
    | `Strong_fifo ->
        let st = Strong_fifo.fresh_stats () in
        let r = explore x (Strong_fifo.make factory st) in
        let code = finish r in
        let broke = ref 0 in
        let rc =
          explore { x with execs = x.execs / 2 }
            (Strong_fifo.make_control factory broke)
        in
        Format.printf
          "bare control: lhb non-total in %d/%d executions (the lock is what \
           upgrades the guarantee)@."
          !broke rc.Explore.executions;
        code
    | `Ws ->
        let st = Ws_client.fresh_stats () in
        let r =
          explore x
            (Ws_client.make ~tasks:2 ~thieves:1 ~steals:1 st)
        in
        let code = finish r in
        Format.printf "%a@." Ws_client.pp_stats st;
        code
    | `Ws_weak ->
        let st = Ws_client.fresh_stats () in
        let r =
          Explore.random ~execs:x.execs ~seed:x.seed
            (Ws_client.make ~weak_fences:true ~tasks:2 ~thieves:1 ~steals:2 st)
        in
        ignore (finish r);
        Format.printf
          "(violations above are the POINT: the double-take the SC fences \
           prevent)@.";
        0
  in
  let doc = "Model-check one of the paper's client verifications." in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const run $ which $ queue_arg $ exploration ~sampling:true ())

(* -- check --------------------------------------------------------------------- *)

let check_cmd =
  (* The legacy positional form: each value names the registry entry with
     the same factory. *)
  let which =
    let doc =
      "Implementation (legacy positional form; prefer $(b,--struct)): \
       $(b,ms), $(b,hw), $(b,treiber), or $(b,es)."
    in
    let keys = List.map (fun k -> (k, k)) [ "ms"; "hw"; "treiber"; "es" ] in
    Arg.(value & pos 0 (some (enum keys)) None & info [] ~docv:"IMPL" ~doc)
  in
  let threads =
    Arg.(value & opt pos_int 2 & info [ "threads"; "t" ] ~docv:"N"
           ~doc:"Producer and consumer threads (each).")
  in
  let ops =
    Arg.(value & opt pos_int 1 & info [ "ops"; "o" ] ~docv:"N"
           ~doc:"Operations per thread.")
  in
  let run which key style threads ops x =
    let* key =
      match (key, which) with
      | Some key, _ | None, Some key -> Ok key
      | None, None -> Error "give --struct KEY (or a positional IMPL)"
    in
    let* e = lookup key in
    let* sc =
      match e.Libspec.impl with
      | Specreg.Queue f ->
          Ok
            (Harness.queue_workload ~style f ~enqers:threads ~deqers:threads
               ~ops ())
      | Specreg.Stack f ->
          Ok
            (Harness.stack_workload ~style f ~pushers:threads ~poppers:threads
               ~ops ())
      | _ ->
          Error
            (Printf.sprintf
               "%s has no generic workload factory — run its registered \
                clients via compass analyze/fuzz"
               key)
    in
    finish (explore x sc)
  in
  let doc =
    "Explore a workload on an implementation (resolved through the spec \
     registry with $(b,--struct)) and check a spec style on every \
     execution."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ which
      $ struct_key Arg.value (struct_doc "Registered structure to check")
      $ style_arg $ threads $ ops
      $ exploration ~sampling:true ())

(* -- specs --------------------------------------------------------------------- *)

let specs_cmd =
  let run json =
    Format.printf "%-10s %-16s %-9s %-14s %-8s %s@." "key" "impl" "spec"
      "sites" "clients" "ladder (expected)";
    List.iter
      (fun (e : Libspec.entry) ->
        let ladder =
          match e.Libspec.ladder with
          | [] -> "-"
          | l ->
              String.concat " "
                (List.map
                   (fun (s, sat) ->
                     Printf.sprintf "%s:%s" (Libspec.style_name s)
                       (if sat then "sat" else "fail"))
                   l)
        in
        let flags =
          (if e.Libspec.expect_violation then " [expect-violation]" else "")
          ^ if e.Libspec.refinable then " [refinable]" else ""
        in
        Format.printf "%-10s %-16s %-9s %-14s %-8d %s%s@." e.Libspec.key
          e.Libspec.struct_name e.Libspec.spec.Libspec.name
          (match e.Libspec.site_prefix with Some p -> p ^ "*" | None -> "-")
          (List.length e.Libspec.scenarios)
          ladder flags)
      (Specreg.all ());
    Option.iter
      (fun file ->
        (* Site metadata comes from the static analyzer's symbolic
           discovery (Specreg.sites) — labels and declared modes, no
           exploration. *)
        let entry_json (e : Libspec.entry) =
          J.Obj
            [
              ("key", J.Str e.Libspec.key);
              ("struct", J.Str e.Libspec.struct_name);
              ("spec", J.Str e.Libspec.spec.Libspec.name);
              ("descr", J.Str e.Libspec.descr);
              ("site_prefix", J.opt (fun p -> J.Str p) e.Libspec.site_prefix);
              ("clients", J.Int (List.length e.Libspec.scenarios));
              ( "ladder",
                J.List
                  (List.map
                     (fun (s, sat) ->
                       J.Obj
                         [
                           ("style", J.Str (Libspec.style_name s));
                           ("satisfied", J.Bool sat);
                         ])
                     e.Libspec.ladder) );
              ("expect_violation", J.Bool e.Libspec.expect_violation);
              ("refinable", J.Bool e.Libspec.refinable);
              ( "sites",
                J.List
                  (List.map
                     (fun (site, mode) ->
                       J.Obj [ ("site", J.Str site); ("mode", J.Str mode) ])
                     (Specreg.sites e)) );
            ]
        in
        write_json ~tool:"specs" file
          (J.Obj
             [
               ( "structures",
                 J.List (List.map entry_json (Specreg.all ())) );
             ]))
      json;
    0
  in
  let doc =
    "List the spec registry: every structure with its spec, instrumented \
     sites, registered clients, and expected spec-style ladder.  With \
     $(b,--json), also emit per-site metadata (label and declared mode, \
     discovered by the static linter's symbolic evaluation)."
  in
  Cmd.v (Cmd.info "specs" ~doc) Term.(const run $ json_arg)

(* -- refine -------------------------------------------------------------------- *)

let refine_cmd =
  let method_arg =
    let doc =
      "Refinement method: $(b,outcomes) (per-client outcome inclusion in \
       the exhaustively explored spec object) or $(b,simulation) \
       (stepwise forward simulation over most-general clients — \
       strictly stronger; see $(b,compass sim))."
    in
    Arg.(
      value
      & opt (enum [ ("outcomes", `Outcomes); ("simulation", `Simulation) ])
          `Outcomes
      & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  (* Unset, [--reduce] follows the method: outcome inclusion explores
     unreduced, simulation uses sleep sets exactly as [sim] does. *)
  let refine_reduce =
    reduce_opt ~doc:reduce_doc
      ~absent:"$(b,none) for $(b,--method=outcomes), $(b,sleep) for \
               $(b,--method=simulation)"
  in
  let run key execs jobs reduce meth depth strict json expect =
    let* e = lookup key in
    let* () = refinable e in
    match meth with
    | `Outcomes ->
        let reduce = Option.value reduce ~default:Machine.RNone in
        let options =
          { Refine.default_options with max_execs = execs; jobs; reduce }
        in
        let r = Refine.run ~options e in
        Format.printf "%a@." Refine.pp r;
        Option.iter
          (fun (i, f) ->
            print_replay_hint key (`Refine i) (Explore.failure_script f))
          r.Refine.counterexample;
        Option.iter
          (fun file -> write_json ~tool:"refine" file (Refine.to_json r))
          json;
        exit_code ~strict ~expect ~expect_violation:e.Libspec.expect_violation
          r.Refine.ok
    | `Simulation ->
        let options =
          {
            Sim.default_options with
            mgc_depth = depth;
            max_execs = execs;
            jobs;
            reduce = Option.value reduce ~default:Machine.RSleep;
          }
        in
        simulate ~tool:"refine" ~options ~strict ~expect ~json [ e ]
  in
  let doc =
    "Check refinement of an implementation against its spec object \
     (spec-as-implementation).  $(b,--method=outcomes): for each \
     observation client, every implementation outcome must be admitted \
     by the exhaustively explored spec object, and no execution may \
     fault.  $(b,--method=simulation): stepwise forward simulation over \
     generated most-general clients.  Violations come with replayable \
     counterexample scripts; $(b,--strict) gates against the registry's \
     expectation."
  in
  Cmd.v (Cmd.info "refine" ~doc)
    Term.(
      const run
      $ struct_key Arg.required (struct_doc "Registered structure")
      $ execs () $ jobs $ refine_reduce $ method_arg $ mgc_depth_arg $ strict_arg
      $ json_arg
      $ expect_violation
          "Invert the exit code: succeed only if refinement fails (for \
           known-broken fixtures in CI).")

(* -- sim ------------------------------------------------------------------------ *)

let sim_cmd =
  let client_arg =
    let doc =
      "Restrict to one generated client id (e.g. $(b,ii|r+h2.1)) instead \
       of the whole family."
    in
    Arg.(value & opt (some string) None & info [ "client" ] ~docv:"ID" ~doc)
  in
  let until_arg =
    let doc =
      "Stop at the first breaking client (time-to-witness mode)."
    in
    Arg.(value & flag & info [ "until-violation" ] ~doc)
  in
  (* Like the analyzers, simulation defaults to sleep-set reduction: the
     verdict only reads event graphs, which sleep sets and DPOR preserve
     per Mazurkiewicz trace, so reduction is pure speedup. *)
  let sim_reduce =
    let doc =
      sleep_default_doc
      ^ "  Sleep sets and DPOR preserve simulation verdicts (they keep \
         every Mazurkiewicz trace); $(b,dpor-rf) keeps one execution per \
         rf⊕mo class, which is not yet checked to preserve them."
    in
    reduce ~default:Machine.RSleep ~doc ()
  in
  let run key all client depth execs jobs reduce incremental until strict json
      =
    let* entries =
      select (key, all) ~all:(fun () ->
          List.filter (fun e -> e.Libspec.refinable) (Specreg.all ()))
    in
    let* () = match entries with [ e ] -> refinable e | _ -> Ok () in
    let options =
      {
        Sim.default_options with
        mgc_depth = depth;
        max_execs = execs;
        jobs;
        reduce;
        incremental;
        until_violation = until;
        only_client = client;
      }
    in
    simulate ~tool:"sim" ~options ~strict ~expect:false ~json entries
  in
  let doc =
    "Forward-simulation refinement over most-general clients: enumerate \
     the observationally complete two-thread client family from the \
     structure's op signature, exhaustively explore each client, and \
     match every execution's commit points against the spec object's \
     labelled transitions under the view-aware abstraction relation.  A \
     failure yields a shrunk, replayable witness naming the exact commit \
     point (or faulting step) where the abstraction relation breaks."
  in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      const run
      $ struct_key Arg.value
          "Check one registered structure ($(b,compass specs) lists them)."
      $ all_arg "Check every refinable registered structure."
      $ client_arg $ mgc_depth_arg
      $ execs ~default:50_000 ~doc:"Exploration budget per generated client." ()
      $ jobs $ sim_reduce $ incremental $ until_arg $ strict_arg $ json_arg)

(* -- matrix --------------------------------------------------------------------- *)

let matrix_cmd =
  let run execs jobs reduce =
    let cells =
      Experiments.matrix ~dfs_execs:execs ~rand_execs:(execs / 10) ~jobs ~reduce
        ()
    in
    Format.printf "%a" Experiments.pp_matrix cells;
    0
  in
  let doc =
    "Run the spec-style satisfaction matrix (experiment E2): every \
     implementation against every spec style."
  in
  Cmd.v (Cmd.info "matrix" ~doc) Term.(const run $ execs () $ jobs $ reduce ())

(* -- dot ------------------------------------------------------------------------ *)

let dot_cmd =
  let which =
    let doc = "Structure to sample: $(b,ms), $(b,hw), $(b,treiber), $(b,es), $(b,exchanger), $(b,chaselev)." in
    Arg.(
      required
      & pos 0 (some (enum [ ("ms", `Ms); ("hw", `Hw); ("treiber", `Tr); ("es", `Es); ("exchanger", `Ex); ("chaselev", `Cl) ])) None
      & info [] ~docv:"IMPL" ~doc)
  in
  let run which seed =
    (* Sample one contended finished execution and dump its graph(s). *)
    let rec sample seed (build : Machine.t -> Value.t Prog.t list * Graph.t list) =
      let m = Machine.create () in
      let threads, graphs = build m in
      Machine.spawn m threads;
      match Machine.run m (Oracle.random ~seed) with
      | Machine.Finished _ -> graphs
      | _ -> sample (seed + 1) build
    in
    let vi n = Value.Int n in
    let queue_build (factory : Iface.queue_factory) m =
      let q = factory.make_queue m ~name:"q" in
      ( [
          Prog.returning_unit (Prog.seq [ q.Iface.enq (vi 1); q.Iface.enq (vi 2) ]);
          Prog.bind (q.Iface.deq ()) (fun _ -> q.Iface.deq ());
        ],
        [ q.Iface.q_graph ] )
    in
    let stack_build (factory : Iface.stack_factory) m =
      let s = factory.make_stack m ~name:"s" in
      ( [
          Prog.returning_unit (Prog.seq [ s.Iface.push (vi 1); s.Iface.push (vi 2) ]);
          Prog.bind (s.Iface.pop ()) (fun _ -> s.Iface.pop ());
        ],
        [ s.Iface.s_graph ] )
    in
    let graphs =
      match which with
      | `Ms -> sample seed (queue_build Msqueue.instantiate)
      | `Hw -> sample seed (queue_build Hwqueue.instantiate)
      | `Tr -> sample seed (stack_build Treiber.instantiate)
      | `Es ->
          sample seed (fun m ->
              let t = Elimination.create m ~name:"es" in
              ( [
                  Prog.returning_unit (Elimination.push t (vi 1));
                  Prog.bind (Elimination.pop t) (fun _ -> Prog.return Value.Unit);
                ],
                [
                  Elimination.graph t;
                  Treiber.graph t.Elimination.base;
                  Exchanger.graph t.Elimination.ex;
                ] ))
      | `Ex ->
          sample seed (fun m ->
              let x = Exchanger.create m ~name:"x" in
              ( [ Exchanger.exchange x (vi 1); Exchanger.exchange x (vi 2) ],
                [ Exchanger.graph x ] ))
      | `Cl ->
          sample seed (fun m ->
              let t = Chaselev.create m ~name:"dq" in
              let owner =
                Prog.bind
                  (Prog.seq [ Chaselev.push t (vi 1); Chaselev.push t (vi 2) ])
                  (fun () -> Chaselev.pop t)
              in
              ([ owner; Chaselev.steal t ], [ Chaselev.graph t ]))
    in
    List.iter (fun g -> print_string (Graph.to_dot g)) graphs;
    0
  in
  let doc = "Sample one execution and print its event graph(s) as DOT." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ which $ seed)

(* -- axioms ------------------------------------------------------------------------ *)

let axioms_cmd =
  let run x =
    (* Differential validation: every execution of the litmus battery and
       a workload per structure must satisfy the RC11 axioms when rebuilt
       declaratively from the recorded accesses. *)
    let config = { Machine.default_config with record_accesses = true } in
    let with_rc11 (sc : Explore.scenario) =
      {
        sc with
        Explore.build =
          (fun m ->
            let judge = sc.Explore.build m in
            fun outcome ->
              match judge outcome with
              | Explore.Pass -> (
                  match outcome with
                  | Machine.Finished _ -> (
                      match Rc11.check (Machine.accesses m) with
                      | [] -> Explore.Pass
                      | v :: _ -> Explore.Violation v)
                  | _ -> Explore.Pass)
              | other -> other);
      }
    in
    let code = ref 0 in
    let run_sc sc =
      let r = explore ~config x (with_rc11 sc) in
      if not (Explore.ok r) then code := 1;
      Format.printf "%-38s %7d executions  %s@." r.Explore.name
        r.Explore.executions
        (if Explore.ok r then "axioms OK" else "AXIOM VIOLATION")
    in
    List.iter (fun (t : Litmus.t) -> run_sc t.Litmus.scenario) (Litmus.all ());
    run_sc (Harness.queue_workload Msqueue.instantiate ~enqers:2 ~deqers:1 ~ops:1 ());
    run_sc (Harness.queue_workload Hwqueue.instantiate ~enqers:2 ~deqers:1 ~ops:1 ());
    run_sc (Harness.stack_workload Treiber.instantiate ~pushers:2 ~poppers:1 ~ops:1 ());
    run_sc (Harness.exchanger_workload ~threads:2 ());
    !code
  in
  let doc =
    "Differentially validate the operational semantics against the RC11 \
     axioms (po/rf/mo/fr/sw/hb rebuilt from recorded accesses)."
  in
  Cmd.v (Cmd.info "axioms" ~doc) Term.(const run $ exploration ())

(* -- analyze ----------------------------------------------------------------------- *)

(* Unlike the exploring subcommands, analysis defaults to sleep-set
   reduction: the audit needs *complete* explorations to call a mode
   over-strong, and reduction keeps them small without losing
   violations. *)
let analyze_reduce = reduce ~default:Machine.RSleep ~doc:sleep_default_doc ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let analyze_races_cmd =
  let run key execs reduce incremental stride strict json =
    let* e = lookup key in
    let agg = Races.agg_create () in
    let config =
      { Machine.default_config with record_accesses = true }
    in
    List.iter
      (fun mk ->
        let sc =
          Instrument.with_accesses (mk ()) (fun log ->
              Races.agg_add agg log)
        in
        let r =
          Explore.dfs ~max_execs:execs ~reduce ~incremental ~stride ~config
            sc
        in
        Format.printf "%-38s %7d executions analysed@." r.Explore.name
          r.Explore.executions)
      e.Libspec.scenarios;
    let s = Races.summary agg in
    Format.printf "@.%a@." Races.pp_summary s;
    Option.iter
      (fun f -> write_json ~tool:"analyze-races" f (Races.summary_to_json s))
      json;
    if s.Races.mismatch_count > 0 then 1
    else if strict && s.Races.total_pairs > 0 then 1
    else 0
  in
  let doc =
    "Explore a structure's registered clients with access recording on, detect \
     data races per execution with the vector-clock detector, aggregate \
     them by site pair, and differentially check every execution's race \
     set against the RC11 checker's race clause.  (Sequential driver \
     only: the collector is a closure.)"
  in
  Cmd.v (Cmd.info "races" ~doc)
    Term.(
      const run
      $ struct_key Arg.required (struct_doc "Registered structure")
      $ execs () $ analyze_reduce $ incremental $ stride $ strict_arg
      $ json_arg)

let analyze_modes_cmd =
  let site_arg =
    let doc = "Only audit sites whose label contains $(docv)." in
    Arg.(value & opt (some string) None & info [ "site" ] ~docv:"SUBSTR" ~doc)
  in
  let prioritize_arg =
    let doc =
      "Audit order: $(b,none) (discovery order) or $(b,static) (the \
       static linter's predicted-necessary sites first, their weakest \
       verdict mutant run before the intermediate ones — fewer mutants \
       and executions to the first Necessary verdict)."
    in
    Arg.(
      value
      & opt (Arg.enum [ ("none", `None); ("static", `Static) ]) `None
      & info [ "prioritize" ] ~docv:"ORDER" ~doc)
  in
  let run key execs jobs reduce site prio strict json =
    let* e = lookup key in
    let options = { Audit.default_options with execs; jobs; reduce } in
    let site_filter =
      match site with
      | None -> fun _ -> true
      | Some sub -> fun s -> contains ~sub s
    in
    let prioritize, verdict_first =
      match prio with
      | `None -> ([], fun _ -> false)
      | `Static ->
          let st =
            Static.analyze ~subject:e.Libspec.key e.Libspec.scenarios
          in
          let predicted = st.Static.predicted_necessary in
          Format.printf "static priority: %s@."
            (match predicted @ st.Static.over_strong with
            | [] -> "(none)"
            | order -> String.concat ", " order);
          ( predicted @ st.Static.over_strong,
            fun s -> List.mem s predicted )
    in
    let report =
      Audit.run ~options ~site_filter ~prioritize ~verdict_first
        ~log:(fun line -> Format.printf "%s@." line)
        ~probe:e.Libspec.key e.Libspec.scenarios
    in
    Format.printf "@.%a@." Audit.pp_report report;
    Option.iter
      (fun f ->
        write_json ~tool:"analyze-modes" f (Audit.report_to_json report))
      json;
    if not report.Audit.baseline_ok then 1
    else
      let _, over_strong, unknown, _ = Audit.counts report in
      if strict && over_strong + unknown > 0 then 1 else 0
  in
  let doc =
    "The mode-necessity audit: for every labeled atomic site (and fence) \
     the registered clients exercise, run strictly weaker mutants via mode overrides \
     and classify the site necessary (violation witnessed, with a \
     replayable counterexample script), over-strong (exploration \
     exhausted with no violation), or unknown (budget ran out).  \
     $(b,--prioritize=static) orders the audit by the static linter's \
     prediction; $(b,--strict) exits nonzero on any over-strong or \
     unknown verdict."
  in
  Cmd.v (Cmd.info "modes" ~doc)
    Term.(
      const run
      $ struct_key Arg.required (struct_doc "Registered structure")
      $ execs () $ jobs $ analyze_reduce $ site_arg $ prioritize_arg
      $ strict_arg $ json_arg)

let analyze_static_cmd =
  let run key all overrides strict json =
    let* overrides = overrides in
    let* entries = select (key, all) ~all:Specreg.all in
    let mismatched = ref [] in
    let reports =
      List.map
        (fun (e : Libspec.entry) ->
          let r =
            Static.analyze ~overrides ~subject:e.Libspec.key
              e.Libspec.scenarios
          in
          Format.printf "%a@." Static.pp_report r;
          (* With an explicit [--weaken] the registry expectation does not
             apply — strict then simply demands a clean report. *)
          let ok =
            if Override.is_empty overrides then
              Static.clean r = not e.Libspec.expect_violation
            else Static.clean r
          in
          Format.printf "verdict: %s%s@.@."
            (if Static.clean r then "clean" else "flagged")
            (if ok then ""
             else if Override.is_empty overrides then
               Printf.sprintf " (expected %s)"
                 (if e.Libspec.expect_violation then "flagged" else "clean")
             else "");
          if not ok then mismatched := e.Libspec.key :: !mismatched;
          Static.report_to_json r)
        entries
    in
    Option.iter
      (fun f ->
        write_json ~tool:"analyze-static" f
          (J.Obj [ ("structures", J.List reports) ]))
      json;
    match List.rev !mismatched with
    | [] -> 0
    | keys ->
        Format.eprintf "expectation mismatch: %s@." (String.concat ", " keys);
        if strict then 1 else 0
  in
  let doc =
    "The static synchronization linter: evaluate a structure's registered \
     clients symbolically over the Prog DSL (no exploration), extract the \
     site/location access graph, and run the lint passes — publication \
     safety, acquire pairing, relaxed-CAS-success misuse, non-atomic race \
     candidates — plus a hypothetical-weakening pass splitting the \
     labeled sites into predicted-necessary and over-strong candidates.  \
     $(b,--strict) exits nonzero when a verdict contradicts the \
     registry's expectation (expect-violation structures must be \
     flagged, the rest clean)."
  in
  Cmd.v (Cmd.info "static" ~doc)
    Term.(
      const run
      $ struct_key Arg.value (struct_doc "Structure to lint")
      $ all_arg "Lint every registered structure."
      $ weaken
          "Lint under a hypothetical weakening (repeatable): $(b,site=mode), \
           the same specs $(b,compass replay --weaken) takes."
      $ strict_arg $ json_arg)

let analyze_cmd =
  let doc =
    "Synchronization analysis: per-site race detection, the \
     mode-necessity audit, and the static linter."
  in
  Cmd.group (Cmd.info "analyze" ~doc)
    [ analyze_races_cmd; analyze_modes_cmd; analyze_static_cmd ]

(* -- replay ------------------------------------------------------------------------ *)

(* The plain MP client replay and shrink use without [--struct]. *)
let mp_client factory () = Mp.make factory (Mp.fresh_stats ())

let replay_cmd =
  let refine_client_arg =
    let doc =
      "Replay against the structure's $(docv)-th refinement observation \
       client (judged by spec-object outcome membership) instead of its \
       registered scenarios — for $(b,compass refine) counterexamples."
    in
    Arg.(
      value
      & opt (some nonneg_int) None
      & info [ "refine-client" ] ~docv:"I" ~doc)
  in
  let sim_client_arg =
    let doc =
      "Replay against the generated most-general client $(docv) (judged \
       by the forward-simulation relation) — for $(b,compass sim) \
       witnesses; $(b,--mgc-depth) must cover the id."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "sim-client" ] ~docv:"ID" ~doc)
  in
  let trace_arg =
    let doc =
      "Print the typed decision trace of the replay: one numbered line \
       per decision with its kind (sched/read/cas/ts), source site label \
       and reads-from provenance (which write the choice read)."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  (* The scenario to replay and the site labels [--weaken] may name. *)
  let target factory key ~scenario_idx ~refine_client ~sim_client ~depth =
    match key with
    | None ->
        Ok
          ( mp_client factory (),
            fun () -> List.map fst (Static.site_modes [ mp_client factory ]) )
    | Some key ->
        let missing what = Printf.sprintf "structure %s has no %s" key what in
        Result.bind (lookup key) (fun e ->
            let sc =
              match (sim_client, refine_client) with
              | Some id, _ ->
                  Option.to_result
                    ~none:
                      (missing
                         (Printf.sprintf "client %s at mgc depth %d" id depth))
                    (Sim.client_scenario ~depth e id)
              | None, Some i ->
                  Option.to_result
                    ~none:(missing (Printf.sprintf "refinement client %d" i))
                    (Refine.client_scenario e i)
              | None, None ->
                  Result.map (fun mk -> mk ()) (scenario e scenario_idx)
            in
            Result.map
              (fun sc -> (sc, fun () -> List.map fst (Specreg.sites e)))
              sc)
  in
  let run factory script overrides key scenario_idx refine_client sim_client
      depth show_trace =
    let script = Option.value script ~default:(Decision.of_ints [||]) in
    let* overrides = overrides in
    let* sc, valid_sites =
      target factory key ~scenario_idx ~refine_client ~sim_client ~depth
    in
    (* An override naming a site that does not exist would silently replay
       unweakened; check the labels the static analyzer discovers for the
       chosen probe first. *)
    let valid_sites =
      if Override.is_empty overrides then [] else valid_sites ()
    in
    let unknown_sites =
      Override.spec_strings overrides
      |> List.filter_map (fun spec ->
             match String.index_opt spec '=' with
             | Some i ->
                 let site = String.sub spec 0 i in
                 if List.mem site valid_sites then None else Some site
             | None -> None)
    in
    if unknown_sites <> [] then begin
      Format.eprintf "unknown --weaken site(s): %s@.valid sites: %s@."
        (String.concat ", " unknown_sites)
        (String.concat ", " valid_sites);
      2
    end
    else begin
      if not (Override.is_empty overrides) then
        Format.printf "weakened: %a@." Override.pp overrides;
      let config = { Machine.default_config with overrides } in
      let r = Explore.replay ~config sc script in
      if r.Explore.r_clamped > 0 then
        Format.printf
          "note: %d out-of-range choice(s) clamped to the last alternative@."
          r.Explore.r_clamped;
      Format.printf "outcome: %a@.verdict: %s@.@.%a@." Machine.pp_outcome
        r.Explore.r_outcome
        (match r.Explore.r_verdict with
        | Explore.Pass -> "pass"
        | Explore.Violation s -> "VIOLATION: " ^ s
        | Explore.Discard s -> "discard: " ^ s)
        Trace.pp (Machine.trace r.Explore.r_machine);
      if show_trace then
        Format.printf "@.decision trace:@.%a@." Decision.pp_trace
          r.Explore.r_trace;
      0
    end
  in
  let doc =
    "Replay one execution from a decision script with full tracing — \
     optionally under the same $(b,--weaken) mode overrides an audit \
     mutant ran with, so its counterexamples replay exactly (empty \
     script = first path)."
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run $ queue_arg
      $ script Arg.value
          "Decision script: comma-separated choices (from a report's \
           counterexample)."
      $ weaken
          "Weaken a site while replaying (repeatable): $(b,site=mode) with \
           an access mode ($(b,rlx), $(b,acq), $(b,rel), $(b,acq_rel)), a \
           fence mode ($(b,fence_acq), ...), or $(b,drop) — the spec an \
           audit counterexample prints."
      $ struct_key ~probe:true Arg.value
          "Replay against a registered structure's client scenario instead \
           of the plain MP client (same scenarios the audit runs; see \
           $(b,compass analyze))."
      $ scenario_arg
          "Scenario index within the structure's registered clients \
           (default 0, the MP client)."
      $ refine_client_arg $ sim_client_arg $ mgc_depth_arg $ trace_arg)

(* -- fuzz ---------------------------------------------------------------------- *)

let fuzz_scenario_doc =
  "Scenario index within the structure's registered clients (default 0)."

let fuzz_cmd =
  let mode_arg =
    let doc =
      "Search strategy: $(b,uniform) (seeded-random baseline), $(b,pct) \
       (priority-based scheduling with change points), or $(b,guided) \
       (coverage-guided corpus mutation)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("uniform", Fz.Fuzz.Uniform);
               ("pct", Fz.Fuzz.Pct);
               ("guided", Fz.Fuzz.Guided);
             ])
          Fz.Fuzz.Pct
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let pct_depth =
    let doc = "PCT priority change points." in
    Arg.(value & opt nonneg_int 3 & info [ "pct-depth"; "d" ] ~docv:"D" ~doc)
  in
  let pct_len =
    let doc =
      "Scheduling-decision count PCT samples change points over (0: \
       measure with a pilot execution)."
    in
    Arg.(value & opt nonneg_int 0 & info [ "pct-len" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc =
      "Seed the guided corpus from $(docv) (missing file = empty) and save \
       the final corpus back to it."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let shrink_arg =
    let doc = "Shrink the first violation before reporting (default on)." in
    Arg.(value & opt bool true & info [ "shrink" ] ~docv:"BOOL" ~doc)
  in
  let run key scenario_idx mode depth len execs seed jobs corpus shrink json
      expect =
    let* e = lookup key in
    let* mk = scenario e scenario_idx in
    let corpus_in = Option.map Fz.Corpus.load corpus in
    let options =
      {
        Fz.Fuzz.default_options with
        mode;
        execs;
        seed;
        jobs;
        pct_depth = depth;
        sched_len = len;
        shrink;
        corpus_in;
      }
    in
    let o = Fz.Fuzz.run ~options mk in
    Format.printf "%a@." Fz.Fuzz.pp_outcome o;
    let confirmed =
      match o.Fz.Fuzz.violations with
      | [] -> false
      | f :: _ -> (
          (* the reported (shrunk) script must still replay to the same
             violation *)
          let r =
            Explore.replay ~config:options.Fz.Fuzz.config (mk ())
              f.Explore.trace
          in
          match r.Explore.r_verdict with
          | Explore.Violation m when m = f.Explore.message ->
              Format.printf "replay confirms the violation@.";
              true
          | _ ->
              Format.printf
                "WARNING: replay does not reproduce the violation@.";
              false)
    in
    Option.iter
      (fun file ->
        Fz.Corpus.save o.Fz.Fuzz.corpus file;
        Format.printf "corpus (%d entries) saved to %s@."
          (Fz.Corpus.size o.Fz.Fuzz.corpus)
          file)
      corpus;
    Option.iter
      (fun file ->
        write_json ~tool:"fuzz" ~seed file (Fz.Fuzz.outcome_to_json o))
      json;
    if expect then if confirmed then 0 else 1
    else if o.Fz.Fuzz.violations = [] then 0
    else 1
  in
  let doc =
    "Schedule-fuzz a structure probe: sample executions under a search \
     strategy (uniform / PCT / coverage-guided) instead of enumerating \
     them, report coverage statistics, and shrink the first violating \
     decision script to 1-minimal form.  Deterministic for a fixed \
     $(b,--seed) at any $(b,--jobs) count."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run
      $ struct_key Arg.required (struct_doc "Registered structure")
      $ scenario_arg fuzz_scenario_doc
      $ mode_arg $ pct_depth $ pct_len
      $ execs ~default:4000 ~doc:"Fuzzing execution budget." ()
      $ seed $ jobs $ corpus_arg $ shrink_arg $ json_arg
      $ expect_violation
          "Invert the exit code: succeed only if a violation was found (for \
           known-broken fixtures in CI).")

(* -- shrink -------------------------------------------------------------------- *)

let shrink_cmd =
  let max_replays =
    let doc = "Replay budget for the shrinker." in
    Arg.(value & opt nonneg_int 20_000 & info [ "max-replays" ] ~docv:"N" ~doc)
  in
  let run factory script overrides key scenario_idx max_replays =
    let* overrides = overrides in
    let* mk =
      match key with
      | None -> Ok (mp_client factory)
      | Some key -> Result.bind (lookup key) (fun e -> scenario e scenario_idx)
    in
    let config = { Machine.default_config with overrides } in
    let r = Explore.replay ~config (mk ()) script in
    match r.Explore.r_verdict with
    | Explore.Violation message ->
        let stats, small =
          Fz.Shrink.minimize ~config ~max_replays ~scenario:(mk ()) ~message
            script
        in
        Format.printf
          "violation: %s@ script: %d -> %d choices in %d replays%s@ shrunk: \
           %s@."
          message stats.Fz.Shrink.initial_len stats.Fz.Shrink.final_len
          stats.Fz.Shrink.replays
          (if stats.Fz.Shrink.clamped > 0 then
             Printf.sprintf " (%d choices clamped)" stats.Fz.Shrink.clamped
           else "")
          (script_string (Decision.choices small));
        0
    | Explore.Pass | Explore.Discard _ ->
        Format.eprintf
          "the script does not produce a violation — nothing to shrink@.";
        1
  in
  let doc =
    "Delta-debug a violating decision script (e.g. from a fuzz or audit \
     report) down to a 1-minimal script producing the same violation, \
     optionally under the same $(b,--weaken) overrides."
  in
  Cmd.v (Cmd.info "shrink" ~doc)
    Term.(
      const run $ queue_arg
      $ script Arg.required
          "Violating decision script to shrink (comma-separated)."
      $ weaken
          "Shrink under mode overrides (repeatable): $(b,site=mode), as \
           printed by audit counterexamples."
      $ struct_key ~probe:true Arg.value
          "Shrink against a registered structure's client scenario instead \
           of the plain MP client."
      $ scenario_arg fuzz_scenario_doc
      $ max_replays)

(* -- report ---------------------------------------------------------------------- *)

let report_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced budgets (~10x faster).")
  in
  let run quick jobs reduce =
    let t0 = Unix.gettimeofday () in
    let lines = Experiments.all ~quick ~jobs ~reduce () in
    List.iter (fun l -> Format.printf "%a@.@." Experiments.pp_line l) lines;
    Format.printf "E7 reference points from the paper (Section 1.2 / 6):@.";
    List.iter
      (fun (what, figure) -> Format.printf "  %-28s %s@." what figure)
      Experiments.e7_paper_numbers;
    (* One-line synchronization-audit summary (full run: compass analyze
       modes --struct ms). *)
    let* e = lookup "ms" in
    let options =
      (* reduction always: the summary needs complete explorations to
         tell over-strong from unknown within a sane budget *)
      { Audit.default_options with execs = 12_000; jobs; reduce = Machine.RSleep }
    in
    let ar = Audit.run ~options ~probe:e.Libspec.key e.Libspec.scenarios in
    let n, o, u, mi = Audit.counts ar in
    Format.printf
      "@.sync audit (ms-queue): %d sites audited — %d necessary, %d \
       over-strong, %d unknown, %d minimal@."
      (List.length ar.Audit.sites) n o u mi;
    let ok = List.length (List.filter (fun l -> l.Experiments.ok) lines) in
    Format.printf "@.%d/%d experiments OK in %.1fs@." ok (List.length lines)
      (Unix.gettimeofday () -. t0);
    if ok = List.length lines && ar.Audit.baseline_ok then 0 else 1
  in
  let doc = "Run the full experiment battery (E1-E8) and print paper-vs-measured." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ quick $ jobs $ reduce ())

(* -- main ------------------------------------------------------------------------- *)

let () =
  let doc =
    "COMPASS-OCaml: executable relaxed-memory library specifications \
     (PLDI 2022 reproduction)"
  in
  let info = Cmd.info "compass" ~version:Core.version ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            litmus_cmd; client_cmd; specs_cmd; check_cmd; refine_cmd;
            sim_cmd; matrix_cmd; dot_cmd; axioms_cmd; analyze_cmd;
            replay_cmd; fuzz_cmd; shrink_cmd; report_cmd;
          ]))
