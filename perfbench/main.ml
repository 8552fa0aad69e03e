(* Time-to-verdict benchmark: see perfbench/NOTES.md.

   main.exe --workload (explore|sim|static) --seed N --seconds S --trace (0|1)
   main.exe --census I/N      (shard I of N of the coverage reference, on stdout)

   Prints, as its last stdout line, one JSON object with [correct],
   [attempted], [failed] and [metrics] (end-to-end metrics with
   [--trace 0], per-layer ones with [--trace 1]); the line before it
   describes the run (host fingerprint, passes, failures).  The traced
   run's spans and the full result go to perfbench/_out/.  Exits 1 when a
   determinism self-check fails. *)

open Workloads

let out_dir = "perfbench/_out"

(* Set-up is timed in batches, one before each pass and one before the
   first (5 to 500 times each, until 0.05 s are spent), so that its median
   spans the whole run. *)
let setup_reps_min = 5
let setup_reps_max = 500
let setup_min_s = 0.05

(* -- statistics ---------------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the value
   at rank [n - 11] (0-based) and its percentile.  Below 11 samples no
   such rank exists and the maximum stands in (percentile 100). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (0., 0.)
  else
    let i = if n >= 11 then n - 11 else n - 1 in
    (a.(i), 100. *. float (i + 1) /. float n)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0. then 0. else a /. b

(* -- host fingerprint ------------------------------------------------------ *)

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l -> (
              match String.index_opt l ':' with
              | Some i when String.trim (String.sub l 0 i) = "model name" ->
                  String.trim (String.sub l (i + 1) (String.length l - i - 1))
              | _ -> go ())
        in
        go ())
  with Sys_error _ -> "unknown"

let nproc () =
  try
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let n = In_channel.input_line ic in
    ignore (Unix.close_process_in ic);
    Option.fold ~none:0 ~some:(fun s -> int_of_string (String.trim s)) n
  with _ -> 0

(* -- a pass ----------------------------------------------------------------- *)

type failure = Raised of string | Wrong_verdict | Coverage_short of int * int

type sample = {
  job : job;
  secs : float;
  res : (result, string) Stdlib.result;
  mutable in_units : float;  (** [secs] in reference units; nan if none ran *)
}

type pass_out = {
  samples : sample list;
  wall : float;  (** summed job times: first job's start to last verdict, minus the gaps *)
  unit_s : float;  (** median duration of the pass's reference units; nan if none ran *)
  cpu : float;  (** process CPU seconds in jobs, all domains *)
  minor_words : float;  (** allocated in jobs *)
  major_collections : int;  (** finished in jobs *)
}

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Jobs keep their group order; the seed shuffles the groups. *)
let order ~seed jobs =
  let groups = ref [] in
  List.iter
    (fun j ->
      match !groups with
      | (g, js) :: rest when g = j.group -> groups := (g, j :: js) :: rest
      | gs -> groups := (j.group, [ j ]) :: gs)
    jobs;
  let a = Array.of_list (List.rev_map (fun (_, js) -> List.rev js) !groups) in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done;
  List.concat (Array.to_list a)

(* -- the reference unit --------------------------------------------------- *)

(* On a shared host the speed of memory-bound code drifts by a quarter
   and more over minutes (NOTES.md).  So a timed pass also runs a fixed
   reference computation between jobs: before the first, after the last,
   and before any job that starts [unit_every_s] or more after the last
   one, each time as the median of [unit_burst] runs.  Each job's time is
   also given in units: its seconds over the mean of the unit medians
   just before and just after it.  The unit
   uses the standard library only, so no change to this repository's code
   moves it, and keeps at most 4 096 map nodes live, so it barely moves
   [peak_heap_mb]. *)
module Int_map = Map.Make (Int)

let unit_every_s = 0.2
let unit_burst = 3

let reference_unit () =
  let t0 = Span.now () in
  let m = ref Int_map.empty in
  for i = 1 to 20_000 do
    m := Int_map.add ((i * 7919) land 0xfff) i !m
  done;
  ignore (Sys.opaque_identity (Int_map.fold (fun _ v acc -> acc + v) !m 0));
  Span.now () -. t0

(* Every job starts on a collected heap, outside its timing, so that no
   job pays for the garbage of the one before it (the seed changes which
   job that is).  Only the jobs are timed and counted; the pass's wall
   time is the sum of its job times.  [~units:false] (the traced run)
   runs no reference unit. *)
let run_pass ?(units = true) jobs =
  let pass = { witnessed = Hashtbl.create 8 } in
  let durations = ref [] and last = ref neg_infinity in
  let cpu = ref 0. and minor_words = ref 0. and majors = ref 0 in
  (* jobs timed since the last unit, with the unit before them *)
  let pending = ref [] in
  let reference ~force =
    if units && (force || Span.now () -. !last >= unit_every_s) then begin
      let d = median (List.init unit_burst (fun _ -> reference_unit ())) in
      List.iter (fun (s, before) -> s.in_units <- s.secs /. ((before +. d) /. 2.)) !pending;
      pending := [];
      durations := d :: !durations;
      last := Span.now ()
    end
  in
  let samples =
    List.mapi
      (fun id job ->
        Gc.full_major ();
        reference ~force:(id = 0);
        let g0 = Gc.quick_stat () and c0 = cpu_time () and s0 = Span.now () in
        let res =
          Span.span ~job:id ("job:" ^ job.jid) (fun () ->
              try Ok (job.run pass ~id) with e -> Error (Printexc.to_string e))
        in
        let secs = Span.now () -. s0 in
        let g1 = Gc.quick_stat () in
        cpu := !cpu +. (cpu_time () -. c0);
        minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
        let s = { job; secs; res; in_units = nan } in
        (match !durations with before :: _ -> pending := (s, before) :: !pending | [] -> ());
        s)
      jobs
  in
  Gc.full_major ();
  reference ~force:true;
  {
    samples;
    wall = sum (fun s -> s.secs) samples;
    unit_s = (if !durations = [] then nan else median !durations);
    cpu = !cpu;
    minor_words = !minor_words;
    major_collections = !majors;
  }

let failure s =
  match s.res with
  | Error e -> Some (Raised e)
  | Ok r -> (
      match (s.job.expect, s.job.reference) with
      | Some v, _ when v <> r.verdict || r.lathist_rejects = Some false ->
          Some Wrong_verdict
      | _, Some c when r.kept < c -> Some (Coverage_short (r.kept, c))
      | _ -> None)

let results p = List.filter_map (fun s -> Result.to_option s.res) p.samples
let hard = function Some (Raised _ | Wrong_verdict) -> true | _ -> false

(* -- determinism ------------------------------------------------------------ *)

(* Everything but timings: verdicts and every count the report carries. *)
let signature p = List.sort compare (List.map (fun s -> (s.job.jid, s.res)) p.samples)

let same_counts a b = signature a = signature b

(* -- output ------------------------------------------------------------------ *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

module J = Compass_util.Jsonout

(* One-line JSON with every digit of a float (Jsonout pretty-prints and
   rounds floats to 6 digits, too few for span timestamps). *)
let rec line = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Int n -> string_of_int n
  | J.Float x -> if Float.is_finite x then json_num x else "null"
  | J.Str s -> json_str s
  | J.List l -> "[" ^ String.concat "," (List.map line l) ^ "]"
  | J.Obj kv ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ line v) kv) ^ "}"

let metric_obj ms =
  J.Obj (List.map (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ])) ms)

(* -- metrics --------------------------------------------------------------- *)

(* One time per job: its median over the run's passes of [time s]. *)
let job_times time passes =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          let ts = Option.value ~default:[] (Hashtbl.find_opt tbl s.job.jid) in
          Hashtbl.replace tbl s.job.jid (time s :: ts))
        p.samples)
    passes;
  Hashtbl.fold (fun _ ts acc -> median ts :: acc) tbl []

let in_units s = s.in_units
let in_seconds s = s.secs

let end_to_end ~setups ~passes =
  let samples = List.concat_map (fun p -> p.samples) passes in
  let times = job_times in_units passes in
  let seconds = job_times in_seconds passes in
  let n = float (List.length samples) in
  let bad = List.length (List.filter (fun s -> failure s <> None) samples) in
  let decided =
    List.length (List.filter (fun s -> match s.res with Ok r -> r.complete | _ -> false) samples)
  in
  let tail_v, tail_p = tail times in
  let walls time = median (List.map (fun p -> sum time p.samples) passes) in
  ( [
      ("setup_s", "s", median setups);
      ("wall_ref", "ref", walls in_units);
      ("job_ref.p50", "ref", median times);
      ("job_ref.tail", "ref", tail_v);
      ("decided_share", "share", float decided /. n);
      ("pass_share", "share", 1. -. (float bad /. n));
      ( "peak_heap_mb",
        "MiB",
        float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576. );
    ],
    [
      ("job_samples", J.Int (List.length times));
      ("tail_percentile", J.Float tail_p);
      ("unit_s", J.Float (median (List.map (fun p -> p.unit_s) passes)));
      ("wall_s", J.Float (walls in_seconds));
      ("job_s.p50", J.Float (median seconds));
      ("job_s.tail", J.Float (fst (tail seconds)));
    ] )

(* [pdfs]: the explore jobs run untraced through [Explore.pdfs] at
   [pdfs_domains] domains, for the parallel frontier's utilisation and
   its speed-up over [untraced]. *)
let pdfs_domains = 2

let per_layer ~untraced ~traced ~pdfs =
  let spans = Span.all () in
  let named n = List.filter (fun (s : Span.span) -> s.Span.name = n) spans in
  let busy n = sum (fun (s : Span.span) -> s.Span.busy) (named n) in
  let calls n = isum (fun (s : Span.span) -> s.Span.calls) (named n) in
  let explore_ids = Hashtbl.create 4096 in
  List.iter (fun (s : Span.span) -> Hashtbl.replace explore_ids s.Span.id ()) (named "explore");
  let under_explore n =
    sum
      (fun (s : Span.span) -> s.Span.busy)
      (List.filter (fun (s : Span.span) -> Hashtbl.mem explore_ids s.Span.parent) (named n))
  in
  let rs = results traced in
  let kept = float (isum (fun r -> r.kept) rs) in
  let launched = float (isum launched rs) in
  let explore_wall = busy "explore" in
  let self =
    explore_wall
    -. under_explore "machine.build" -. under_explore "judge" -. under_explore "simrel"
    -. under_explore "rf_key"
  in
  let rf_us = 1e6 *. ratio (busy "rf_key") (float (calls "rf_key")) in
  let steps = float (calls "machine.steps") in
  let simrel_calls = float (calls "simrel") in
  let states = float (isum (fun r -> r.sim_states) rs) in
  let bad = List.length (List.filter (fun s -> failure s <> None) traced.samples) in
  let short =
    List.length
      (List.filter (fun s -> match failure s with Some (Coverage_short _) -> true | _ -> false) traced.samples)
  in
  [
    ("explore.kept", "count", kept);
    ("explore.launched", "count", launched);
    ("explore.kept_ratio", "share", ratio kept launched);
    ("explore.sleep_pruned", "count", float (isum (fun r -> r.sleep_pruned) rs));
    ("explore.dpor_pruned", "count", float (isum (fun r -> r.dpor_pruned) rs));
    ("explore.rf_pruned", "count", float (isum (fun r -> r.rf_pruned) rs));
    ("explore.self_s", "s", if explore_wall = 0. then 0. else self);
    ("explore.launched_per_s", "1/s", ratio launched explore_wall);
    ("machine.steps", "count", steps);
    ("machine.steps_per_s", "1/s", ratio steps self);
    ("machine.builds", "count", float (calls "machine.build"));
    ("machine.build_s", "s", busy "machine.build");
    ("gc.minor_words_per_launch", "words", ratio traced.minor_words launched);
    ("gc.major_collections", "count", float traced.major_collections);
    ("rf_key.us_per_call", "us", rf_us);
    ("rf_key.est_s", "s", rf_us *. 1e-6 *. launched);
    ("judge.calls", "count", float (calls "judge"));
    ("judge.s", "s", busy "judge");
    ("judge.share", "share", ratio (busy "judge") traced.wall);
    ("simrel.calls", "count", simrel_calls);
    ("simrel.s", "s", busy "simrel");
    ("simrel.states", "count", states);
    ("simrel.states_per_call", "count", ratio states simrel_calls);
    ("shrink.replays", "count", float (isum (fun r -> r.shrink_replays) rs));
    ("static.analyze_s", "s", busy "static.analyze");
    ("sym.paths", "count", float (isum (fun r -> r.sym_paths) rs));
    ("sym.dropped", "count", float (isum (fun r -> r.sym_dropped) rs));
    ("sym.run_s", "s", busy "sym.run");
    ("lints.run_s", "s", busy "lints.run");
    ("static.relints", "count", float (isum (fun r -> r.relints) rs));
    ( "pdfs.cpu_util",
      "share",
      Option.fold ~none:0. ~some:(fun p -> ratio p.cpu (p.wall *. float pdfs_domains)) pdfs );
    ("pdfs.speedup", "x", Option.fold ~none:0. ~some:(fun p -> ratio untraced.wall p.wall) pdfs);
    ("trace.overhead", "share", ratio traced.wall untraced.wall -. 1.);
    ("failed_share", "share", ratio (float bad) (float (List.length traced.samples)));
    ("coverage.short", "count", float short);
  ]

(* -- reporting -------------------------------------------------------------- *)

let failure_json s =
  match failure s with
  | None -> None
  | Some f ->
      let what =
        match f with
        | Raised e -> "raised " ^ e
        | Wrong_verdict -> (
            match s.res with
            | Ok { lathist_rejects = Some false; _ } ->
                "break not confirmed: the LAThist search linearises its graph"
            | Ok r ->
                "verdict " ^ verdict_name r.verdict ^ ", expected "
                ^ Option.fold ~none:"-" ~some:verdict_name s.job.expect
            | Error _ -> "raised")
        | Coverage_short (kept, c) -> Printf.sprintf "kept %d of %d rf-classes" kept c
      in
      Some (J.Obj [ ("job", J.Str s.job.jid); ("failure", J.Str what) ])

let host ~workload =
  J.Obj
    [
      ("cpu_model", J.Str (cpu_model ()));
      ("nproc", J.Int (nproc ()));
      ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("workload", J.Str workload);
    ]

let write_out ~name json =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Out_channel.with_open_text (Filename.concat out_dir name) (fun oc ->
      output_string oc (line json ^ "\n"))

let span_json (s : Span.span) =
  J.Obj
    [
      ("id", J.Int s.Span.id);
      ("name", J.Str s.Span.name);
      ("job", J.Int s.Span.job);
      ("parent", J.Int s.Span.parent);
      ("start", J.Float s.Span.t0);
      ("end", J.Float s.Span.t1);
      ("calls", J.Int s.Span.calls);
      ("busy_s", J.Float s.Span.busy);
    ]

(* -- main ------------------------------------------------------------------- *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --census I/N"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let census = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME explore|sim|static");
      ("--seed", Arg.Set_int seed, "N job-order seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--census", Arg.Set_string census, "I/N print shard I of N of the coverage reference");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !census <> "" then begin
    Scanf.sscanf !census "%d/%d" (fun shard shards -> Census.generate ~shard ~shards);
    exit 0
  end;
  let reference =
    let tbl = Census.load () in
    fun jid -> Hashtbl.find_opt tbl jid
  in
  let table = workloads ~reference in
  let w =
    match List.find_opt (fun w -> w.name = !workload) table with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  (* Set-up: registry resolution, client generation, scenario
     construction.  Every pass runs on freshly set-up jobs. *)
  let setups = ref [] in
  let setup () =
    let rec batch times =
      let t0 = Span.now () in
      let jobs = order ~seed:!seed (w.make ()) in
      let times = (Span.now () -. t0) :: times in
      let n = List.length times in
      if n < setup_reps_min || (sum Fun.id times < setup_min_s && n < setup_reps_max) then
        batch times
      else begin
        setups := times @ !setups;
        jobs
      end
    in
    batch []
  in
  ignore (setup ());
  let detail = ref [] and problems = ref [] in
  let passes, metrics =
    if !trace = 0 then begin
      let n = max 1 (int_of_float (!seconds /. w.pass_s)) in
      let passes = List.init n (fun _ -> run_pass (setup ())) in
      (match passes with
      | p :: rest ->
          if not (List.for_all (same_counts p) rest) then
            problems := "counts or verdicts differ between passes" :: !problems
      | _ -> ());
      let ms, extra = end_to_end ~setups:!setups ~passes in
      detail := extra @ [ ("passes", J.Int (List.length passes)) ];
      (passes, ms)
    end
    else begin
      let untraced = run_pass ~units:false (setup ()) in
      let jobs = setup () in
      Atomic.set Span.on true;
      let traced = run_pass ~units:false jobs in
      List.iteri
        (fun id s ->
          match s.res with
          | Ok r -> Option.iter (fun p -> problems := p :: !problems) (s.job.after ~id r)
          | Error _ -> ())
        traced.samples;
      Atomic.set Span.on false;
      if not (same_counts untraced traced) then
        problems := "traced and untraced counts or verdicts differ" :: !problems;
      let pdfs =
        if w.name <> "explore" then None
        else Some (run_pass ~units:false (order ~seed:!seed (explore_jobs ~jobs:pdfs_domains ())))
      in
      Option.iter
        (fun p ->
          if List.exists (fun s -> hard (failure s)) p.samples then
            problems := "a pdfs verdict contradicts its known answer" :: !problems)
        pdfs;
      detail :=
        [ ("untraced_wall_s", J.Float untraced.wall); ("traced_wall_s", J.Float traced.wall) ]
        @ Option.fold ~none:[] ~some:(fun p -> [ ("pdfs_wall_s", J.Float p.wall) ]) pdfs;
      ([ untraced; traced ], per_layer ~untraced ~traced ~pdfs)
    end
  in
  let samples = List.concat_map (fun p -> p.samples) passes in
  (match
     List.filter
       (fun s -> w.name = "sim" && s.job.reference = None)
       (match passes with p :: _ -> p.samples | [] -> [])
   with
  | [] -> ()
  | s :: _ as missing ->
      problems :=
        Printf.sprintf "%s has no entry for %d sim jobs (first: %s)" Census.file
          (List.length missing) s.job.jid
        :: !problems);
  let hard_failed = List.length (List.filter (fun s -> hard (failure s)) samples) in
  let failures =
    List.filter_map failure_json (match passes with p :: _ -> p.samples | [] -> [])
  in
  let summary =
    J.Obj
      ([
         ("host", host ~workload:w.name);
         ("seed", J.Int !seed);
         ("trace", J.Int !trace);
         ("jobs_per_pass", J.Int (match passes with p :: _ -> List.length p.samples | [] -> 0));
       ]
      @ !detail
      @ [
          ("checks", J.Str (if !problems = [] then "ok" else String.concat "; " !problems));
          ("failures_first_pass", J.Int (List.length failures));
          ("failures", J.List (List.filteri (fun i _ -> i < 20) failures));
        ])
  in
  write_out
    ~name:(Printf.sprintf "%s-seed%d-trace%d.json" w.name !seed !trace)
    (J.Obj
       [
         ("summary", summary);
         ("metrics", metric_obj metrics);
         ("failures", J.List failures);
         ("spans", J.List (List.map span_json (Span.all ())));
       ]);
  print_endline (line summary);
  if !problems <> [] then begin
    List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) !problems;
    exit 1
  end;
  print_endline
    (line
       (J.Obj
          [
            ("correct", J.Bool (hard_failed = 0));
            ("attempted", J.Int (List.length samples));
            ("failed", J.Int hard_failed);
            ("metrics", metric_obj metrics);
          ]))
