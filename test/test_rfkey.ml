open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_clients
open Compass_sim

(* Differential suite for {!Explore.rf_class_key}.  The library builds
   the key over flat int arrays with a digit writer; [reference_key]
   below is the original list-and-Hashtbl implementation, kept verbatim
   as the oracle.  Every kept execution of the litmus battery (2+2W under
   the [`Gap] placement policy included), the ms-weak depth-1 and
   treiber depth-2 most-general clients, and every registry smoke
   workload must key byte-identically under both; a pinned CoRR key
   fixes the format, and a property checks that the key ignores how two
   threads' accesses were interleaved. *)

(* -- the oracle: the original implementation ----------------------------- *)

let reference_key ~(outcome : Machine.outcome) accesses =
  let module Loc = Compass_rmc.Loc in
  let module Mode = Compass_rmc.Mode in
  (* timestamps observed per location, then ranked *)
  let per_loc : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let note loc ts =
    let k = Loc.key loc in
    match Hashtbl.find_opt per_loc k with
    | Some l -> l := ts :: !l
    | None -> Hashtbl.add per_loc k (ref [ ts ])
  in
  List.iter
    (function
      | Access.Access r ->
          (match r.read_ts with Some ts -> note r.loc ts | None -> ());
          (match r.write_ts with Some ts -> note r.loc ts | None -> ())
      | Access.Fence _ -> ())
    accesses;
  let rank : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k tss ->
      List.iteri
        (fun i ts -> Hashtbl.replace rank (k, ts) i)
        (List.sort_uniq compare !tss))
    per_loc;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Format.asprintf "%a" Machine.pp_outcome outcome);
  let tids =
    List.sort_uniq compare (List.map Access.tid accesses)
  in
  List.iter
    (fun tid ->
      Buffer.add_string buf (Printf.sprintf "|T%d:" tid);
      List.iter
        (fun a ->
          if Access.tid a = tid then
            match a with
            | Access.Access r ->
                let k = Loc.key r.loc in
                Buffer.add_string buf
                  (Format.asprintf "%c%d%a"
                     (match r.kind with
                     | Access.Load -> 'L'
                     | Access.Store -> 'S'
                     | Access.Update -> 'U')
                     k Mode.pp_access r.mode);
                (match r.read_ts with
                | Some ts ->
                    Buffer.add_string buf
                      (Printf.sprintf "r%d" (Hashtbl.find rank (k, ts)))
                | None -> ());
                (match r.write_ts with
                | Some ts ->
                    Buffer.add_string buf
                      (Printf.sprintf "w%d" (Hashtbl.find rank (k, ts)))
                | None -> ());
                Buffer.add_char buf ';'
            | Access.Fence f ->
                Buffer.add_string buf
                  (Format.asprintf "F%a;" Mode.pp_fence f.fence))
        accesses)
    tids;
  Buffer.contents buf

(* -- recording every kept execution ----------------------------------------- *)

type tally = {
  mutable compared : int;
  mutable faults : int;
  mutable mismatch : (string * string) option;  (** first (reference, fast) *)
}

let fresh () = { compared = 0; faults = 0; mismatch = None }

(* Wrap a scenario's judge: every run the search keeps (the judge never
   sees [rf_pruned] duplicates) is keyed both ways before being judged. *)
let keyed t (sc : Explore.scenario) =
  {
    sc with
    Explore.build =
      (fun m ->
        let judge = sc.Explore.build m in
        fun outcome ->
          (match outcome with
          | Machine.Pruned -> ()
          | _ ->
              let log = Machine.accesses m in
              let want = reference_key ~outcome log in
              let got = Explore.rf_class_key ~outcome log in
              t.compared <- t.compared + 1;
              (match outcome with
              | Machine.Fault _ -> t.faults <- t.faults + 1
              | _ -> ());
              if got <> want && t.mismatch = None then
                t.mismatch <- Some (want, got));
          judge outcome);
  }

let expect_identical name t =
  Alcotest.(check bool) (name ^ ": executions keyed") true (t.compared > 0);
  Alcotest.(check (option (pair string string)))
    (Printf.sprintf "%s: %d keys byte-identical" name t.compared)
    None t.mismatch

let recording = { Machine.default_config with Machine.record_accesses = true }

(* -- the workloads ---------------------------------------------------------- *)

let test_litmus () =
  List.iter
    (fun (t : Litmus.t) ->
      let tl = fresh () in
      let r =
        Explore.dfs ~config:recording ~max_execs:400_000
          (keyed tl t.Litmus.scenario)
      in
      Alcotest.(check bool) (r.Explore.name ^ ": complete") true
        r.Explore.complete;
      expect_identical r.Explore.name tl)
    (Litmus.all ());
  (* 2+2W needs mo-middle insertion: under [`Gap] raw timestamps are
     placement-dependent, so ranks and timestamps differ. *)
  let tl = fresh () in
  let gap = { recording with Machine.policy = `Gap } in
  let t = Litmus.two_two_w () in
  let r = Explore.dfs ~config:gap ~max_execs:400_000 (keyed tl t.Litmus.scenario) in
  Alcotest.(check bool) "2+2W (gap): complete" true r.Explore.complete;
  Alcotest.(check bool) "2+2W (gap): weak outcome reached" true
    (!(t.Litmus.observed) > 0);
  expect_identical "2+2W (gap)" tl

let entry key =
  match Specreg.find key with
  | Some e -> e
  | None -> Alcotest.failf "no registered structure named %s" key

let mgc_scenario ~depth e (c : Mgc.client) =
  match Sim.client_scenario ~depth e c.Mgc.id with
  | Some sc -> sc
  | None -> Alcotest.failf "no sim scenario for client %s" c.Mgc.id

(* ms-weak's depth-1 clients break with concrete faults (the race on a
   node): the key must cover [Fault] outcomes too. *)
let test_ms_weak_mgc () =
  let e = entry "ms-weak" in
  let tl = fresh () in
  List.iter
    (fun c ->
      ignore
        (Explore.dfs ~reduce:Machine.RDporRf ~max_execs:50_000
           (keyed tl (mgc_scenario ~depth:1 e c))))
    (Mgc.generate ~depth:1 ());
  Alcotest.(check bool) "ms-weak depth 1: fault outcomes keyed" true
    (tl.faults > 0);
  expect_identical "ms-weak depth 1" tl

(* Under plain dpor (no rf dedup) every run is judged; 2 000 executions
   per client still keys ~43k executions over the 136 clients. *)
let test_treiber_mgc () =
  let e = entry "treiber" in
  let tl = fresh () in
  List.iter
    (fun c ->
      ignore
        (Explore.dfs ~config:recording ~reduce:Machine.RDpor ~max_execs:2_000
           (keyed tl (mgc_scenario ~depth:2 e c))))
    (Mgc.generate ~depth:2 ());
  expect_identical "treiber depth 2 (dpor)" tl

let test_registry_smoke () =
  List.iter
    (fun (e : Libspec.entry) ->
      let tl = fresh () in
      ignore
        (Explore.dfs ~reduce:Machine.RDporRf ~max_execs:8_000
           (keyed tl (e.Libspec.smoke ())));
      expect_identical (e.Libspec.key ^ " smoke") tl)
    (Specreg.all ())

(* -- the byte format -------------------------------------------------------- *)

(* CoRR's first DFS execution: the init thread [-1] writes x (key 0) at
   mo rank 0, the writer's two relaxed stores take ranks 1 and 2, and
   the reader loads the init message twice, returning 10 * 0 + 0. *)
let test_pinned_corr () =
  let key = ref "" in
  let sc = (Litmus.corr ()).Litmus.scenario in
  let sc =
    {
      sc with
      Explore.build =
        (fun m ->
          let judge = sc.Explore.build m in
          fun outcome ->
            if !key = "" then
              key := Explore.rf_class_key ~outcome (Machine.accesses m);
            judge outcome);
    }
  in
  ignore (Explore.dfs ~config:recording ~max_execs:1 sc);
  let tag o = Format.asprintf "%a" Machine.pp_outcome o in
  Alcotest.(check string) "finished tag" "finished(1,(),-3)"
    (tag (Machine.Finished [| Value.Int 1; Value.Unit; Value.Int (-3) |]));
  Alcotest.(check string) "empty finished tag" "finished()"
    (tag (Machine.Finished [||]));
  Alcotest.(check string) "fault tag" "fault: race" (tag (Machine.Fault "race"));
  Alcotest.(check string) "CoRR pinned key"
    "finished((),0)|T-1:S0naw0;|T0:S0rlxw1;S0rlxw2;|T1:L0rlxr0;L0rlxr0;" !key

(* -- interleaving invariance ------------------------------------------------ *)

let gen_access tid =
  QCheck.Gen.(
    let* kind = oneofl [ `Load; `Store; `Update; `Fence ] in
    let* base = int_bound 2 and* off = int_bound 1 in
    let* mode = oneofl Mode.[ Na; Rlx; Acq; Rel; AcqRel ] in
    let* fence = oneofl Mode.[ F_acq; F_rel; F_acqrel; F_sc ] in
    (* wide timestamps: [`Gap] placements are spaced far apart *)
    let* r = int_bound 5 and* w = int_bound 5 in
    let ts x = x * Timestamp.stride in
    let loc = Loc.make ~base ~off in
    return
      (match kind with
      | `Fence -> Access.Fence { aid = 0; tid; fence; site = None }
      | `Load ->
          Access.Access
            { aid = 0; tid; loc; kind = Access.Load; mode;
              read_ts = Some (ts r); write_ts = None; site = None }
      | `Store ->
          Access.Access
            { aid = 0; tid; loc; kind = Access.Store; mode;
              read_ts = None; write_ts = Some (ts w); site = None }
      | `Update ->
          Access.Access
            { aid = 0; tid; loc; kind = Access.Update; mode;
              read_ts = Some (ts r); write_ts = Some (ts (r + 1 + w));
              site = Some "cas" }))

(* Two threads' logs (tids drawn with the init thread [-1] possible) and
   a merge schedule: [true] takes the next access of the first thread. *)
let gen_two_threads =
  QCheck.Gen.(
    let* ta = int_range (-1) 3 in
    let* tb = map (fun d -> ta + 1 + d) (int_bound 3) in
    let* a = list_size (int_bound 8) (gen_access ta) in
    let* b = list_size (int_bound 8) (gen_access tb) in
    let* sched = list_repeat (List.length a + List.length b) bool in
    return (a, b, sched))

let merge a b sched =
  let rec go a b sched acc =
    match (a, b, sched) with
    | [], rest, _ | rest, [], _ -> List.rev_append acc rest
    | x :: a', _, true :: s -> go a' b s (x :: acc)
    | _, y :: b', _ :: s -> go a b' s (y :: acc)
    | _, _, [] -> List.rev_append acc (a @ b)
  in
  go a b sched []

let outcome = Machine.Finished [| Value.Int 1; Value.Unit |]

let prop_interleaving =
  QCheck.Test.make ~name:"key ignores the interleaving of two threads"
    ~count:300 (QCheck.make gen_two_threads) (fun (a, b, sched) ->
      let log = merge a b sched in
      let key = Explore.rf_class_key ~outcome log in
      key = Explore.rf_class_key ~outcome (a @ b)
      && key = Explore.rf_class_key ~outcome (b @ a)
      && key = reference_key ~outcome log)

let suite =
  [
    Alcotest.test_case "litmus battery + 2+2W (gap) match the reference" `Quick
      test_litmus;
    Alcotest.test_case "ms-weak depth-1 clients (faults) match the reference"
      `Quick test_ms_weak_mgc;
    Alcotest.test_case "treiber depth-2 clients (dpor) match the reference"
      `Slow test_treiber_mgc;
    Alcotest.test_case "registry smoke workloads match the reference" `Quick
      test_registry_smoke;
    Alcotest.test_case "pinned CoRR key" `Quick test_pinned_corr;
    Helpers.qtest prop_interleaving;
  ]
