open Compass_rmc
open Compass_machine

(* The lint passes over symbolic paths.

   Every pass takes a *hypothetical* override [hyp] — the lints are
   evaluated both at declared modes ([hyp = empty]) and under per-site
   weakenings, which is how {!Static} predicts which sites the dynamic
   audit will find Necessary.  Evaluation itself is mode-independent
   ({!Sym}), so re-linting under a hypothesis costs an array scan, not a
   re-evaluation.

   Severities: [Defect] passes (publication, acquire-pairing,
   relaxed-CAS-success) must be empty for every correct structure at
   declared modes — the no-false-positive sweep in the tests holds the
   line.  [Candidate] findings (na-race pairs) are deliberately
   over-approximate: the differential soundness harness only requires
   them to *contain* every dynamically detected race pair. *)

type severity = Defect | Candidate

let severity_to_string = function Defect -> "defect" | Candidate -> "candidate"

type finding = {
  lint : string;
  severity : severity;
  site : string;
  partner : string option;
  scenario : string;
  detail : string;
}

(* -- mode queries under a hypothesis ----------------------------------------- *)

let amode hyp (e : Sym.ev) = Override.access hyp ~site:e.Sym.site e.Sym.mode

let acquires hyp (e : Sym.ev) =
  match e.Sym.ekind with
  | Sym.EFence f -> (
      match Override.fence hyp ~site:e.Sym.site f with
      | Some (Mode.F_acq | Mode.F_acqrel | Mode.F_sc) -> true
      | _ -> false)
  | Sym.ELoad | Sym.EAwait | Sym.EUpdate _ -> Mode.acquires (amode hyp e)
  | Sym.EStore | Sym.EAlloc -> false

let releases hyp (e : Sym.ev) =
  match e.Sym.ekind with
  | Sym.EFence f -> (
      match Override.fence hyp ~site:e.Sym.site f with
      | Some (Mode.F_rel | Mode.F_acqrel | Mode.F_sc) -> true
      | _ -> false)
  | Sym.EStore | Sym.EUpdate true -> Mode.releases (amode hyp e)
  | _ -> false

let is_write (e : Sym.ev) =
  match e.Sym.ekind with
  | Sym.EStore | Sym.EUpdate true -> true
  | Sym.EAlloc -> e.Sym.wrote <> None
  | _ -> false

let is_read (e : Sym.ev) =
  match e.Sym.ekind with
  | Sym.ELoad | Sym.EAwait | Sym.EUpdate _ -> true
  | _ -> false

(* An access to a block whose pointer was produced by event [j] is
   guarded if the producing read acquires, or some other acquire is
   sequenced anywhere before the dereference (a prior acquire load of
   the signal, an acquire fence after a relaxed load, a lock
   acquisition). *)
let guarded hyp (evs : Sym.ev array) j d =
  acquires hyp evs.(j)
  ||
  let rec go i =
    i < d && (((i <> j && acquires hyp evs.(i)) || go (i + 1)))
  in
  go 0

let cloc_key (e : Sym.ev) = Option.map Loc.key e.Sym.cloc

(* -- publication safety ------------------------------------------------------ *)

(* A path initialises a block it allocated with plain writes and then
   publishes its pointer to a shared location.  Safe shapes:
   (1) a release (store, RMW or fence) sequenced after the last
       initialising write and at-or-before the publication — the classic
       release-publication idiom (msqueue's link CAS, the fence version's
       F_rel, hwqueue's release slot store, a lock acquired before the
       publication under a coarse lock);
   (2) the release comes *after* the publication but is followed (or
       realised) by a signal write, and every cross-thread reader of the
       published-to location acquire-reads one of the signal locations
       first — the Chase-Lev push idiom (slot :=rlx; F_rel;
       bottom :=rlx, thieves acquire-read bottom before the slot).
   Anything else is a publication defect, attributed to the publishing
   site (with the unguarded reader as partner when one is known). *)
let publication hyp ~scenario (paths : Sym.path list) =
  (* The scan for an unguarded reader depends only on the publishing
     thread, the published-to location and the set of signal locations,
     and many publications share them. *)
  let readers = Hashtbl.create 16 in
  let unguarded_reader tid ploc signals =
    let key = (tid, ploc, List.sort compare signals) in
    match Hashtbl.find_opt readers key with
    | Some r -> r
    | None ->
        let r =
          List.find_map
            (fun (q : Sym.path) ->
              if q.Sym.tid = tid then None
              else
                let qn = Array.length q.Sym.events in
                let rec go i =
                  if i >= qn then None
                  else
                    let e = q.Sym.events.(i) in
                    if is_read e && cloc_key e = Some ploc then
                      let rec pre j =
                        j < i
                        && ((is_read q.Sym.events.(j)
                            && acquires hyp q.Sym.events.(j)
                            &&
                            match cloc_key q.Sym.events.(j) with
                            | Some k -> List.mem k signals
                            | None -> false)
                           || pre (j + 1))
                      in
                      if pre 0 then go (i + 1) else Some (Sym.site_key q e)
                    else go (i + 1)
                in
                go 0)
            paths
        in
        Hashtbl.replace readers key r;
        r
  in
  List.concat_map
    (fun (p : Sym.path) ->
      let evs = p.Sym.events in
      let n = Array.length evs in
      List.concat_map
        (fun b ->
          let inits = ref [] and pubs = ref [] in
          Array.iteri
            (fun i (e : Sym.ev) ->
              (match e.Sym.loc with
              | Some l
                when l.Loc.base = b && is_write e && not (releases hyp e) ->
                  inits := i :: !inits
              | _ -> ());
              match (e.Sym.ekind, e.Sym.wrote, e.Sym.loc) with
              | (Sym.EStore | Sym.EUpdate true), Some (Value.Ptr pl), Some l
                when pl.Loc.base = b
                     && l.Loc.base <> b
                     && not (List.mem l.Loc.base p.Sym.minted) ->
                  pubs := i :: !pubs
              | _ -> ())
            evs;
          match (!inits, !pubs) with
          | [], _ | _, [] -> []
          | inits, pubs ->
              (* Writes to the block sequenced *after* a publication are
                 not initialisation — linking a later node into an
                 already-published one, retracting an offer — so the
                 init window is computed per publication. *)
              let last_init_before pi =
                List.fold_left
                  (fun acc i -> if i < pi then max acc i else acc)
                  (-1) inits
              in
              List.filter_map
                (fun pi ->
                  let last_init = last_init_before pi in
                  let release_by_pub =
                    let rec go i =
                      i <= pi
                      && ((i > last_init && releases hyp evs.(i)) || go (i + 1))
                    in
                    go 0
                  in
                  if release_by_pub then None
                  else
                    let rels = ref [] in
                    for i = pi + 1 to n - 1 do
                      if i > last_init && releases hyp evs.(i) then
                        rels := i :: !rels
                    done;
                    let flag partner why =
                      Some
                        {
                          lint = "publication";
                          severity = Defect;
                          site = Sym.site_key p evs.(pi);
                          partner;
                          scenario;
                          detail =
                            Format.asprintf
                              "block %a initialised plainly and published \
                               with no release %s"
                              Loc.pp
                              (Loc.make ~base:b ~off:0)
                              why;
                        }
                    in
                    (match List.rev !rels with
                    | [] -> flag None "on the path"
                    | r :: _ ->
                        (* signal locations: shared writes at or after
                           the first post-publication release *)
                        let signals = ref [] in
                        for i = r to n - 1 do
                          let e = evs.(i) in
                          if is_write e && not e.Sym.own then
                            match cloc_key e with
                            | Some k when not (List.mem k !signals) ->
                                signals := k :: !signals
                            | _ -> ()
                        done;
                        let ploc =
                          match cloc_key evs.(pi) with
                          | Some k -> k
                          | None -> -1
                        in
                        (match unguarded_reader p.Sym.tid ploc !signals with
                        | None -> None
                        | Some reader ->
                            flag (Some reader)
                              "visible to a reader that never acquires the \
                               signal")))
                pubs)
        (List.sort_uniq compare p.Sym.minted))
    paths

(* -- acquire-on-read pairing ------------------------------------------------- *)

let pairing hyp ~scenario (paths : Sym.path list) =
  List.concat_map
    (fun (p : Sym.path) ->
      let evs = p.Sym.events in
      Array.to_list evs
      |> List.filter_map (fun (e : Sym.ev) ->
             match e.Sym.prov with
             | Some j when not (guarded hyp evs j e.Sym.idx) ->
                 Some
                   {
                     lint = "acquire-pairing";
                     severity = Defect;
                     site = Sym.site_key p evs.(j);
                     partner = Some (Sym.site_key p e);
                     scenario;
                     detail =
                       Printf.sprintf
                         "pointer read at %s is dereferenced at %s with no \
                          acquire on the path"
                         (Sym.site_key p evs.(j))
                         (Sym.site_key p e);
                   }
             | _ -> None))
    paths

(* -- relaxed-CAS-success misuse ---------------------------------------------- *)

(* A successful RMW whose mode does not acquire, followed by a
   non-atomic access to somebody else's block before any acquire: the
   success is being treated as a synchronisation point it is not
   (weakened lock acquisitions are the canonical instance). *)
let cas_misuse hyp ~scenario (paths : Sym.path list) =
  List.concat_map
    (fun (p : Sym.path) ->
      let evs = p.Sym.events in
      let n = Array.length evs in
      let out = ref [] in
      Array.iteri
        (fun i (e : Sym.ev) ->
          match e.Sym.ekind with
          | Sym.EUpdate true when not (Mode.acquires (amode hyp e)) ->
              let rec scan k =
                if k >= n then ()
                else if acquires hyp evs.(k) then ()
                else
                  let f = evs.(k) in
                  if
                    f.Sym.mode = Mode.Na && (not f.Sym.own)
                    && f.Sym.loc <> None
                    && f.Sym.ekind <> Sym.EAlloc
                  then
                    out :=
                      {
                        lint = "relaxed-cas-success";
                        severity = Defect;
                        site = Sym.site_key p e;
                        partner = Some (Sym.site_key p f);
                        scenario;
                        detail =
                          Printf.sprintf
                            "successful RMW at %s does not acquire, yet %s \
                             accesses shared data non-atomically before any \
                             acquire"
                            (Sym.site_key p e) (Sym.site_key p f);
                      }
                      :: !out
                  else scan (k + 1)
              in
              scan (i + 1)
          | _ -> ())
        evs;
      !out)
    paths

(* -- non-atomic race candidates ---------------------------------------------- *)

(* Why a cross-thread na-touching pair might still be ordered:
   provenance guarded (reached through an acquired pointer), inside a
   lock window (successful acquiring RMW before, release after), or an
   own-block initialisation later released.  Pairs where both sides are
   own-block accesses are distinct instances and never alias. *)
let protected hyp (p : Sym.path) (e : Sym.ev) =
  let evs = p.Sym.events in
  let n = Array.length evs in
  (match e.Sym.prov with
  | Some j -> guarded hyp evs j e.Sym.idx
  | None -> false)
  || (let before = ref false and after = ref false in
      for i = 0 to e.Sym.idx - 1 do
        match evs.(i).Sym.ekind with
        | Sym.EUpdate true when Mode.acquires (amode hyp evs.(i)) ->
            before := true
        | _ -> ()
      done;
      for i = e.Sym.idx + 1 to n - 1 do
        if releases hyp evs.(i) then after := true
      done;
      !before && !after)
  ||
  (e.Sym.own
  &&
  let after = ref false in
  for i = e.Sym.idx + 1 to n - 1 do
    if releases hyp evs.(i) then after := true
  done;
  !after)

(* Pairwise comparison of every event against every event of every
   other path is quadratic in the (large) number of symbolic events, so
   the pass aggregates first: one cell per (site, canonical location)
   accumulating threads, polarity, atomicity and protection across all
   occurrences, then pairs cells per location.  The aggregation only
   widens the candidate set (each flag is "some occurrence had it"),
   which is the sound direction for this pass. *)
type na_cell = {
  cell_site : string;
  cell_loc : int;
  mutable c_tids : int list;
  mutable c_write : bool;
  mutable c_na : bool;
  mutable c_all_own : bool;
  mutable c_all_prot : bool;
}

let na_races hyp ~scenario (paths : Sym.path list) =
  let cells : (string * int, na_cell) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (p : Sym.path) ->
      Array.iter
        (fun (e : Sym.ev) ->
          match cloc_key e with
          | None -> ()
          | Some k ->
              begin
                let site = Sym.site_key p e in
                let c =
                  match Hashtbl.find_opt cells (site, k) with
                  | Some c -> c
                  | None ->
                      let c =
                        {
                          cell_site = site;
                          cell_loc = k;
                          c_tids = [];
                          c_write = false;
                          c_na = false;
                          c_all_own = true;
                          c_all_prot = true;
                        }
                      in
                      Hashtbl.replace cells (site, k) c;
                      c
                in
                if not (List.mem p.Sym.tid c.c_tids) then
                  c.c_tids <- p.Sym.tid :: c.c_tids;
                if is_write e then c.c_write <- true;
                if e.Sym.mode = Mode.Na then c.c_na <- true;
                if not e.Sym.own then c.c_all_own <- false;
                if c.c_all_prot && not (protected hyp p e) then
                  c.c_all_prot <- false
              end)
        p.Sym.events)
    paths;
  let by_loc : (int, na_cell list ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ c ->
      let l =
        match Hashtbl.find_opt by_loc c.cell_loc with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace by_loc c.cell_loc l;
            l
      in
      l := c :: !l)
    cells;
  let out = ref [] in
  Hashtbl.iter
    (fun _ l ->
      let cs = List.sort (fun a b -> compare a.cell_site b.cell_site) !l in
      let rec pairs = function
        | [] -> ()
        | c1 :: rest ->
            List.iter
              (fun c2 ->
                let cross =
                  List.exists
                    (fun t1 -> List.exists (fun t2 -> t1 <> t2) c2.c_tids)
                    c1.c_tids
                in
                if
                  cross
                  && (c1.c_write || c2.c_write)
                  && (c1.c_na || c2.c_na)
                  && not (c1.c_all_own && c2.c_all_own)
                  && not (c1.c_all_prot && c2.c_all_prot)
                then begin
                  let a = c1.cell_site and b = c2.cell_site in
                  let a, b = if a <= b then (a, b) else (b, a) in
                  out :=
                    {
                      lint = "na-race";
                      severity = Candidate;
                      site = a;
                      partner = Some b;
                      scenario;
                      detail =
                        Printf.sprintf
                          "%s and %s may touch the same location with a \
                           non-atomic side and no static ordering"
                          a b;
                    }
                    :: !out
                end)
              (c1 :: rest);
            pairs rest
      in
      pairs cs)
    by_loc;
  !out

(* -- driver ------------------------------------------------------------------ *)

let fkey f = (f.lint, f.site, f.partner)

let dedup fs =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun f ->
      let k = fkey f in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    fs

let run ?(hyp = Override.empty) ?(with_candidates = true) ~scenario paths =
  let defects =
    publication hyp ~scenario paths
    @ pairing hyp ~scenario paths
    @ cas_misuse hyp ~scenario paths
  in
  let cands = if with_candidates then na_races hyp ~scenario paths else [] in
  dedup (defects @ cands)
