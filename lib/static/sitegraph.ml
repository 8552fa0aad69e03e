open Compass_rmc

(* The static access-site graph: one node per site (label, or the
   unlabeled fallback key), carrying the strongest mode seen, the
   threads and canonical locations that touch it, and read/write
   polarity; one edge per pair of sites that may touch the same
   canonical location (the may-alias relation the lints and the
   dynamic differential compare against). *)

type kind = KAccess of Mode.access | KFence of Mode.fence

let kind_to_string = function
  | KAccess m -> Mode.access_to_string m
  | KFence f -> Format.asprintf "%a" Mode.pp_fence f

type site = {
  key : string;
  kind : kind;
  labeled : bool;
  tids : int list;  (** sorted *)
  locs : string list;  (** canonical location names, sorted *)
  reads : bool;
  writes : bool;
}

type edge = { a : string; b : string; loc : string; cross_thread : bool }
type t = { sites : site list; edges : edge list }

let mode_rank = function
  | Mode.Na -> 0
  | Mode.Rlx -> 1
  | Mode.Acq | Mode.Rel -> 2
  | Mode.AcqRel -> 3

type acc = {
  mutable k : kind;
  mutable ts : int list;
  mutable ls : string list;
  mutable rd : bool;
  mutable wr : bool;
  lab : bool;
}

let build (paths : Sym.path list) : t =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  (* canonical loc key -> (site key, tid) occurrences, plus a name *)
  let locs : (int, string * (string * int) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (p : Sym.path) ->
      Array.iter
        (fun (e : Sym.ev) ->
          let key = Sym.site_key p e in
          let kind =
            match e.Sym.ekind with
            | Sym.EFence f -> KFence f
            | _ -> KAccess e.Sym.mode
          in
          let a =
            match Hashtbl.find_opt tbl key with
            | Some a -> a
            | None ->
                let a =
                  {
                    k = kind;
                    ts = [];
                    ls = [];
                    rd = false;
                    wr = false;
                    lab = e.Sym.site <> None;
                  }
                in
                Hashtbl.replace tbl key a;
                order := key :: !order;
                a
          in
          (match (a.k, kind) with
          | KAccess m0, KAccess m when mode_rank m > mode_rank m0 -> a.k <- kind
          | _ -> ());
          if not (List.mem p.Sym.tid a.ts) then a.ts <- p.Sym.tid :: a.ts;
          (match e.Sym.ekind with
          | Sym.ELoad | Sym.EAwait -> a.rd <- true
          | Sym.EStore | Sym.EAlloc -> a.wr <- true
          | Sym.EUpdate s ->
              a.rd <- true;
              if s then a.wr <- true
          | Sym.EFence _ -> ());
          match e.Sym.cloc with
          | None -> ()
          | Some cl ->
              (* the name is formatted once per location, not per event *)
              let lk = Loc.key cl in
              let name, occs =
                match Hashtbl.find_opt locs lk with
                | Some x -> x
                | None ->
                    let x = (Format.asprintf "%a" Loc.pp cl, ref []) in
                    Hashtbl.replace locs lk x;
                    x
              in
              if not (List.mem name a.ls) then a.ls <- name :: a.ls;
              if not (List.mem (key, p.Sym.tid) !occs) then
                occs := (key, p.Sym.tid) :: !occs)
        p.Sym.events)
    paths;
  let sites =
    List.rev_map
      (fun key ->
        let a = Hashtbl.find tbl key in
        {
          key;
          kind = a.k;
          labeled = a.lab;
          tids = List.sort compare a.ts;
          locs = List.sort compare a.ls;
          reads = a.rd;
          writes = a.wr;
        })
      !order
  in
  let edges = ref [] in
  Hashtbl.iter
    (fun _ (name, occs) ->
      let keys = List.sort_uniq compare (List.map fst !occs) in
      let cross a b =
        List.exists
          (fun (k1, t1) ->
            k1 = a
            && List.exists (fun (k2, t2) -> k2 = b && t2 <> t1) !occs)
          !occs
      in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                edges :=
                  { a; b; loc = name; cross_thread = cross a b || cross b a }
                  :: !edges)
              rest;
            pairs rest
      in
      pairs keys)
    locs;
  { sites; edges = List.sort compare !edges }

let labeled_modes t =
  List.filter_map
    (fun s -> if s.labeled then Some (s.key, kind_to_string s.kind) else None)
    t.sites
