open Compass_rmc
open Compass_machine
open Prog.Syntax

(* The classic litmus tests, validating the ORC11 substrate itself: which
   weak behaviours the model must exhibit, and which it must forbid.

   Each test is a scenario whose judge always passes (the machine-level
   properties — coherence, RMW atomicity, race freedom — are checked by
   construction or reported as faults); the interesting outcome is counted
   in a shared cell so tests/experiments can assert observability or
   absence after exploration. *)

type t = {
  scenario : Explore.scenario;
  observed : int ref;  (** executions exhibiting the distinguished outcome *)
  expect : [ `Observable | `Forbidden ];
  descr : string;
}

let vi n = Value.Int n
let is1 = Value.equal (vi 1)

let alloc0 m name = Machine.alloc m ~name ~init:(vi 0) 1

let finished2 f = function
  | Machine.Finished [| r1; r2 |] -> f r1 r2
  | Machine.Finished _ -> Explore.Violation "arity"
  | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
  | Machine.Blocked s -> Explore.Discard s
  | Machine.Bounded -> Explore.Discard "bounded"
  | Machine.Pruned -> Explore.Discard "pruned"

let finished4 f = function
  | Machine.Finished [| r1; r2; r3; r4 |] -> f r1 r2 r3 r4
  | Machine.Finished _ -> Explore.Violation "arity"
  | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
  | Machine.Blocked s -> Explore.Discard s
  | Machine.Bounded -> Explore.Discard "bounded"
  | Machine.Pruned -> Explore.Discard "pruned"

(* Store Buffering: both threads may read 0 under relaxed (and even under
   SC-less rel/acq) accesses — the hallmark weak behaviour. *)
let sb ?(wmode = Mode.Rlx) ?(rmode = Mode.Rlx) () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "SB";
      build =
        (fun m ->
          let x = alloc0 m "x" and y = alloc0 m "y" in
          let t a b =
            let* () = Prog.store a (vi 1) wmode in
            Prog.load b rmode
          in
          Machine.spawn m [ t x y; t y x ];
          finished2 (fun r1 r2 ->
              if Value.equal r1 (vi 0) && Value.equal r2 (vi 0) then
                incr observed;
              Explore.Pass));
    }
  in
  { scenario; observed; expect = `Observable; descr = "SB: r1 = r2 = 0" }

(* Message Passing with an atomic data cell: reading flag = 1 with acquire
   after a release write forbids reading the stale x = 0. *)
let mp ?(wmode = Mode.Rel) ?(rmode = Mode.Acq) () =
  let observed = ref 0 in
  let expect = if Mode.releases wmode && Mode.acquires rmode then `Forbidden else `Observable in
  let scenario =
    {
      Explore.name = "MP";
      build =
        (fun m ->
          let x = alloc0 m "x" and flag = alloc0 m "flag" in
          let t1 =
            let* () = Prog.store x (vi 1) Mode.Rlx in
            let* () = Prog.store flag (vi 1) wmode in
            Prog.return Value.Unit
          in
          let t2 =
            let* _ = Prog.await flag rmode is1 in
            Prog.load x Mode.Rlx
          in
          Machine.spawn m [ t1; t2 ];
          finished2 (fun _ r2 ->
              if Value.equal r2 (vi 0) then incr observed;
              Explore.Pass));
    }
  in
  { scenario; observed; expect; descr = "MP: stale x = 0 after flag = 1" }

(* MP through fences: relaxed accesses plus release/acquire fences must
   synchronise just like rel/acq accesses. *)
let mp_fences () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "MP+fences";
      build =
        (fun m ->
          let x = alloc0 m "x" and flag = alloc0 m "flag" in
          let t1 =
            let* () = Prog.store x (vi 1) Mode.Rlx in
            let* () = Prog.fence Mode.F_rel in
            let* () = Prog.store flag (vi 1) Mode.Rlx in
            Prog.return Value.Unit
          in
          let t2 =
            let* _ = Prog.await flag Mode.Rlx is1 in
            let* () = Prog.fence Mode.F_acq in
            Prog.load x Mode.Rlx
          in
          Machine.spawn m [ t1; t2 ];
          finished2 (fun _ r2 ->
              if Value.equal r2 (vi 0) then incr observed;
              Explore.Pass));
    }
  in
  { scenario; observed; expect = `Forbidden; descr = "MP+fences: stale x = 0" }

(* SB with SC fences between the store and the load: the weak outcome must
   disappear — SC fences are totally ordered through the global SC view. *)
let sb_sc_fences () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "SB+Fsc";
      build =
        (fun m ->
          let x = alloc0 m "x" and y = alloc0 m "y" in
          let t a b =
            let* () = Prog.store a (vi 1) Mode.Rlx in
            let* () = Prog.fence Mode.F_sc in
            Prog.load b Mode.Rlx
          in
          Machine.spawn m [ t x y; t y x ];
          finished2 (fun r1 r2 ->
              if Value.equal r1 (vi 0) && Value.equal r2 (vi 0) then
                incr observed;
              Explore.Pass));
    }
  in
  { scenario; observed; expect = `Forbidden; descr = "SB+Fsc: r1 = r2 = 0" }

(* Coherence (CoRR): two reads of the same location by one thread may not
   observe writes in anti-modification order. *)
let corr () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "CoRR";
      build =
        (fun m ->
          let x = alloc0 m "x" in
          let writer =
            let* () = Prog.store x (vi 1) Mode.Rlx in
            let* () = Prog.store x (vi 2) Mode.Rlx in
            Prog.return Value.Unit
          in
          let reader =
            let* a = Prog.load x Mode.Rlx in
            let* b = Prog.load x Mode.Rlx in
            Prog.return (vi ((10 * Value.to_int_exn a) + Value.to_int_exn b))
          in
          Machine.spawn m [ writer; reader ];
          finished2 (fun _ r ->
              if Value.equal r (vi 21) then incr observed;
              Explore.Pass));
    }
  in
  { scenario; observed; expect = `Forbidden; descr = "CoRR: reads 2 then 1" }

(* Coherence (CoWW): one thread's writes to a location take mo in program
   order — the final value is the program-order-last write, under either
   timestamp policy. *)
let coww ?(policy = `Append) () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "CoWW";
      build =
        (fun m ->
          ignore policy;
          let x = alloc0 m "x" in
          let w =
            let* () = Prog.store x (vi 1) Mode.Rlx in
            let* () = Prog.store x (vi 2) Mode.Rlx in
            Prog.return Value.Unit
          in
          Machine.spawn m [ w; Prog.return Value.Unit ];
          fun outcome ->
            match outcome with
            | Machine.Finished _ ->
                if
                  not
                    (Value.equal !(Memory.latest (Machine.memory m) x).Msg.value
                       (vi 2))
                then incr observed;
                Explore.Pass
            | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
            | Machine.Blocked s -> Explore.Discard s
            | Machine.Bounded -> Explore.Discard "bounded"
            | Machine.Pruned -> Explore.Discard "pruned");
    }
  in
  { scenario; observed; expect = `Forbidden; descr = "CoWW: mo against po" }

(* Coherence (CoWR): a thread cannot read below its own write. *)
let cowr () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "CoWR";
      build =
        (fun m ->
          let x = alloc0 m "x" in
          let w =
            let* () = Prog.store x (vi 1) Mode.Rlx in
            Prog.load x Mode.Rlx
          in
          (* A concurrent writer, so there are several messages around. *)
          let other = Prog.returning_unit (Prog.store x (vi 2) Mode.Rlx) in
          Machine.spawn m [ w; other ];
          finished2 (fun r1 _ ->
              if Value.equal r1 (vi 0) then incr observed;
              Explore.Pass));
    }
  in
  { scenario; observed; expect = `Forbidden; descr = "CoWR: reads below own write" }

(* Load Buffering: ORC11 forbids po ∪ rf cycles, so r1 = r2 = 1 must be
   unobservable — automatic under interleaving semantics, asserted here. *)
let lb () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "LB";
      build =
        (fun m ->
          let x = alloc0 m "x" and y = alloc0 m "y" in
          let t a b =
            let* r = Prog.load a Mode.Rlx in
            let* () = Prog.store b (vi 1) Mode.Rlx in
            Prog.return r
          in
          Machine.spawn m [ t x y; t y x ];
          finished2 (fun r1 r2 ->
              if Value.equal r1 (vi 1) && Value.equal r2 (vi 1) then
                incr observed;
              Explore.Pass));
    }
  in
  { scenario; observed; expect = `Forbidden; descr = "LB: r1 = r2 = 1" }

(* IRIW: two writers, two readers; the readers may disagree on the order of
   the independent writes under rel/acq (no SC accesses in ORC11). *)
let iriw () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "IRIW";
      build =
        (fun m ->
          let x = alloc0 m "x" and y = alloc0 m "y" in
          let w l = Prog.returning_unit (Prog.store l (vi 1) Mode.Rel) in
          let r a b =
            let* ra = Prog.load a Mode.Acq in
            let* rb = Prog.load b Mode.Acq in
            Prog.return (vi ((10 * Value.to_int_exn ra) + Value.to_int_exn rb))
          in
          Machine.spawn m [ w x; w y; r x y; r y x ];
          finished4 (fun _ _ r3 r4 ->
              if Value.equal r3 (vi 10) && Value.equal r4 (vi 10) then
                incr observed;
              Explore.Pass));
    }
  in
  { scenario; observed; expect = `Observable; descr = "IRIW: readers disagree" }

(* 2+2W: needs mo-middle timestamp insertion; only observable under the
   [`Gap] timestamp policy.  Outcome x = y = 1 requires each location's
   first write to end up mo-last. *)
let two_two_w () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "2+2W";
      build =
        (fun m ->
          let x = alloc0 m "x" and y = alloc0 m "y" in
          let t a b =
            let* () = Prog.store a (vi 1) Mode.Rlx in
            let* () = Prog.store b (vi 2) Mode.Rlx in
            Prog.return Value.Unit
          in
          Machine.spawn m [ t x y; t y x ];
          fun outcome ->
            match outcome with
            | Machine.Finished _ ->
                Machine.join_views m;
                let read l = Machine.solo m (Prog.load l Mode.Na) in
                if Value.equal (read x) (vi 1) && Value.equal (read y) (vi 1)
                then incr observed;
                Explore.Pass
            | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
            | Machine.Blocked s -> Explore.Discard s
            | Machine.Bounded -> Explore.Discard "bounded"
            | Machine.Pruned -> Explore.Discard "pruned");
    }
  in
  { scenario; observed; expect = `Observable; descr = "2+2W: final x = y = 1" }

(* Write-to-Read Causality (WRC): a chain of rel/acq synchronisations is
   transitive. *)
let wrc () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "WRC";
      build =
        (fun m ->
          let x = alloc0 m "x" and y = alloc0 m "y" in
          let t1 = Prog.returning_unit (Prog.store x (vi 1) Mode.Rel) in
          let t2 =
            let* _ = Prog.await x Mode.Acq is1 in
            Prog.returning_unit (Prog.store y (vi 1) Mode.Rel)
          in
          let t3 =
            let* _ = Prog.await y Mode.Acq is1 in
            Prog.load x Mode.Rlx
          in
          Machine.spawn m [ t1; t2; t3 ];
          fun outcome ->
            match outcome with
            | Machine.Finished [| _; _; r3 |] ->
                if Value.equal r3 (vi 0) then incr observed;
                Explore.Pass
            | Machine.Finished _ -> Explore.Violation "arity"
            | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
            | Machine.Blocked s -> Explore.Discard s
            | Machine.Bounded -> Explore.Discard "bounded"
            | Machine.Pruned -> Explore.Discard "pruned");
    }
  in
  { scenario; observed; expect = `Forbidden; descr = "WRC: stale x = 0 at t3" }

(* RMW atomicity: concurrent FAAs never lose increments. *)
let faa_atomic ?(threads = 3) () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "FAA";
      build =
        (fun m ->
          let c = alloc0 m "c" in
          let t = Prog.map (Prog.faa c 1 Mode.Rlx) (fun _ -> Value.Unit) in
          Machine.spawn m (List.init threads (fun _ -> t));
          fun outcome ->
            match outcome with
            | Machine.Finished _ ->
                Machine.join_views m;
                let v = Machine.solo m (Prog.load c Mode.Na) in
                if not (Value.equal v (vi threads)) then incr observed;
                Explore.Pass
            | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
            | Machine.Blocked s -> Explore.Discard s
            | Machine.Bounded -> Explore.Discard "bounded"
            | Machine.Pruned -> Explore.Discard "pruned");
    }
  in
  { scenario; observed; expect = `Forbidden; descr = "FAA: lost increment" }

(* Deliberately racy message passing: the data cell is written and read
   *non-atomically* with no synchronisation at all, so the conflicting
   pair is unordered by hb — the machine's eager race detector faults
   the execution, and both race analyses (the RC11 race clause and the
   analyzer's vector-clock detector) must flag the same pair.  NOT part
   of [all ()]: the battery expects race-free tests; this one exists as
   the positive control for the synchronization analyzer's tests. *)
let racy_na () =
  let observed = ref 0 in
  let scenario =
    {
      Explore.name = "RACY-NA";
      build =
        (fun m ->
          let x = alloc0 m "x" and flag = alloc0 m "flag" in
          let t1 =
            let* () = Prog.store ~site:"racy.data.write" x (vi 1) Mode.Na in
            let* () = Prog.store flag (vi 1) Mode.Rlx in
            Prog.return Value.Unit
          in
          let t2 =
            let* _ = Prog.load flag Mode.Rlx in
            Prog.load ~site:"racy.data.read" x Mode.Na
          in
          Machine.spawn m [ t1; t2 ];
          finished2 (fun _ _ ->
              incr observed;
              Explore.Pass));
    }
  in
  {
    scenario;
    observed;
    expect = `Observable;
    descr = "racy na MP: the machine must fault, both detectors must flag";
  }

let all () =
  [
    sb ();
    sb_sc_fences ();
    mp ();
    mp ~wmode:Mode.Rlx ~rmode:Mode.Rlx ();
    mp_fences ();
    corr ();
    coww ();
    cowr ();
    lb ();
    iriw ();
    wrc ();
    faa_atomic ();
  ]

(* Run one litmus test exhaustively; [Ok] if the expectation holds.
   [jobs > 1] explores on that many domains; [reduce] prunes commuted
   interleavings (the observation count then covers the representatives
   actually explored — the verdict is unaffected, because the
   distinguished outcome is invariant under commuting independent
   steps). *)
let verdict ?(max_execs = 100_000) ?config ?(jobs = 1)
    ?(reduce = Machine.RNone) ?(incremental = true)
    ?(stride = Explore.default_stride) t =
  let report =
    Explore.pdfs ~jobs ~max_execs ~reduce ~incremental ~stride ?config
      t.scenario
  in
  let obs = !(t.observed) in
  let ok =
    Explore.ok report
    && match t.expect with `Observable -> obs > 0 | `Forbidden -> obs = 0
  in
  (ok, report, obs)
