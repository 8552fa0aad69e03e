(* In-memory tracing for the traced run.

   Two kinds of record, both kept in memory and written out when the
   benchmark ends:

   - spans: name, start, end, parent span and job id, for the coarse
     boundaries (set-up, one job's call into a library, a probe);
   - per-call layers: the build functions and judge closures run once per
     execution (millions of calls on the [explore] workload), so a span
     per call would not fit in memory.  Each call is timed into a
     domain-local accumulator instead, and {!drain} folds the
     accumulators into one summary span per (job, layer) carrying the call
     count, the summed duration and the first-start/last-end interval.

   Everything here is a no-op while tracing is off, so the untraced run
   pays one atomic read per call. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let on = Atomic.make false

type layer = Build | Judge | Simrel | Rf_key | Steps

let layers = [ Build; Judge; Simrel; Rf_key; Steps ]

let layer_index = function
  | Build -> 0
  | Judge -> 1
  | Simrel -> 2
  | Rf_key -> 3
  | Steps -> 4

let layer_name = function
  | Build -> "machine.build"
  | Judge -> "judge"
  | Simrel -> "simrel"
  | Rf_key -> "rf_key"
  | Steps -> "machine.steps"

type acc = {
  mutable n : int;  (** calls, or steps for [Steps] *)
  mutable secs : float;
  mutable first : float;
  mutable last : float;
}

let fresh () = { n = 0; secs = 0.; first = infinity; last = neg_infinity }
let registry_lock = Mutex.create ()
let registry : acc array list ref = ref []

let local =
  Domain.DLS.new_key (fun () ->
      let a = Array.init (List.length layers) (fun _ -> fresh ()) in
      Mutex.protect registry_lock (fun () -> registry := a :: !registry);
      a)

let timed layer f x =
  if not (Atomic.get on) then f x
  else begin
    let a = (Domain.DLS.get local).(layer_index layer) in
    let t0 = now () in
    let r = f x in
    let t1 = now () in
    a.n <- a.n + 1;
    a.secs <- a.secs +. (t1 -. t0);
    if t0 < a.first then a.first <- t0;
    a.last <- t1;
    r
  end

let add layer k =
  if Atomic.get on then
    let a = (Domain.DLS.get local).(layer_index layer) in
    a.n <- a.n + k

type span = {
  id : int;
  name : string;
  job : int;  (** -1 outside any job *)
  parent : int;  (** -1 for a root span *)
  t0 : float;
  t1 : float;
  calls : int;  (** 1 for a plain span; the call count of a summary span *)
  busy : float;  (** [t1 - t0] for a plain span; summed call time otherwise *)
}

let spans : span list ref = ref []
let next_id = ref 0
let spans_lock = Mutex.create ()

let fresh_id () =
  Mutex.protect spans_lock (fun () ->
      let id = !next_id in
      incr next_id;
      id)

let push ~id ~name ~job ~parent ~t0 ~t1 ~calls ~busy =
  Mutex.protect spans_lock (fun () ->
      spans := { id; name; job; parent; t0; t1; calls; busy } :: !spans)

(* The innermost open span.  Spans are opened only by the main domain
   (worker domains only feed the per-call accumulators). *)
let current = ref (-1)

(* Time [f ()] as a span, child of the innermost open span. *)
let span ?(job = -1) name f =
  if not (Atomic.get on) then f ()
  else begin
    let id = fresh_id () and parent = !current in
    current := id;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> current := parent) f in
    let t1 = now () in
    push ~id ~name ~job ~parent ~t0 ~t1 ~calls:1 ~busy:(t1 -. t0);
    r
  end

(* Fold every domain's accumulators, reset them, and record one summary
   span per non-empty layer under the innermost open span. *)
let drain ~job =
  let parent = !current in
  let accs = Mutex.protect registry_lock (fun () -> !registry) in
  List.iter
    (fun layer ->
      let i = layer_index layer in
      let tot = fresh () in
      List.iter
        (fun a ->
          let x = a.(i) in
          tot.n <- tot.n + x.n;
          tot.secs <- tot.secs +. x.secs;
          if x.first < tot.first then tot.first <- x.first;
          if x.last > tot.last then tot.last <- x.last;
          a.(i) <- fresh ())
        accs;
      if tot.n > 0 && Atomic.get on then
        push ~id:(fresh_id ()) ~name:(layer_name layer) ~job ~parent
          ~t0:(if layer = Steps then 0. else tot.first)
          ~t1:(if layer = Steps then 0. else tot.last)
          ~calls:tot.n ~busy:tot.secs)
    layers

let all () = List.rev !spans

