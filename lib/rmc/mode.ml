(* ORC11 access and fence modes.

   ORC11 (the memory model of iRC11) has non-atomic, relaxed, and
   release/acquire accesses, plus fences.  SC accesses are not part of the
   model the paper targets; SC fences are approximated (see {!Tview.fence}).

   The [leq] orders mirror RC11's mode lattice restricted to the modes a
   given operation supports. *)

type access =
  | Na  (** non-atomic: racy accesses are undefined behaviour *)
  | Rlx
  | Acq  (** loads / RMWs only *)
  | Rel  (** stores / RMWs only *)
  | AcqRel  (** RMWs only *)

type fence = F_acq | F_rel | F_acqrel | F_sc

let is_atomic = function Na -> false | _ -> true

(* Does a load with this mode perform an acquire? *)
let acquires = function Acq | AcqRel -> true | Na | Rlx | Rel -> false

(* Does a store with this mode perform a release? *)
let releases = function Rel | AcqRel -> true | Na | Rlx | Acq -> false

let valid_load = function Na | Rlx | Acq -> true | Rel | AcqRel -> false
let valid_store = function Na | Rlx | Rel -> true | Acq | AcqRel -> false
let valid_rmw = function Rlx | Acq | Rel | AcqRel -> true | Na -> false

(* Constant strings: the rf-class key writes these per access, so they
   must not allocate. *)
let access_to_string = function
  | Na -> "na"
  | Rlx -> "rlx"
  | Acq -> "acq"
  | Rel -> "rel"
  | AcqRel -> "acq_rel"

let fence_to_string = function
  | F_acq -> "fence_acq"
  | F_rel -> "fence_rel"
  | F_acqrel -> "fence_acq_rel"
  | F_sc -> "fence_sc"

let pp_access ppf m = Format.pp_print_string ppf (access_to_string m)
let pp_fence ppf f = Format.pp_print_string ppf (fence_to_string f)
