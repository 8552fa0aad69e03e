(** ORC11 access and fence modes (paper, Section 2.3 / Section 5).

    ORC11 — the memory model of iRC11, targeted by the paper — has
    non-atomic, relaxed, and release/acquire accesses, plus fences.  SC
    accesses are not part of the fragment the paper uses; SC {e fences}
    are modelled (see {!Tview.fence} and the machine's global SC view). *)

type access =
  | Na  (** non-atomic: racy accesses are undefined behaviour (detected) *)
  | Rlx
  | Acq  (** loads / RMWs only *)
  | Rel  (** stores / RMWs only *)
  | AcqRel  (** RMWs only *)

type fence = F_acq | F_rel | F_acqrel | F_sc

val is_atomic : access -> bool

val acquires : access -> bool
(** does a load with this mode perform an acquire? *)

val releases : access -> bool
(** does a store with this mode perform a release? *)

val valid_load : access -> bool
val valid_store : access -> bool
val valid_rmw : access -> bool

val pp_access : Format.formatter -> access -> unit
val pp_fence : Format.formatter -> fence -> unit
val access_to_string : access -> string
(** the {!pp_access} text, as a shared constant (no allocation) *)

val fence_to_string : fence -> string
(** the {!pp_fence} text, as a shared constant (no allocation) *)
