(* Values stored in simulated memory and returned by library operations.

   [Poison] is the content of freshly allocated cells; reading it through a
   non-atomic access is a program error (uninitialised read).  [Sentinel] is
   the distinguished token used by the elimination stack's exchanger protocol
   (the paper's SENTINEL), and [Null] doubles as the null pointer and the
   exchange-failure token (the paper's bottom). *)

type t =
  | Int of int
  | Ptr of Loc.t
  | Null
  | Unit
  | Sentinel
  | Taken  (** slot already consumed (Herlihy-Wing, exchanger holes) *)
  | Fail  (** contention failure (the paper's FAIL_RACE) *)
  | Poison  (** uninitialised *)

let equal a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Ptr x, Ptr y -> Loc.equal x y
  | Null, Null | Unit, Unit | Sentinel, Sentinel | Taken, Taken | Poison, Poison
  | Fail, Fail ->
      true
  | _ -> false

let compare a b =
  let tag = function
    | Int _ -> 0
    | Ptr _ -> 1
    | Null -> 2
    | Unit -> 3
    | Sentinel -> 4
    | Taken -> 5
    | Fail -> 7
    | Poison -> 6
  in
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Ptr x, Ptr y -> Loc.compare x y
  | _ -> Int.compare (tag a) (tag b)

(* Direct strings, no [Format]: outcome tags embed these, and
   {!Compass_machine.Explore.rf_class_key} builds one per launched run. *)
let to_string = function
  | Int n -> string_of_int n
  | Ptr l -> "&" ^ Loc.to_string l
  | Null -> "null"
  | Unit -> "()"
  | Sentinel -> "SENTINEL"
  | Taken -> "TAKEN"
  | Fail -> "FAIL_RACE"
  | Poison -> "POISON"

let pp ppf v = Format.pp_print_string ppf (to_string v)
let int n = Int n

let to_int_exn = function
  | Int n -> n
  | v -> invalid_arg ("Value.to_int_exn: " ^ to_string v)

let to_loc_exn = function
  | Ptr l -> l
  | v -> invalid_arg ("Value.to_loc_exn: " ^ to_string v)

let is_ptr = function Ptr _ -> true | _ -> false
