(** Interval / affine abstract domain shared by the static analyses.

    {!module:Check} (race/bounds verification) and {!module:Footprint}
    (stencil-footprint inference) both abstract integer expressions,
    through the one transfer function {!eval}, to

    - an {b interval} [\[lo, hi\]] with optional (unknown) endpoints, and
    - when possible a symbolic {b affine form}
      [base + sum coeff_i * term_i] over NDRange ids, loop counters and
      launch-uniform scalar parameters.

    The forms are exact (no rounding): every operation either returns
    the precise abstract result or gives up ([None] / {!top_itv}). *)

(** {2 Intervals} *)

type itv = { lo : int option; hi : int option }

val top_itv : itv
val point : int -> itv
val bool_itv : itv
val map2_opt : ('a -> 'b -> 'c) -> 'a option -> 'b option -> 'c option
val itv_add : itv -> itv -> itv
val itv_neg : itv -> itv
val itv_sub : itv -> itv -> itv
val itv_mul : itv -> itv -> itv

val itv_div_pos : itv -> int -> itv
(** Truncating division by a positive constant; precise only for
    non-negative operands. *)

val itv_join : itv -> itv -> itv
val itv_within : itv -> lo:int -> hi:int -> bool
val pp_itv : Format.formatter -> itv -> unit

(** {2 Affine forms} *)

type term =
  | Tgid of int  (** [get_global_id d] *)
  | Tlid of int  (** [get_local_id d], grouped kernels only *)
  | Tgrp of int  (** [get_group_id d], grouped kernels only *)
  | Tloop of int  (** unique id per syntactic loop *)
  | Tparam of string
      (** scalar kernel parameter with no statically known value: unknown
          but {e launch-uniform} — the same for every work-item, so it
          drops out of cross-work-item injectivity arguments and cancels
          in footprint offset differences *)

type aff = { base : int; coeffs : (term * int) list }
(** [coeffs] sorted by term, all coefficients non-zero. *)

val aff_const : int -> aff
val aff_of_term : term -> aff
val aff_add : aff -> aff -> aff
val aff_scale : int -> aff -> aff
val aff_neg : aff -> aff
val aff_sub : aff -> aff -> aff

val aff_coeff : term -> aff -> int
(** Coefficient of a term, 0 when absent. *)

val aff_shift : term -> int -> aff -> aff
(** [aff_shift t k f] substitutes [t := t + k] in [f] (the form's base
    absorbs [k * coeff t]).  Used to age loop-carried values by one
    iteration in {!module:Footprint}. *)

val is_const : aff -> bool
val pp_term : Format.formatter -> term -> unit
val pp_aff : Format.formatter -> aff -> unit

(** {2 Abstract values} *)

type absval = {
  v_itv : itv;
  v_aff : aff option;
  v_tainted : bool;  (** depends on data loaded from memory *)
}

val top : absval
val taint : absval -> absval
val known : int -> absval
val join : absval -> absval -> absval

(** {2 Evaluation} *)

(** What a launch fixes for every work-item. *)
type launch = {
  l_global : int option array;
      (** NDRange extent per dimension (3 dims, missing dims are 1);
          [None] when not statically known *)
  l_local : int array;  (** work-group size, [\[|1;1;1|\]] for flat kernels *)
  l_grouped : bool;  (** the kernel uses the work-group tier *)
  l_param : string -> int option;  (** statically known scalar parameters *)
}

val term_itv : launch -> term -> itv
(** Range of an id term over the launch, or a scalar parameter's known
    value; {!top_itv} for loop counters, whose ranges the analyses
    keep. *)

val eval :
  launch ->
  var:(string -> absval option) ->
  load:(string -> absval -> unit) ->
  Cast.expr ->
  absval
(** [eval launch ~var ~load e] abstracts [e] for every work-item of the
    launch.  [var] resolves kernel-local registers; a name it does not
    know is a scalar parameter, known through [launch] or kept symbolic
    as {!Tparam}.  [load b i] is called for every load of buffer [b] at
    abstract index [i] (the loaded value itself is {!top}, tainted).
    Operands, builtin-call arguments included, are evaluated left to
    right, so the hooks see accesses in program order. *)

val assigned_vars : string list -> Cast.stmt list -> string list
(** Names assigned anywhere in a statement list, loop counters
    included, prepended to the accumulator: what a single abstract pass
    over a loop body must widen. *)
