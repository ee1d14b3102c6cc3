(** Static race/bounds verifier over kernel ASTs.

    The reference interpreter's correctness argument rests on the claim
    that distinct work-items write distinct locations.  This module
    proves (or refutes) that claim per kernel and per buffer, instead of
    assuming it:

    - {b race freedom}: every store index is analysed as a symbolic
      affine function of [get_global_id]s and loop counters; a
      mixed-radix stride argument proves that no two distinct work-items
      can write the same cell.  Indirect scatters — the paper's
      [next\[bidx\[i\]\]] idiom — are reported as {!Unproven} and left
      to the shadow-memory sanitizer ({!module:Vgpu.Sanitizer}).
    - {b bounds safety}: every load/store index gets an interval from
      the NDRange extents, scalar-parameter values and loop ranges, and
      is checked against the declared buffer extent.

    An {!Unsafe} verdict is only ever reported with a machine-checked
    witness: candidate work-item pairs are re-executed by a concrete
    partial evaluator (loads opaque), so a witness names two work-items
    that really do collide (or one that really does access out of
    bounds) under the given parameter environment. *)

(** Concrete counter-example backing an [Unsafe] verdict. *)
type witness = {
  w_buf : string;
  w_index : int;  (** colliding / out-of-range linear index *)
  w_gids : (int * int * int) list;
      (** offending work-items: two for a race, one for a bounds
          violation *)
  w_detail : string;  (** human-readable explanation *)
}

type verdict =
  | Safe
  | Unsafe of witness
  | Unproven of string  (** reason the analysis could not decide *)

(** Per-buffer result: race freedom of its stores across work-items and
    bounds safety of all its accesses. *)
type buf_report = {
  b_name : string;
  b_kind : [ `Global | `Private ];
  b_elems : int option;  (** declared extent, when known *)
  b_race : verdict;
  b_bounds : verdict;
}

type report = {
  r_kernel : string;
  r_global : int option array;  (** resolved NDRange (3 dims) *)
  r_bufs : buf_report list;  (** sorted by buffer name *)
}

(** Checking environment: resolves scalar parameters and buffer extents
    (e.g. from the live simulation state, or from the resolved arguments
    of a launch).  [global], when given, overrides the kernel's symbolic
    NDRange with the concrete launch size. *)
type env = {
  param_value : string -> int option;
  buffer_elems : string -> int option;
  global : int list option;
}

val env :
  ?param_value:(string -> int option) ->
  ?buffer_elems:(string -> int option) ->
  ?global:int list ->
  unit ->
  env

val launch : env -> Cast.kernel -> Domain.launch
(** The launch the analyses evaluate under: [env.global] when given,
    otherwise the kernel's symbolic [global_size] simplified and
    evaluated by {!Cast.eval_int} through the environment (missing
    dimensions are 1), plus the environment's scalar values.
    @raise Cast.Ndrange_rank when [env.global] has more dimensions than
    the kernel declares, other than trailing 1s: no engine would run
    that launch, so no verdict is given for it.
    @raise Cast.Work_group_size on a kernel whose [local_size] is not
    [[]], with or without [env.global]. *)

val check : env -> Cast.kernel -> report
(** @raise Cast.Ndrange_rank and {!Cast.Work_group_size} as {!launch}
    does. *)

val ok : report -> bool
(** No [Unsafe] verdict in the report. *)

val fully_proven : report -> bool
(** Every verdict is [Safe]. *)

val unsafe_bufs : report -> buf_report list
(** The buffers carrying an [Unsafe] verdict (race or bounds). *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit
