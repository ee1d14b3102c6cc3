(** One generator per table/figure of the paper's evaluation (§VI-VII).

    Each experiment compares the Lift-generated kernel against the
    hand-written one on the four GPUs of Table III, across the three
    rooms of Table II, in both precisions, through the analytic
    performance model — printed next to the paper's reported numbers
    with a shape-agreement summary. *)

type version =
  | Hand
  | Lift_gen

val version_label : version -> string

type result_row = {
  platform : string;
  version : version;
  size : int;
  shape : Acoustics.Geometry.shape;
  precision : Kernel_ast.Cast.precision;
  model_s : float;
  paper_ms : float option;
  throughput : float;  (** updates per second *)
}

val agreement : result_row list -> int * int * float
(** (who-wins agreements, comparable cells, median |log(model/paper)|). *)

val table2 : unit -> unit
(** Table II: room sizes and boundary points, ours vs paper. *)

val table3 : unit -> unit
(** Table III: platform metrics. *)

val fig2 : unit -> unit
(** Figure 2: boundary-handling share of a step (hand-written kernels,
    GTX 780). *)

val fig4 : unit -> unit
(** Figure 4 / Table IV: FI fused kernel, box rooms. *)

val fig5 : unit -> unit
(** Figure 5 / Table V: FI-MM boundary kernel. *)

val fig6 : unit -> unit
(** Figure 6 / Table VI: FD-MM boundary kernel (3 branches). *)

val all : unit -> unit
(** Every table and figure above, through the model. *)

(** {1 Outside [all]} *)

val ablations : unit -> unit
(** The FD-MM design ablations through the model (GTX 780, the largest
    box, double): private staging vs global re-reads of the branch
    state, branch-major vs point-major layout, and sorted vs scattered
    boundary indices. *)

val measured : unit -> unit
(** The hand-written and Lift-generated kernels measured on this host's
    native engine, with the pure-OCaml reference: a 48x40x32 box in
    double precision, per-launch medians on {!Vgpu.Clock} with Lift and
    hand interleaved in rounds after a warm-up; then Figure 2's
    boundary shares and the FD-MM staging ablation, measured.  Wall
    times vary from run to run, so nothing compares them with a
    committed file. *)
