(** The EM update kernels expressed in the Lift IR (paper §VIII).

    The magnetic-field kernel is the case the paper highlights: a volume
    kernel updating two arrays (Hx, Hy) in place per work-item — the
    multi-output WriteTo machinery built for acoustics boundary state,
    reused for a different physics. *)

val update_h : unit -> Lift.Ast.lam
(** Hx and Hy both written in place. *)

val update_e : unit -> Lift.Ast.lam
(** Ez written in place with per-cell material coefficients; the PEC
    ring is never modified. *)

type compiled = {
  kernel_h : Kernel_ast.Cast.kernel;
  kernel_e : Kernel_ast.Cast.kernel;
  rt : Vgpu.Runtime.t;  (** the virtual GPU both kernels launch on *)
}

val compile : ?precision:Kernel_ast.Cast.precision -> unit -> compiled
(** Lift both kernels; they launch on a fresh {!Vgpu.Runtime} with its
    default engine. *)

val step : compiled -> Em_grid.t -> unit
(** One full time step (H then E) on a grid, through the virtual GPU. *)
