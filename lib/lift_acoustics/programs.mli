(** The room-acoustics kernels expressed in the Lift IR (paper §V).

    Buffer parameter names follow the convention shared with the
    hand-written kernels so {!Acoustics.Gpu_sim} can run either side of
    every comparison.  Size variables: N (grid voxels), nB (boundary
    points), NM (materials); the branch count MB is a compile-time
    constant, as in the paper's kernels.  Every program compiles to a
    flat NDRange kernel over global buffers, private arrays and
    registers, as the paper's listings are. *)

open Lift

(** {1 Shared types} *)

val n : Size.t
val nb : Size.t
val nm : Size.t
val grid_ty : Ty.t
val nbrs_ty : Ty.t
val bidx_ty : Ty.t
val material_ty : Ty.t
val beta_ty : Ty.t

(** {1 Programs} *)

val volume : unit -> Ast.lam
(** The volume-handling kernel (Listing 2, kernel 1): one work-item per
    voxel; outside points are rewritten to zero, preserving the halo. *)

val boundary_fi : unit -> Ast.lam
(** Single-material in-place boundary scatter (Listing 2, kernel 2). *)

val boundary_fi_mm : unit -> Ast.lam
(** Frequency-independent multi-material boundary handling (paper
    Listing 7).  [beta] is a kernel argument in global memory — the
    §VII-B1 difference from the hand-written kernel. *)

val boundary_fd_mm :
  ?staging:[ `Private | `Global ] ->
  ?layout:[ `Branch_major | `Point_major ] ->
  mb:int ->
  unit ->
  Ast.lam
(** Frequency-dependent multi-material boundary handling (paper
    Listing 8): three arrays updated in place per boundary point.
    Ablation knobs: [staging] stages branch state in private memory (the
    paper's choice) or re-reads global memory (in which case v1 must be
    written before g1 to avoid a read-after-write hazard — handled
    internally); [layout] selects branch-major (coalesced) or
    point-major branch state. *)

val fused_fi : unit -> Ast.lam
(** Fused stencil + naive FI boundary (paper §V-B / Listing 6
    semantics): box rooms only, single kernel, over the linearised
    grid. *)

val nz2 : Size.t
val ny2 : Size.t
val nx2 : Size.t

val grid3_ty : Ty.t
(** [[ [real]Nx2 ]Ny2 ]Nz2 — interior dimensions, no physical halo. *)

val fused_fi_3d : unit -> Ast.lam
(** Fused FI in the exact style of the paper's Listing 6: a 3D NDRange
    over [zip3(grid_prev, slide3(3,1, pad3(1, grid_curr)),
    array3(computeNumNeighbors))], with slide3/pad3 as macro
    compositions of the 1D patterns ({!Lift.Macros}).  The grids carry
    no physical halo; pad3 virtualises it each step. *)

val compile :
  ?name:string ->
  ?optimize:bool ->
  precision:Kernel_ast.Cast.precision ->
  Ast.lam ->
  Codegen.compiled
(** Rewrite-normalise and compile a program to a kernel.  [optimize]
    (default [true]) runs the result through the
    {!module:Kernel_ast.Opt} pass pipeline; pass [false] for the raw
    codegen output, e.g. when launching through a runtime that
    optimizes at dispatch time. *)
