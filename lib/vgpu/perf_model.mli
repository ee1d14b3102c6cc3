(** Roofline-style analytic timing model for kernels on the paper's
    GPUs.

    Predicted kernel time =
    launch overhead + max(effective traffic / bandwidth, flops / peak).

    Effective traffic is computed per buffer from the static analysis of
    the actual kernel AST:
    - small coefficient tables are cache-resident (free on GCN, an
      L2-bandwidth cost on Kepler — the mechanism behind the paper's
      §VII-B1 beta-in-global-memory observation);
    - indirect (gathered/scattered) accesses are derated by a coalescing
      efficiency computed from the measured contiguity of the boundary
      index array (runs of consecutive boundary voxels);
    - repeated affine loads of the same buffer (stencil neighbourhoods)
      mostly hit cache. *)

type workload = {
  active_points : float;
      (** work-items that execute the guarded fast path *)
  buffer_elems : (string * int) list;
      (** element count per buffer argument (for cache residency) *)
  contiguity : float;
      (** fraction of consecutive work-items hitting consecutive
          addresses, for indirect accesses *)
  param_values : (string * int) list;
      (** scalar parameters that bound loops *)
  local_size : int;
      (** work-group size (the paper hand-tunes this per kernel);
          affects lane utilisation, launch tails and occupancy *)
}

val workload :
  ?buffer_elems:(string * int) list ->
  ?contiguity:float ->
  ?param_values:(string * int) list ->
  ?local_size:int ->
  active_points:float ->
  unit ->
  workload

val group_efficiency : workload -> flops:float -> float
(** Utilisation factor in (0, 1] from the work-group size. *)

type breakdown = {
  bytes_per_point : float;
      (** effective traffic of the optimized AST, which is what the
          runtime dispatches *)
  flops_per_point : float;  (** flops of the optimized AST *)
  raw_bytes_per_point : float;
      (** same traffic measure on the unoptimized AST, for comparison *)
  raw_flops_per_point : float;  (** flops of the unoptimized AST *)
  mem_time_s : float;
  flop_time_s : float;
  launch_s : float;
  total_s : float;
}

val predict_breakdown :
  ?unroll_budget:int -> Device.t -> Kernel_ast.Cast.kernel -> workload -> breakdown
(** Predictions are computed from the kernel as the runtime executes it —
    after the {!module:Kernel_ast.Opt} pipeline — with the raw AST's
    counts exposed alongside in [raw_bytes_per_point] /
    [raw_flops_per_point].  [unroll_budget] mirrors the runtime's
    optimizer knob so a prediction prices the same code the configured
    runtime would dispatch. *)

val predict : ?unroll_budget:int -> Device.t -> Kernel_ast.Cast.kernel -> workload -> float
(** Predicted runtime of one launch, in seconds. *)

(** Per-(device, kernel) multiplicative corrections learned from
    measurements: the autotuner feeds measured/predicted ratios in via
    {!Calibration.observe} and later predictions are scaled by the
    geometric mean of the observed ratios.  Persisted across runs by
    {!Harness.Plan_cache}. *)
module Calibration : sig
  type t

  val create : unit -> t

  val observe :
    t -> device:string -> kernel_name:string -> predicted_s:float -> measured_s:float -> unit
  (** Record one measurement against its prediction.  Non-positive times
      are ignored. *)

  val factor : t -> device:string -> kernel_name:string -> float
  (** Geometric-mean [measured/predicted] ratio for the pair, [1.0] when
      nothing has been observed. *)

  val set : t -> device:string -> kernel_name:string -> log_sum:float -> samples:int -> unit
  (** Restore a persisted entry verbatim. *)

  val entries : t -> (string * float * int) list
  (** All entries as [("device/kernel", log_sum, samples)], sorted — the
      persistence format's source of truth. *)
end

val updates_per_second : points:float -> time_s:float -> float
(** The paper's throughput metric (§VI). *)

(** {2 Z-sharded execution} *)

val stencil_radius : Kernel_ast.Cast.kernel -> workload -> int
(** Halo radius in planes, inferred from the kernel's static stencil
    footprint ({!Kernel_ast.Footprint}) under the workload's parameter
    environment (needs ["Nx"] and ["Ny"] in [param_values] to form the
    axis strides): the widest inferable per-buffer read radius along the
    highest-stride axis.  A pointwise kernel gets 0; kernels whose reads
    are all data-dependent fall back to the protocol's one plane. *)

val halo_bytes_per_step :
  radius:int ->
  precision:Kernel_ast.Cast.precision ->
  plane_elems:int ->
  shards:int ->
  int
(** Bytes crossing device boundaries per time step when the grid is cut
    into [shards] slabs along Z: each interior cut swaps [radius]
    XY planes of [plane_elems] elements in each direction. *)

val predict_sharded :
  ?link_gb_s:float ->
  ?radius:int ->
  Device.t ->
  Kernel_ast.Cast.kernel ->
  workload ->
  plane_elems:int ->
  shards:int ->
  float
(** Predicted per-step time under Z-sharding: slabs run concurrently
    (each [1/shards] of the points, full launch overhead) plus the halo
    planes crossing the inter-device link ([link_gb_s], default a
    PCIe-3-class 12 GB/s).  [radius] defaults to {!stencil_radius} — the
    halo-byte term comes from the inferred footprint, not a constant. *)

val predict_overlapped :
  ?link_gb_s:float ->
  ?radius:int ->
  Device.t ->
  Kernel_ast.Cast.kernel ->
  workload ->
  plane_elems:int ->
  shards:int ->
  float
(** Predicted per-step time under the overlapped (split
    interior/frontier) schedule: the frontier work — which must wait on
    the previous step's halo exchange — plus the longer of interior
    compute and halo transfer, the critical path of the per-device
    command queues.  Coincides with {!predict} at [shards = 1]; never
    exceeds {!predict_sharded} by more than the second launch
    overhead. *)

val predict_blocked :
  ?link_gb_s:float ->
  ?link_latency_s:float ->
  ?radius:int ->
  Device.t ->
  Kernel_ast.Cast.kernel ->
  workload ->
  plane_elems:int ->
  shards:int ->
  tblock:int ->
  float
(** Predicted per-step time under temporal blocking at depth [tblock]:
    one exchange round per block — the per-round latency
    ([link_latency_s], default 10 us per d2d op) amortises to 1/T — of
    depth [T*radius] (plus [T-1]*radius for the previous generation when
    T > 2), against 2*(shards-1)*(T*radius - 1) redundantly recomputed
    ghost planes added to every launch.  [kernel] is the per-step kernel
    every launch of the block runs.  At [tblock = 1] this coincides with
    {!predict_sharded} plus the round-latency term. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
