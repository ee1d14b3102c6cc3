(** Measured rewrite-space autotuner.

    Searches the full configuration space the runtime exposes — volume
    kernel form (flat, 2.5D tile, {!Lift.Explore} rewrite variant) x
    optimizer unroll budget x work-group size x shard count x overlap
    schedule x temporal block depth — by {e measurement}, with the performance model (corrected
    by persisted calibration factors) pruning the space first.  The
    winning plan is persisted in {!Plan_cache}, so a warm rerun — or
    [racs simulate --tuned] — selects it with zero measurements.

    The paper hand-tunes each benchmark (§VI); this automates the
    protocol, and the measured re-ranking is what catches the model's
    mispredictions (BENCH_PR7: predicted 0.97x for the tiled kernel,
    measured 1.6-2x). *)

(** One measured candidate. *)
type measured = {
  m_plan : Plan_cache.plan;
  m_predicted_s : float;  (** calibrated model time per step *)
  m_measured_s : float;  (** measured median time per step *)
  m_identical : bool;
      (** final field bit-identical to the default plan's — a diverging
          candidate is reported but can never win *)
}

type result = {
  r_key : Plan_cache.key;
  r_entry : Plan_cache.entry;  (** the winning plan and its numbers *)
  r_evaluated : measured list;
      (** every measured candidate, in evaluation order; empty on a
          cache hit *)
  r_candidates : int;  (** plans enumerated before model pruning *)
  r_measurements : int;  (** candidates measured — [0] means warm cache *)
  r_from_cache : bool;
}

val tune :
  ?engine:Acoustics.Gpu_sim.engine ->
  ?precision:Kernel_ast.Cast.precision ->
  ?device:Vgpu.Device.t ->
  ?n_branches:int ->
  ?topk:int ->
  ?warmup:int ->
  ?repeats:int ->
  ?steps:int ->
  ?max_shards:int ->
  ?clock:(unit -> float) ->
  ?use_cache:bool ->
  ?explore_depth:int ->
  ?tiles:(int * int) list ->
  ?tblocks:int list ->
  scheme:string ->
  shape:Acoustics.Geometry.shape ->
  dims:Acoustics.Geometry.dims ->
  unit ->
  result
(** Tune one workload.  [scheme] is [fi | fi-mm | fd-mm].  Defaults:
    [`Native] engine on {!Vgpu.Device.host}, [topk = 8] survivors of the
    model pruning, [warmup = 2] untimed steps, the median of [repeats =
    5] intervals of [steps = 20] steps each, shard counts up to
    [max_shards = 2], plan cache and calibration persistence on
    ([use_cache]), rewrite exploration depth [2] ([0] disables variant
    candidates), temporal block depths [tblocks] (default
    {!default_tblocks}) searched on sharded plans.  Candidates are
    measured one at a time.

    [clock] injects a timer (tests use a fake one — the search is then
    fully deterministic, including tie-breaks: {!List.stable_sort} and
    first-wins measured ranking).  The injected clock also drives the
    runtimes' per-launch timing via {!Vgpu.Runtime.set_clock}, restored
    on exit.

    @raise Invalid_argument on an unknown scheme. *)

val key :
  engine:Acoustics.Gpu_sim.engine ->
  precision:Kernel_ast.Cast.precision ->
  n_branches:int ->
  scheme:string ->
  shape:Acoustics.Geometry.shape ->
  dims:Acoustics.Geometry.dims ->
  Plan_cache.key
(** The cache key [tune] uses: workload coordinates plus a digest of
    every candidate kernel's code, so a codegen change invalidates
    persisted plans. *)

val plan_kernels :
  precision:Kernel_ast.Cast.precision ->
  n_branches:int ->
  scheme:string ->
  Plan_cache.plan ->
  Kernel_ast.Cast.kernel list
(** The kernel sequence a plan executes per step (volume form according
    to the plan, then the scheme's boundary kernel) — what
    [racs simulate --tuned] feeds to {!Acoustics.Gpu_sim.step}. *)

val plan_label : Plan_cache.plan -> string
(** Human-readable one-liner, e.g.
    ["tile8x8 ls=64 unroll=default shards=2/overlap"]. *)

val engine_label : Acoustics.Gpu_sim.engine -> string
val precision_label : Kernel_ast.Cast.precision -> string

val default_unrolls : int option list
val default_tiles : (int * int) list

val default_tblocks : int list
(** Temporal block depths searched on sharded plans: [[1; 2; 4]]. *)

val enumerate :
  device:Vgpu.Device.t ->
  precision:Kernel_ast.Cast.precision ->
  shape:Acoustics.Geometry.shape ->
  dims:Acoustics.Geometry.dims ->
  max_shards:int ->
  explore_depth:int ->
  tiles:(int * int) list ->
  ?tblocks:int list ->
  unit ->
  Plan_cache.plan list
(** The full candidate space before model pruning (exposed for tests and
    the bench report).  Tiles are clipped to the room's XY extent and a
    256-lane group bound; each volume form's work-group size comes from
    {!Tuner}'s model sweep over NDRange-admissible sizes. *)
