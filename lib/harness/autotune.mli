(** Measured autotuner.

    Searches the configuration space the runtime exposes — optimizer
    unroll budget x shard count x schedule x temporal block depth — by
    {e measurement}, with the performance model (corrected by persisted
    calibration factors) pruning the space first.  The winning plan is
    persisted in {!Plan_cache}, so a warm rerun — or
    [racs simulate --tuned] — selects it with zero measurements.

    The paper hand-tunes each benchmark (§VI); this automates the
    protocol, and the measured re-ranking is what catches the model's
    mispredictions (BENCH_PR8: the model predicts sharded plans to win,
    and on this host they lose).  The work-group size is searched inside
    the model only ({!Tuner}): the host engines' wall clock does not
    depend on it, so it is no plan field. *)

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
  ?n_branches:int ->
  ?topk:int ->
  ?warmup:int ->
  ?repeats:int ->
  ?steps:int ->
  ?max_shards:int ->
  ?clock:(unit -> float) ->
  ?use_cache:bool ->
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
    ([use_cache]), temporal block depths {!default_tblocks} searched on
    sharded plans.  The model prices for {!Vgpu.Device.host}, the
    device {!key} names.  Candidates are measured one at a time.

    [clock] injects a timer (tests use a fake one — the search is then
    fully deterministic, including tie-breaks: {!List.stable_sort} and
    first-wins measured ranking).  The injected clock also drives the
    runtimes' per-launch timing via {!Vgpu.Runtime.set_clock}, restored
    on exit.

    @raise Invalid_argument on an unknown scheme, or on [steps] or
    [repeats] below 1 (before anything is measured or stored). *)

val key :
  engine:Acoustics.Gpu_sim.engine ->
  precision:Kernel_ast.Cast.precision ->
  n_branches:int ->
  scheme:string ->
  shape:Acoustics.Geometry.shape ->
  dims:Acoustics.Geometry.dims ->
  Plan_cache.key
(** The cache key [tune] uses: workload coordinates plus a digest of
    the volume and boundary kernels' code, so a codegen change
    invalidates persisted plans. *)

val kernels :
  precision:Kernel_ast.Cast.precision ->
  n_branches:int ->
  scheme:string ->
  Kernel_ast.Cast.kernel list
(** The kernel sequence every plan executes per step (the flat volume
    kernel, then the scheme's boundary kernel) — what
    [racs simulate --tuned] feeds to {!Acoustics.Gpu_sim.step}. *)

val plan_label : Plan_cache.plan -> string
(** Human-readable one-liner, e.g. ["unroll=default shards=2/overlap T=2"]. *)

val plan_json : Plan_cache.plan -> string
(** The plan as one JSON object: [label], [unroll] (null for the
    default budget), [shards], [schedule] and [tblock] — the rendering
    of [racs tune --json] and the bench's autotune report. *)

val engine_label : Acoustics.Gpu_sim.engine -> string
val precision_label : Kernel_ast.Cast.precision -> string

val default_unrolls : int option list

val default_tblocks : int list
(** Temporal block depths searched on sharded plans: [[1; 2; 4]]. *)

val enumerate : dims:Acoustics.Geometry.dims -> max_shards:int -> unit -> Plan_cache.plan list
(** The full candidate space before model pruning (exposed for tests):
    every unroll budget, the single-device plan, and shard counts
    [2..max_shards] under each block depth.  A plan the simulator would
    clamp — more shards than the room has Z planes, or a block depth
    deeper than the thinnest slab {!Acoustics.Shard.partition} cuts — is
    left out, so every plan runs as labelled. *)
