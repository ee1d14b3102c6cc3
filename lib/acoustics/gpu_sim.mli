(** Drive a room-acoustics simulation through the virtual GPU.

    Kernel arguments are resolved by parameter name against the live
    simulation state, so the same driver runs the hand-written kernels
    and the Lift-generated kernels (both follow the paper's naming
    convention: prev/curr/next grids, bidx/nbrs/material boundary data,
    beta/beta_fd/bi/d/f/di coefficient tables, g1/v1/v2 branch state,
    and the scalars Nx/Ny/Nz/NxNy/N/nB/NM/MB/l/l2/beta).

    Launches go through {!Vgpu.Runtime}s, which provide the engine
    choice, the kernel caches and per-kernel launch statistics.  Every
    simulation runs a Z-slab plan ({!Shard.plan}), one {!Vgpu.Multi}
    device per slab, each device's buffers bound into its table once by
    {!create}.  A time step is one {!Vgpu.Multi.async_plan} value — the
    launches, the ghost-plane halo exchanges and the buffer rotation as
    per-device [Swap]s — which {!step} executes and {!plan} returns for
    analysis.  A volume launch (a flat [N] kernel taking [nbrs]) has as
    its hull only the planes that can hold a room point
    ({!Shard.live_planes}), in the offset form
    ({!Kernel_ast.Cast.offset_global_id}) that the overlapped schedule
    splits into interior and frontier ranges: no ghost plane, and none
    of the room's two shell planes, whose [nbrs] are zero.  Within its
    hull it visits only the room's row intervals, the span set
    ({!Vgpu.Spans}) it carries ({!Shard.launch_spans}): every work item
    it skips has [nbrs] = 0, where the hand kernel writes nothing and
    the Lift kernel a 0 over a 0, so results stay bit-identical.
    Verification sees the hull only.  Any other kernel launches over its
    full NDRange.

    - One device (the default) runs the one-slab plan, whose shard is
      the room itself: no ghost planes and no exchanges.  Its device
      binds the room's byte grid and boundary data and [state]'s own
      arrays, so nothing is scattered or gathered, and after every step
      [state]'s fields name the arrays bound, so [state] stays live.
    - [create ~shards:n] cuts the grid into n slabs with ghost planes,
      each in its own arrays; the global [state] is re-assembled on
      {!sync}.  Results are bit-for-bit identical to one device's.  The
      sharded path applies to the nbrs-driven kernels (volume +
      boundary_fi / boundary_fi_mm / boundary_fd_mm); the fused
      Listing-1 kernel derives its boundary mask from global coordinates
      and only runs on one device.

    The device stores [nbrs] as bytes, and every kernel is launched in
    its {!device_form}.  {!create} computes no byte grid: one device
    binds the room's own [Geometry.room.nbrs_u8], which the geometry
    walker writes, and each of several shards its [Shard.shard.nbrs]
    slab, blitted from that grid.  [Geometry.room.nbrs] stays an [int
    array] for the host-side reference code, and results are
    bit-identical to word storage. *)

type engine =
  [ `Interp  (** reference interpreter *)
  | `Native
    (** compiled-C backend, loaded via [dlopen]; runs on the interpreter
        when no C compiler can be run ({!Vgpu.Runtime.engine}) *) ]

(** How a step's plan is executed:

    - [`Seq]: op by op, in list order, on the host thread;
    - [`Concurrent]: each device's launches through {!Vgpu.Pool.global}
      (wall-clock parallel), then the exchanges and swaps on the host —
      a per-step barrier;
    - [`Overlap]: per-device in-order queues with event dependencies,
      executed by {!Vgpu.Multi.run_async} on the calling domain — on
      several devices each volume kernel splits into an interior launch
      plus thin frontier launches ({!Shard.split_ranges}) so the halo
      exchanges overlap interior compute on the virtual timeline, and
      steps pipeline there (a step's frontier launches wait on the
      previous step's exchange stamps, its interior launch only on the
      device clock).

    All three schedules are bit-for-bit identical; on one device they
    run the same ops in the same order. *)
type schedule = [ `Seq | `Concurrent | `Overlap ]

(** One device's state cells in its buffer table
    ({!Vgpu.Runtime.cell}).  A runtime never replaces a cell ([bind]
    writes one, a [Swap] exchanges two cells' contents), so {!create}
    looks them up once, and {!read}, {!sync} and every step read the
    live arrays through them. *)
type cells = {
  c_prev : Vgpu.Buffer.t ref;
  c_curr : Vgpu.Buffer.t ref;
  c_next : Vgpu.Buffer.t ref;
  c_g1 : Vgpu.Buffer.t ref;
  c_v2 : Vgpu.Buffer.t ref;
  c_v1 : Vgpu.Buffer.t ref;
}

(** Per device, the launch ops of one kernel, each with its range kind
    ([None]: unsplit). *)
type launches = (Shard.range_kind option * Vgpu.Multi.op) list array

type t = {
  params : Params.t;
  state : State.t;
  tables : Material.tables;
  fi_beta : float;  (** single-material admittance for the FI kernels *)
  precision : Kernel_ast.Cast.precision;
  multi : Vgpu.Multi.t;
      (** one device per shard; its table binds the shard's buffers
          (grids and branch state as rotated so far, boundary data, its
          [Buffer.U8] grid of [nbrs], the coefficient tables) — on one
          device [state]'s arrays and the room's own *)
  cells : cells array;  (** per device *)
  plan : Shard.plan;
  schedule : schedule;
  tblock : int;  (** temporal block depth T = the shards' halo; 1 on one device *)
  mutable bpos : int;  (** position within the current block, 0..T-1 *)
  mutable scattered : bool;
      (** the devices' buffers hold the field: from {!create} on one
          device, which binds [state]'s arrays *)
  eid : int ref;  (** next fresh event id *)
  incs : (int list * int list) array;
      (** per device: the previous block's exchange events into its
          (bottom, top) ghost zone *)
  mutable imports : (int * float) list;
      (** the events the last overlapped step signalled, with their
          virtual-time stamps *)
  mutable launch_ops : (Kernel_ast.Cast.kernel * launches * launches) list;
      (** cache: kernel in device form -> its unsplit launches (over the
          live planes' spans when the kernel is a volume sweep) and its
          split ones (the overlapped schedule's block starts) *)
  mutable unprepared : bool;
      (** [launch_ops] has built ops since the last {!Vgpu.Multi.prepare} *)
  mutable periodic : (Kernel_ast.Cast.kernel list * bool * Vgpu.Multi.async_plan) option;
      (** the last step's (kernels as passed, split, ops) when its ops
          carry no event — one device, which has no exchange: the next
          step of the same kernels re-runs that value *)
  mutable device_forms : (Kernel_ast.Cast.kernel * Kernel_ast.Cast.kernel) list;
      (** physical-equality memo of {!device_form}, newest first, at most
          32 entries *)
}

val create :
  ?engine:engine ->
  ?optimize:bool ->
  ?unroll_budget:int ->
  ?fi_beta:float ->
  ?materials:Material.t array ->
  ?n_branches:int ->
  ?shards:int ->
  ?schedule:schedule ->
  ?precision:Kernel_ast.Cast.precision ->
  ?tblock:int ->
  ?verify:bool ->
  ?sanitize:bool ->
  Params.t ->
  Geometry.room ->
  t
(** [shards] (default 1) is the number of Z slabs, one device each
    (clamped to the planes; see {!n_shards}): 1, or omitting it, runs
    the one-slab plan on one device, which binds [state]'s arrays.
    [engine] defaults to [`Native].  [schedule] picks the step
    schedule; the default is [`Concurrent].
    Every schedule sanitizes: [`Overlap] runs its plan on the calling
    domain, so [~sanitize:true] keeps it overlapped.  [optimize] (default
    [true]) is forwarded to the underlying runtimes: launched kernels
    pass through the
    {!module:Kernel_ast.Opt} pipeline before dispatch.  [precision]
    (default [Double]) sets the transfer-accounting element width of the
    underlying runtimes.  [tblock] (default 1) is the temporal block
    depth T: sharded runs allocate depth-T ghost zones, recompute the
    inner T-1 ghost planes redundantly each step, and exchange halos
    once per block of T steps instead of every step — bit-identical to
    T = 1 (clamped to the thinnest slab, and 1 on one device, which
    exchanges nothing; see {!tblock} for the effective value).
    [verify] and [sanitize] are forwarded to every runtime: fail-fast
    static verification of each launch, and shadow-memory checked
    execution (see {!Vgpu.Runtime.create}). *)

val device_form : Kernel_ast.Cast.kernel -> Kernel_ast.Cast.kernel
(** The form in which this driver launches a kernel: the same kernel
    with its [nbrs] parameter stored as bytes ({!Kernel_ast.Cast.with_u8});
    a kernel without [nbrs] is returned as it is.  Its name is kept.
    Every launch and every {!plan} op uses it (memoized per simulation
    by physical equality, so each step launches the same values).
    @raise Invalid_argument if the kernel stores to [nbrs]: its writes
    would land in the byte grid the device binds, on one device the
    room's own. *)

val tblock : t -> int
(** The effective temporal block depth: the requested [tblock] clamped
    by the thinnest slab; 1 on one device. *)

val check_env : t -> Kernel_ast.Check.env
(** Static-verification environment mirroring this simulation's argument
    resolution (scalars as {!launch} would pass them, buffer extents
    from the live arrays). *)

val sanitizers : t -> Vgpu.Sanitizer.t list
(** One sanitizer per device when created with [~sanitize:true]. *)

val violations : t -> Vgpu.Sanitizer.counts option
(** Aggregate dynamic-violation counts ([Some] iff sanitizing). *)

val n_shards : t -> int
(** The (clamped) slab count: the number of devices. *)

val launch : t -> Kernel_ast.Cast.kernel -> unit
(** Launch one kernel against the current bindings (compiled once per
    kernel) on every device, sequentially, as an unsplit step launches
    it (a volume kernel over the live planes' spans).
    @raise Failure on unknown parameter names. *)

val stats : t -> Vgpu.Runtime.stats
(** Per-kernel launch statistics accumulated so far (see
    {!Vgpu.Runtime.pp_stats}): the cross-device aggregate, including
    halo bytes in [s_d2d_bytes]. *)

val per_shard_stats : t -> (int * Vgpu.Runtime.stats) list
(** One entry per device; a single [(0, stats)] on one device. *)

val pp_stats : Format.formatter -> t -> unit
(** The stats report ({!Vgpu.Multi.pp_stats}): on one device that
    device's {!Vgpu.Runtime.pp_stats}; when sharded, the aggregate plus
    per-device blocks. *)

val step : t -> Kernel_ast.Cast.kernel list -> unit
(** One time step: run the kernels in order, then rotate the buffers.
    It executes the step's plan (see {!plan}) under the configured
    {!type:schedule}: kernels per shard; when sharded, at a block
    boundary — every step when [tblock] is 1 — the deep halo exchange
    of the freshly written ghost zones ([next] at depth T, [curr] at
    depth T-1 when T > 2, plus the ghost branch-state slices for
    FD-MM); the rotation's [Swap]s every step.  Every call advances
    exactly one generation, so a block of depth T spans T calls.  Every
    schedule has finished the step when [step] returns; under
    [`Overlap] it is [step_overlap_with t].  On one device [state]'s
    fields then name the arrays bound, and a steady step re-runs one
    plan value.

    A step whose launches were not all seen before prepares them first,
    under every schedule ({!Vgpu.Runtime.prepare},
    {!Vgpu.Multi.prepare}): each launch optimized and, under [verify],
    checked, then one batch build of the kernels that miss, for all
    devices; the launches of the rest of the temporal block come
    along.  A launch [verify] refuses raises {!Vgpu.Runtime.Unsafe_kernel}
    before any kernel is built or run.  A steady step prepares
    nothing. *)

val step_overlap_with :
  ?pick:(int -> int) -> t -> Kernel_ast.Cast.kernel list -> unit
(** One overlapped time step, whatever the configured schedule: the
    split plan (unsplit on one device), run by {!Vgpu.Multi.run_async}
    in the legal queue interleaving [pick] chooses (default first
    ready).  Its virtual time lands on the simulation's device clocks.
    After a step under another schedule, that step's exchange events
    count as fired at stamp 0. *)

val plan : t -> Kernel_ast.Cast.kernel list -> steps:int -> Vgpu.Multi.async_plan
(** Op for op, what the next [steps] calls of {!step} would run, from
    the simulation's current block position and event ids; binds
    nothing and does not advance the simulation.  Per step, per device:
    the launches, buffers named as the device tables bind them (a volume
    kernel over the shard's live planes, split into interior and
    frontier ranges at block starts under [`Overlap] on several
    devices, each launch carrying the shard's spans in its range); at a
    block end the halo exchanges, each signalling an
    event the next block's launches wait on; then the rotation as
    per-device [Swap]s of prev/curr/next and v2/v1.  An exchange also
    waits on its destination's last launch when the block's launches
    write the ghost planes it fills: at T ≥ 2, where they recompute the
    inner ghost planes, and never at T = 1 for the volume and boundary
    kernels.  The sync schedules order more
    than the events do ([`Seq] runs the ops in list order,
    [`Concurrent] each device's launches before the exchanges and
    swaps), so their events state the barrier they provide.  Executing
    the plan through {!Vgpu.Multi} ([run] or [run_async]) on a
    scattered twin ({!ensure_scattered}) and then {!sync}ing it
    reproduces the stepped simulation bit for bit.  On one device the
    plan has no exchange and no event. *)

val slab_geometry : t -> int * int * int array
(** [(nx, ny, planes)]: the XY plane dimensions and each device's slab
    depth in planes, ghost planes included ([[|nz|]] on one device) —
    the geometry {!Lift.Lint.verify_async} interprets plans against. *)

val reset_stats : t -> unit
(** Zero the launch/transfer counters and align the devices' virtual
    clocks to the latest one (never rewinding), so a measurement
    interval starts clean. *)

val schedule : t -> schedule
(** The schedule in effect. *)

val overlap_stats : t -> Vgpu.Multi.overlap_stats
(** This simulation's virtual-time statistics (total busy time vs
    critical path and the overlap saving, per-device clocks). *)

(** Static per-step cost profile of the temporal-blocking tradeoff. *)
type blocked_stats = {
  bs_tblock : int;  (** effective block depth T *)
  bs_exchanges_per_step : float;  (** d2d copy ops per time step *)
  bs_halo_bytes_per_step : float;  (** d2d bytes per time step *)
  bs_redundant_points : int;
      (** ghost points with real geometry, recomputed redundantly on
          every in-block step, summed across shards *)
}

val blocked_stats : t -> Kernel_ast.Cast.kernel list -> blocked_stats
(** The temporal-blocking cost profile of this simulation's block
    exchange plan for the given kernel sequence (T = 1 and no exchange
    on one device). *)

val volume_sweep : t -> Kernel_ast.Cast.kernel list -> float * float
(** [(visited, hull)]: per step of the given kernels, the work items its
    volume launches visit (their spans: the room's points in the live
    planes) and the work items of their hulls (their NDRanges), summed
    over the devices and averaged over one temporal block (under
    [`Overlap] on several devices a block's first step launches the
    split ranges, whose hulls also cover shell planes). *)

val sync : t -> unit
(** Gather the sharded slabs back into [state] (nothing to gather
    before the first step or {!ensure_scattered}).  On one device,
    whose device binds [state]'s own arrays, it only points [state]'s
    fields at the arrays bound now, as every {!step} does there — after
    running a {!plan} through {!Vgpu.Multi} directly, for instance. *)

val ensure_scattered : t -> unit
(** Distribute the global [state] to the shards' bound buffers unless
    that has happened (the first {!step} or {!launch} does it); from
    then on the shards hold the field and [State.add_impulse] on
    [state] no longer reaches them.  No-op on one device, whose
    buffers are [state]'s arrays. *)

val read : t -> x:int -> y:int -> z:int -> float
(** The current field at a grid point, wherever it lives — the sharded
    equivalent of {!State.read}.
    @raise Invalid_argument outside the grid, as {!State.read}. *)

val run :
  t -> Kernel_ast.Cast.kernel list -> steps:int -> receiver:int * int * int -> float array
(** Run [steps] steps recording the field at the receiver after each. *)
