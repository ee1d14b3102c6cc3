(** Drive a room-acoustics simulation through the virtual GPU.

    Kernel arguments are resolved by parameter name against the live
    simulation state, so the same driver runs the hand-written kernels
    and the Lift-generated kernels (both follow the paper's naming
    convention: prev/curr/next grids, bidx/nbrs/material boundary data,
    beta/beta_fd/bi/d/f/di coefficient tables, g1/v1/v2 branch state,
    and the scalars Nx/Ny/Nz/NxNy/N/nB/NM/MB/l/l2/beta).

    Launches go through a {!Vgpu.Runtime}, which provides the engine
    choice, the kernel caches and per-kernel launch statistics.  On one
    device, {!create} binds the state's arrays into the runtime's table
    once, each kernel launches as one prebuilt [Launch] op, and a step
    rotates the bindings with the three [Swap]s a shard's plan runs;
    [state]'s fields then name the arrays bound, so [state] stays
    live.

    With [create ~shards:n] the driver runs Z-sharded instead: the grid
    is cut into slabs ({!Shard.plan}), one {!Vgpu.Multi} device per
    slab, each shard buffer bound into its device's table once.  A time
    step is one {!Vgpu.Multi.async_plan} value — the launches, the
    ghost-plane halo exchanges and the buffer rotation as per-device
    [Swap]s — which {!step} executes and {!plan} returns for analysis.
    Results are bit-for-bit identical to the single-device engines; the
    global [state] is re-assembled on {!sync}.  The sharded path applies to the
    nbrs-driven kernels (volume + boundary_fi / boundary_fi_mm /
    boundary_fd_mm); the fused Listing-1 kernel derives its boundary
    mask from global coordinates and only runs unsharded.

    The device stores [nbrs] as bytes, and every kernel is launched in
    its {!device_form}.  {!create} computes no byte grid: a single device
    binds the room's own [Geometry.room.nbrs_u8], which the geometry
    walker writes, and each shard its [Shard.shard.nbrs] slab, blitted
    from that grid.  [Geometry.room.nbrs] stays an [int array] for the
    host-side reference code, and results are bit-identical to word
    storage. *)

type engine =
  [ `Interp  (** reference interpreter *)
  | `Native
    (** compiled-C backend, loaded via [dlopen]; runs on the interpreter
        when no C compiler can be run ({!Vgpu.Runtime.engine}) *) ]

(** How a sharded step's plan is executed:

    - [`Seq]: op by op, in list order, on the host thread;
    - [`Concurrent]: each device's launches through {!Vgpu.Pool.global}
      (wall-clock parallel), then the exchanges and swaps on the host —
      a per-step barrier;
    - [`Overlap]: per-device in-order queues with event dependencies,
      executed by {!Vgpu.Multi.run_async} on the calling domain — each
      volume kernel splits into an interior launch plus thin frontier
      launches ({!Shard.split_ranges}) so the halo exchanges overlap
      interior compute on the virtual timeline, and steps pipeline
      there (a step's frontier launches wait on the previous step's
      exchange stamps, its interior launch only on the device clock).

    All three schedules are bit-for-bit identical. *)
type schedule = [ `Seq | `Concurrent | `Overlap ]

type backend =
  | Single of {
      rt : Vgpu.Runtime.t;
          (** one device holding the global arrays, bound into its table
              once by {!create} and rotated by [Swap]s *)
      mutable ops : (Kernel_ast.Cast.kernel * Vgpu.Runtime.op) list;
          (** cache: kernel as passed -> the [Launch] op of its device
              form, at most 32 *)
    }
  | Sharded of {
      multi : Vgpu.Multi.t;
          (** one device per shard; its table binds the shard's buffers
              (grids and branch state as rotated so far, boundary data,
              its [Buffer.U8] slab of [nbrs], the coefficient tables) *)
      plan : Shard.plan;
      schedule : schedule;
      tblock : int;  (** temporal block depth T = the shards' halo *)
      mutable bpos : int;  (** position within the current block, 0..T-1 *)
      mutable scattered : bool;
          (** the global state has been distributed to the shards *)
      eid : int ref;  (** next fresh event id *)
      incs : (int list * int list) array;
          (** per device: the previous block's exchange events into its
              (bottom, top) ghost zone *)
      mutable imports : (int * float) list;
          (** the events the last overlapped step signalled, with their
              virtual-time stamps *)
      mutable launch_ops :
        ((Kernel_ast.Cast.kernel * bool) * (Shard.range_kind option * Vgpu.Multi.op) list array)
        list;
          (** cache: (kernel, ranges) -> per device, its launch ops: the
              interior/frontier ranges of a split kernel, or one full-range
              launch *)
      mutable unprepared : bool;
          (** [launch_ops] has built ops since the last
              {!Vgpu.Multi.prepare} *)
    }

type t = {
  params : Params.t;
  state : State.t;
  tables : Material.tables;
  fi_beta : float;  (** single-material admittance for the FI kernels *)
  engine : engine;
  precision : Kernel_ast.Cast.precision;
  req_tblock : int;  (** requested temporal block depth *)
  backend : backend;
  mutable launches : int;
  nbrs_dev : Vgpu.Buffer.t;
      (** the room's byte grid [Buffer.U8 room.nbrs_u8], not a copy: a
          single device binds it as its [nbrs]; when sharded (each shard
          binds its own slab) only its length is used, by {!check_env} *)
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
(** [shards] selects the sharded backend ([~shards:1] exercises the
    sharded machinery on a single slab; omitting it keeps the original
    single-device path).  [engine] defaults to [`Native].  [schedule]
    picks the sharded step schedule; the default is [`Concurrent].
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
    T = 1 (clamped to the thinnest slab; see {!tblock} for the effective
    value).  [verify] and [sanitize] are forwarded to every runtime:
    fail-fast static verification of each launch, and shadow-memory
    checked execution (see {!Vgpu.Runtime.create}). *)

val device_form : Kernel_ast.Cast.kernel -> Kernel_ast.Cast.kernel
(** The form in which this driver launches a kernel: the same kernel
    with its [nbrs] parameter stored as bytes ({!Kernel_ast.Cast.with_u8});
    a kernel without [nbrs] is returned as it is.  Its name is kept.
    Every launch and every {!plan} op uses it (memoized per simulation
    by physical equality, so each step launches the same values).
    @raise Invalid_argument if the kernel stores to [nbrs]: its writes
    would land in the byte grid the device binds, on a single device
    the room's own. *)

val tblock : t -> int
(** The effective temporal block depth: the requested [tblock] clamped
    by the thinnest slab when sharded. *)

val check_env : t -> Kernel_ast.Check.env
(** Static-verification environment mirroring this simulation's argument
    resolution (scalars as {!launch} would pass them, buffer extents
    from the live arrays). *)

val sanitizers : t -> Vgpu.Sanitizer.t list
(** One sanitizer per device when created with [~sanitize:true]. *)

val violations : t -> Vgpu.Sanitizer.counts option
(** Aggregate dynamic-violation counts ([Some] iff sanitizing). *)

val n_shards : t -> int
(** 1 on a single device, the (clamped) slab count when sharded. *)

val launch : t -> Kernel_ast.Cast.kernel -> unit
(** Launch one kernel against the current bindings (compiled once per
    kernel); on every shard, sequentially, when sharded.
    @raise Failure on unknown parameter names. *)

val stats : t -> Vgpu.Runtime.stats
(** Per-kernel launch statistics accumulated so far (see
    {!Vgpu.Runtime.pp_stats}); the cross-device aggregate when sharded,
    including halo bytes in [s_d2d_bytes]. *)

val per_shard_stats : t -> (int * Vgpu.Runtime.stats) list
(** One entry per device; a single [(0, stats)] on a single device. *)

val pp_stats : Format.formatter -> t -> unit
(** The stats report: aggregate plus per-device blocks when sharded. *)

val step : t -> Kernel_ast.Cast.kernel list -> unit
(** One time step: run the kernels in order, then rotate the buffers.
    One device: each kernel's [Launch] op, then the [Swap]s of
    prev/curr/next and v2/v1 on the bindings, after which [state]'s
    fields name the arrays bound.  Sharded: execute the step's plan (see {!plan}) under the configured
    {!type:schedule}: kernels per shard; at a block boundary — every
    step when [tblock] is 1 — the deep halo exchange of the freshly
    written ghost zones ([next] at depth T, [curr] at depth T-1 when
    T > 2, plus the ghost branch-state slices for FD-MM); the rotation's
    [Swap]s every step.  Every call advances exactly one generation, so
    a block of depth T spans T calls.  Every schedule has finished the
    step when [step] returns; under [`Overlap] it is
    [step_overlap_with t].

    A step whose launches were not all seen before prepares them first,
    under every schedule ({!Vgpu.Runtime.prepare},
    {!Vgpu.Multi.prepare}): each launch optimized and, under [verify],
    checked, then one batch build of the kernels that miss, for all
    devices; when sharded, the launches of the rest of the temporal
    block come along.  A launch [verify] refuses raises {!Vgpu.Runtime.Unsafe_kernel}
    before any kernel is built or run.  A steady step prepares
    nothing. *)

val step_overlap_with :
  ?pick:(int -> int) -> t -> Kernel_ast.Cast.kernel list -> unit
(** One overlapped time step, whatever the configured schedule: the
    split plan, run by {!Vgpu.Multi.run_async} in the legal queue
    interleaving [pick] chooses (default first ready).  Its virtual
    time lands on the simulation's device clocks.  After a step under
    another schedule, that step's exchange events count as fired at
    stamp 0. *)

val plan : t -> Kernel_ast.Cast.kernel list -> steps:int -> Vgpu.Multi.async_plan
(** Op for op, what the next [steps] calls of {!step} would run, from
    the simulation's current block position and event ids; binds
    nothing and does not advance the simulation.  Per step, per device:
    the launches, buffers named as the device tables bind them (split
    into interior and frontier ranges at block starts under
    [`Overlap]); at a block end the halo exchanges, each signalling an
    event the next block's launches wait on; then the rotation as
    per-device [Swap]s of prev/curr/next and v2/v1; an exchange also
    waits on its destination's last launch when the block's launches
    write the ghost planes it fills.  The sync schedules order more
    than the events do ([`Seq] runs the ops in list order,
    [`Concurrent] each device's launches before the exchanges and
    swaps), so their events state the barrier they provide.  Executing
    the plan through {!Vgpu.Multi} ([run] or [run_async]) on a
    scattered twin ({!ensure_scattered}) reproduces the stepped
    simulation bit for bit.
    @raise Invalid_argument on a single-device backend. *)

val slab_geometry : t -> int * int * int array
(** [(nx, ny, planes)] of the sharded backend: the XY plane dimensions
    and each device's slab depth in planes, ghost planes included — the
    geometry {!Lift.Lint.verify_async} interprets plans against.
    @raise Invalid_argument on a single-device backend. *)

val reset_stats : t -> unit
(** Zero the launch/transfer counters and align the devices' virtual
    clocks to the latest one (never rewinding), so a measurement
    interval starts clean. *)

val schedule : t -> schedule option
(** The sharded schedule in effect ([None] on a single device). *)

val overlap_vclock_ns : t -> float
(** The virtual critical path in ns across this simulation's devices —
    the latest device clock (see {!Vgpu.Multi.run_async}).  [0.] on a
    single device or when no overlapped step ran. *)

val overlap_stats : t -> Vgpu.Multi.overlap_stats option
(** This simulation's virtual-time statistics (total busy time vs
    critical path and the overlap saving, per-device clocks); [None] on
    a single device. *)

(** Static per-step cost profile of the temporal-blocking tradeoff. *)
type blocked_stats = {
  bs_tblock : int;  (** effective block depth T *)
  bs_exchanges_per_step : float;  (** d2d copy ops per time step *)
  bs_halo_bytes_per_step : float;  (** d2d bytes per time step *)
  bs_redundant_points : int;
      (** ghost points with real geometry, recomputed redundantly on
          every in-block step, summed across shards *)
}

val blocked_stats : t -> Kernel_ast.Cast.kernel list -> blocked_stats option
(** The temporal-blocking cost profile of this simulation's block
    exchange plan for the given kernel sequence; [None] on a single
    device. *)

val sync : t -> unit
(** Gather the sharded slabs back into [state] (no-op on a
    single device, where every step leaves [state] naming the bound
    arrays, and on a sharded one before its first step or
    {!ensure_scattered}). *)

val ensure_scattered : t -> unit
(** Distribute the global [state] to the shards' bound buffers unless
    that has happened (the first {!step} or {!launch} does it); from
    then on the shards hold the field and [State.add_impulse] on
    [state] no longer reaches them.  No-op on a single device. *)

val read : t -> x:int -> y:int -> z:int -> float
(** The current field at a grid point, wherever it lives — the sharded
    equivalent of {!State.read}.
    @raise Invalid_argument outside the grid, as {!State.read}. *)

val run :
  t -> Kernel_ast.Cast.kernel list -> steps:int -> receiver:int * int * int -> float array
(** Run [steps] steps recording the field at the receiver after each. *)
