(** Z-axis domain decomposition of the acoustics grid across virtual
    devices.

    The grid is cut into contiguous slabs of whole XY planes; a shard
    owns global planes [z0, z1) and holds (z1-z0)+2*halo local planes —
    the owned planes plus [halo] ghost planes each side, where [halo] is
    the temporal block depth T.  Out-of-grid ghosts stay zero (the
    grid-edge halo); interior ghosts are refreshed from the neighbouring
    shard by a depth-[halo] exchange once per block of T steps, and the
    halo-1 ghost planes nearest the owned region carry real geometry so
    the in-block launches recompute them redundantly.  Boundary data
    re-bases to shard-local coordinates at plan time: the ascending
    global boundary-index array makes each shard's (halo-extended)
    boundary range contiguous, so the branch-major FD state
    (ci = b*nB + i) re-bases per branch as contiguous slices.

    Every owned point is computed by exactly one shard from inputs
    identical to the unsharded arrays, so sharded runs are bit-for-bit
    equal to one-device runs, which run the one-slab plan. *)

type slab = { z0 : int; z1 : int }  (** owns global planes [z0, z1) *)

val partition : nz:int -> shards:int -> slab array
(** Cut [nz] planes into at most [shards] non-empty contiguous slabs
    (clamped to [nz]; sizes differ by at most one plane). *)

type shard = {
  index : int;
  z0 : int;  (** first owned global plane *)
  z1 : int;  (** one past the last owned global plane *)
  plane : int;  (** nx * ny *)
  halo : int;  (** ghost planes per side (the temporal block depth T) *)
  planes : int;  (** z1 - z0 + 2*halo: owned planes plus the ghosts *)
  base : int;  (** global linear index of local index 0: (z0-halo)*plane *)
  local_n : int;  (** planes * plane *)
  nbrs : Bytes.t;
      (** local neighbour counts, one byte each, blitted from the room's
          [nbrs_u8] (a one-slab plan's shard is that grid): real on local
          planes [1, planes-2], zero on the two extreme planes and outside
          the grid *)
  bidx : int array;  (** boundary indices re-based to local coordinates *)
  material : int array;  (** material ids of this shard's boundary points *)
  b_off : int;  (** offset of this shard's range in the global boundary array *)
  n_b : int;  (** boundary points in the extended (owned + ghost) range *)
  b_own0 : int;  (** offset of the first owned boundary point within [bidx] *)
  b_ownn : int;  (** boundary points actually owned by this shard *)
  spans : Vgpu.Spans.t;
      (** the room's row intervals ({!Geometry.row_spans}) in the shard's
          {!live_planes}, built once with the plan, as offsets from the
          first live plane's first point: the work items of the unsplit
          volume launch, which visits only these points.  They hold
          every nonzero byte of [nbrs] in the live planes, and on the
          built-in shapes every interval is exactly one run of nonzero
          bytes *)
}

type plan = {
  room : Geometry.room;
  n_branches : int;
  shards : shard array;
}

val plan : ?n_branches:int -> ?halo:int -> shards:int -> Geometry.room -> plan
(** [halo] (default 1) is the ghost depth per side — the temporal block
    depth T — clamped to the thinnest slab's owned plane count.  A plan
    of one slab ([shards] ≤ 1) has no ghost planes
    and no exchanges: its shard is the room itself ([halo] 0, [planes] =
    nz, [base] 0), whose extreme planes are the room's zero shell, and it
    shares the room's [nbrs_u8], [boundary_indices] and [material]. *)

val n_shards : plan -> int

val owner : plan -> z:int -> shard
(** The shard owning global plane [z].
    @raise Invalid_argument outside the grid. *)

(** {2 Shard-local simulation state} *)

type shard_state = {
  prev : float array;
  curr : float array;
  next : float array;
  g1 : float array;
  vel_prev : float array;  (** v2 *)
  vel_next : float array;  (** v1 *)
}
(** One shard's grids and branch state.  The driver binds them into its
    device tables once and rotates the bindings with [Swap] ops, so it
    reads a shard's current arrays from those tables.  On one device it
    binds the {!State.t}'s own arrays instead. *)

val create_states : plan -> shard_state array

val scatter : plan -> State.t -> shard_state array -> unit
(** Distribute the global state to the shards (owned + ghost planes;
    branch state by contiguous per-branch slices). *)

val gather : plan -> shard_state array -> State.t -> unit
(** Re-assemble the global state from the shards' owned planes and owned
    boundary-state slices. *)

val scatter_slab : shard -> src:float array -> dst:float array -> unit
val gather_slab : shard -> src:float array -> dst:float array -> unit

(** {2 Interior/frontier decomposition} *)

type range_kind =
  | Interior  (** owned planes whose stencils touch no exchanged ghost *)
  | Frontier_lo  (** planes whose stencils read the bottom ghost zone *)
  | Frontier_hi  (** planes whose stencils read the top ghost zone *)
  | Frontier_both  (** planes reading both ghost zones (thin shard) *)

val live_planes : plan -> shard -> int * int
(** [(first, count)]: the shard's local planes that can hold a room
    point, the hull of an unsplit volume launch — its planes 1 ..
    planes−2 (the two extreme planes are ghosts, or on one slab the
    room's shell) clipped to the room's planes 1 .. nz−2, outside which
    {!Geometry.inside} admits no point.  One slab: the room minus its
    two shell planes; a T = 1 shard: its owned planes minus the room's
    shell; a T ≥ 2 shard: also the inner ghost planes its block
    recomputes.  [count] is 0 when the shard owns shell planes only (nz
    = 3 on 3 shards).  The launch visits only the shard's [spans] in
    these planes. *)

val launch_spans : shard -> goff:int -> count:int -> Vgpu.Spans.t
(** The spans of a ranged volume launch over the shard's local elements
    [[goff, goff + count)]: the shard's [spans] clipped to that range
    and re-based to the launch's work items (local index − [goff]); the
    unsplit launch over the {!live_planes} takes [spans] itself.  Empty
    when the range holds no room point, as an emptied frontier does. *)

val split_ranges : shard -> (range_kind * int * int) list
(** Cut the shard's flat local index range into the launches of the
    overlapped schedule: [(kind, offset, count)] in elements, interior
    range (when the shard owns ≥ 3 planes) first.  Frontier ranges are
    [halo] planes deep — exactly the writes whose stencils read data the
    previous block's exchange delivered.  The two extreme ghost planes
    are in no range — their [nbrs] are zero, the volume kernels write
    nothing (hand) or only zeros (Lift) there, and the exchange or the
    scattered zeros supply those cells, so the split is bit-identical to
    a launch over every plane.  The ranges are the launches' hulls and
    are not clipped to {!live_planes}; each launch visits only
    {!launch_spans} of its range, which hold no shell-plane point. *)

val exchange_ops : ?depth:int -> plan -> buffer:string -> Vgpu.Multi.plan
(** The halo exchange over [buffer]: across each interior cut, the lower
    shard's top [depth] owned planes refresh the upper shard's ghost
    planes nearest the cut and vice versa.  [depth] defaults to the full
    halo; a shallower depth leaves the farther ghost planes stale (used
    for the [curr] buffer at a block boundary, which only needs depth
    T-1 validity). *)

val state_exchange_ops : plan -> buffer:string -> Vgpu.Multi.plan
(** Refresh the ghost (non-owned) slices of a branch-major
    boundary-state buffer from their owning neighbour across each
    interior cut — per branch, contiguous prefix/suffix copies.  Empty
    at halo = 1. *)
