(** Room geometries and their boundary data structures.

    A room is an Nx*Ny*Nz voxel grid (dimensions include the zero halo,
    as in the paper's Table II).  [nbrs] stores the inside-neighbour
    count of every voxel — 6 strictly inside, 1..5 at the boundary, 0
    outside; complex shapes additionally need the explicit
    [boundary_indices] and per-boundary-point [material] arrays (paper
    §II-B..II-D).

    Shapes: the paper's box and dome (the upper half of an ellipsoid
    filling the grid, standing on the floor), plus an L-shaped room with
    a re-entrant corner. *)

type shape =
  | Box
  | Dome
  | L_shape  (** a box with one quadrant removed: a re-entrant corner *)

type dims = { nx : int; ny : int; nz : int }

val dims : nx:int -> ny:int -> nz:int -> dims
(** @raise Invalid_argument below 3 voxels per dimension. *)

val n_points : dims -> int

val paper_sizes : dims list
(** The paper's three room sizes (Table II), largest first. *)

val size_label : dims -> string

val inside : shape -> dims -> int -> int -> int -> bool
(** Is voxel (x, y, z) inside the room?  Along every row (y, z) the
    voxels it accepts form one interval, which holds the centre voxel
    (nx-1)/2 when it is not empty: the walker behind {!stats} and
    {!build} visits each row as that span. *)

val row_spans : shape -> dims -> z0:int -> z1:int -> (int -> int -> unit) -> unit
(** [row_spans shape d ~z0 ~z1 f] calls [f i n] for every row of planes
    [z0 .. z1-1] that {!inside} accepts on [n] > 0 voxels, from linear
    index [i], in ascending [i]: each row's one interval, as the walker
    computes it, without testing a voxel.  Every voxel with a nonzero
    neighbour count lies in one of them. *)

(** Aggregate geometry statistics, computable at the paper's full sizes
    (up to 73M voxels) without materialising arrays: the walker hands
    out each row as a few constant-count segments, which [stats]
    counts. *)
type stats = {
  s_points : int;       (** total voxels including the halo *)
  s_inside : int;       (** voxels with nbr > 0 *)
  s_boundary : int;     (** voxels with 0 < nbr < 6 *)
  s_contiguity : float;
      (** fraction of consecutive boundary indices that are adjacent;
          drives the performance model's coalescing estimate *)
}

val stats : shape -> dims -> stats

type room = {
  shape : shape;
  dims : dims;
  nbrs : int array;  (** [nbrs_u8] as ints, derived from it in one pass *)
  nbrs_u8 : Bytes.t;
      (** [nbrs] one byte per voxel: the grid the walker writes, which
          the device binds as its [Cast.U8] [nbrs] *)
  boundary_indices : int array;  (** ascending *)
  material : int array;          (** per boundary point *)
  n_inside : int;
}

val material_of_voxel : n_materials:int -> nz:int -> int -> int
(** Deterministic material assignment: horizontal bands, floor first. *)

val build : ?n_materials:int -> shape -> dims -> room
(** Materialise the geometry arrays (for simulation-sized rooms).  The
    grids come from {!Vgpu.Buffer}'s large-array allocator.  The walker
    fills the byte grid one constant-count segment of a row at a time
    (every shape's row is one interval of inside voxels), and the int
    grid is written once from it ({!Vgpu.Buffer.ints_of_bytes}). *)

val n_boundary : room -> int
val shape_label : shape -> string
