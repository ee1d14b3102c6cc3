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
(** Is voxel (x, y, z) inside the room? *)

(** Aggregate geometry statistics, computable at the paper's full sizes
    (up to 73M voxels) without materialising arrays. *)
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
  nbrs : int array;
  boundary_indices : int array;  (** ascending *)
  material : int array;          (** per boundary point *)
  n_inside : int;
}

val material_of_voxel : n_materials:int -> nz:int -> int -> int
(** Deterministic material assignment: horizontal bands, floor first. *)

val build : ?n_materials:int -> shape -> dims -> room
(** Materialise the geometry arrays (for simulation-sized rooms). *)

val n_boundary : room -> int
val shape_label : shape -> string
