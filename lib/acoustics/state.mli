(** Mutable simulation state: the three grid time levels plus, for
    frequency-dependent boundaries, the per-boundary-point branch state.
    Grids rotate each step without copying, as the paper's host code
    reuses buffers across kernel launches. *)

type t = {
  room : Geometry.room;
  n_branches : int;
  mutable prev : float array;  (** u at t-1 *)
  mutable curr : float array;  (** u at t *)
  mutable next : float array;  (** u at t+1, written by the kernels *)
  mutable g1 : float array;
      (** FD branch displacement, branch-major: ci = b*nB + i *)
  mutable vel_prev : float array;  (** v2: branch velocity, previous step *)
  mutable vel_next : float array;  (** v1: branch velocity, new step *)
}

val create : ?n_branches:int -> Geometry.room -> t

val rotate : t -> unit
(** After a completed step: next becomes curr, curr becomes prev, and
    the branch velocities advance. *)

val idx_of : t -> x:int -> y:int -> z:int -> int
(** The linear index of grid point (x, y, z).
    @raise Invalid_argument naming the point and the grid when a
    coordinate lies outside it. *)

val add_impulse : ?amplitude:float -> t -> x:int -> y:int -> z:int -> unit
(** @raise Invalid_argument outside the grid (see {!idx_of}) or at a
    grid point outside the room. *)

val read : t -> x:int -> y:int -> z:int -> float
(** @raise Invalid_argument outside the grid (see {!idx_of}). *)

val centre : t -> int * int * int
