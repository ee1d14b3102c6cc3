(* Mutable simulation state: the three grid time levels plus, for
   frequency-dependent boundaries, the per-boundary-point branch state.

   Grids rotate each step (prev <- curr <- next) without copying, exactly
   as the paper's host code reuses buffers across kernel launches. *)

type t = {
  room : Geometry.room;
  n_branches : int;
  mutable prev : float array;  (* u at t-1 *)
  mutable curr : float array;  (* u at t   *)
  mutable next : float array;  (* u at t+1, written by the kernels *)
  (* FD-MM branch state, length n_branches * n_boundary, branch-major
     (ci = b * numBoundaryPoints + i) as in the paper's Listing 4. *)
  mutable g1 : float array;
  mutable vel_prev : float array;  (* v2: branch velocity at the previous step *)
  mutable vel_next : float array;  (* v1: branch velocity at the new step *)
}

let create ?(n_branches = 0) room =
  let n = Geometry.n_points room.Geometry.dims in
  let nb = Geometry.n_boundary room in
  let bstate () = Array.make (max 1 (n_branches * nb)) 0. in
  {
    room;
    n_branches;
    prev = Array.make n 0.;
    curr = Array.make n 0.;
    next = Array.make n 0.;
    g1 = bstate ();
    vel_prev = bstate ();
    vel_next = bstate ();
  }

(* Rotate after a completed time step: the freshly written [next] becomes
   [curr]; the old [prev] array is recycled as the new [next]. *)
let rotate t =
  let old_prev = t.prev in
  t.prev <- t.curr;
  t.curr <- t.next;
  t.next <- old_prev;
  let old_vel = t.vel_prev in
  t.vel_prev <- t.vel_next;
  t.vel_next <- old_vel

let idx_of t ~x ~y ~z =
  let { Geometry.nx; ny; nz } = t.room.Geometry.dims in
  if x < 0 || x >= nx || y < 0 || y >= ny || z < 0 || z >= nz then
    invalid_arg
      (Printf.sprintf "State: point (%d,%d,%d) is outside the %dx%dx%d grid" x y z nx ny nz);
  (z * nx * ny) + (y * nx) + x

(* Inject a Kronecker impulse into the current time level. *)
let add_impulse ?(amplitude = 1.0) t ~x ~y ~z =
  let idx = idx_of t ~x ~y ~z in
  if t.room.Geometry.nbrs.(idx) = 0 then invalid_arg "State.add_impulse: point outside room";
  t.curr.(idx) <- t.curr.(idx) +. amplitude

let read t ~x ~y ~z = t.curr.(idx_of t ~x ~y ~z)

(* Centre of the room: a convenient default source/receiver position. *)
let centre t =
  let { Geometry.nx; ny; nz } = t.room.Geometry.dims in
  (nx / 2, ny / 2, nz / 2)
