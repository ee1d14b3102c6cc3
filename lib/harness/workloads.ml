(* Performance-model workloads for the paper's rooms.

   Geometry statistics at the paper's full sizes (up to 73M voxels) are
   streamed plane by plane ([Geometry.stats]) and cached; they provide the
   active point counts and the boundary contiguity that parameterise the
   roofline model. *)

open Acoustics

let n_materials = Array.length Material.defaults

let stats_cache : (Geometry.shape * Geometry.dims, Geometry.stats) Hashtbl.t =
  Hashtbl.create 8

let stats shape dims =
  match Hashtbl.find_opt stats_cache (shape, dims) with
  | Some s -> s
  | None ->
      let s = Geometry.stats shape dims in
      Hashtbl.replace stats_cache (shape, dims) s;
      s

type kind =
  | Volume           (* stencil over the grid *)
  | Fused            (* stencil + naive boundary in one kernel *)
  | Boundary of int  (* boundary handling with [mb] ODE branches (0 = FI) *)

let buffer_elems ~(dims : Geometry.dims) ~n_boundary ~mb =
  let n = Geometry.n_points dims in
  [
    ("prev", n);
    ("curr", n);
    ("next", n);
    ("nbrs", n);
    ("out", n);
    ("bidx", n_boundary);
    ("material", n_boundary);
    ("beta", n_materials);
    ("beta_fd", n_materials);
    ("bi", n_materials * max 1 mb);
    ("d", n_materials * max 1 mb);
    ("f", n_materials * max 1 mb);
    ("di", n_materials * max 1 mb);
    ("g1", max 1 mb * n_boundary);
    ("v2", max 1 mb * n_boundary);
    ("v1", max 1 mb * n_boundary);
  ]

(* Build the perf-model workload for one kernel kind on one room. *)
let workload (kind : kind) shape (dims : Geometry.dims) : Vgpu.Perf_model.workload =
  let s = stats shape dims in
  let mb = match kind with Boundary mb -> mb | _ -> 0 in
  let buffer_elems = buffer_elems ~dims ~n_boundary:s.Geometry.s_boundary ~mb in
  let active_points, contiguity =
    match kind with
    | Volume | Fused -> (float_of_int s.Geometry.s_inside, 1.0)
    | Boundary _ -> (float_of_int s.Geometry.s_boundary, s.Geometry.s_contiguity)
  in
  Vgpu.Perf_model.workload ~buffer_elems ~contiguity ~active_points ()

(* The throughput metric of the paper (§VI): updates per second.  For
   full-grid kernels an update is a grid point; for boundary kernels it
   is a boundary point. *)
let updates (kind : kind) shape dims =
  let s = stats shape dims in
  match kind with
  | Volume | Fused -> float_of_int s.Geometry.s_inside
  | Boundary _ -> float_of_int s.Geometry.s_boundary
