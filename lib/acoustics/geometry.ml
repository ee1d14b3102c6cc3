(* Room geometries and their boundary data structures.

   A room is discretised into an Nx*Ny*Nz voxel grid (dimensions include
   the zero halo, as in the paper's Table II).  For every voxel the
   [nbrs] array stores how many of its six face neighbours lie inside the
   room — 6 strictly inside, 1..5 at the boundary, 0 outside (never
   updated).  Complex shapes additionally need the explicit
   [boundary_indices] array listing the linear indices of boundary voxels
   and a per-boundary-point [material] index (paper §II-B..II-D).

   Three shapes are provided:
   - [Box]: the full cuboid interior (the paper's box);
   - [Dome]: the upper half of an ellipsoid whose semi-axes fill the
     grid ((Nx-2)/2, (Ny-2)/2, Nz-2) standing on the floor plane — the
     paper's non-cuboid room, with boundary-point counts in the same
     regime as Table II;
   - [L_shape]: a box with one quadrant removed — a re-entrant corner,
     the canonical case where the implicit Boolean boundary formulas of
     Listing 1 break down.

   Geometry at the paper's full sizes (up to 73M voxels) is needed only
   in aggregate by the performance model, so [stats] streams over the
   grid plane by plane instead of materialising arrays; [build]
   materialises everything for simulation-sized rooms.  Both share one
   plane walker ([walk]). *)

type shape =
  | Box
  | Dome
  | L_shape

type dims = { nx : int; ny : int; nz : int }

let dims ~nx ~ny ~nz =
  if nx < 3 || ny < 3 || nz < 3 then
    invalid_arg "Geometry.dims: every axis needs at least 3 voxels";
  { nx; ny; nz }

let n_points { nx; ny; nz } = nx * ny * nz

(* The paper's three room sizes (Table II), largest first. *)
let paper_sizes =
  [ dims ~nx:602 ~ny:402 ~nz:302; dims ~nx:336 ~ny:336 ~nz:336; dims ~nx:302 ~ny:202 ~nz:152 ]

let size_label d = string_of_int d.nx

(* [inside_row shape d y z] is the insideness test of row (y, z) as a
   function of x, with what depends only on y and z computed once: the
   plane walker tests a whole row through one such closure. *)
let inside_row shape { nx; ny; nz } y z =
  if y < 1 || y > ny - 2 || z < 1 || z > nz - 2 then fun _ -> false
  else
    match shape with
    | Box -> fun x -> x >= 1 && x <= nx - 2
    | L_shape ->
        (* a box with the far x/y quadrant removed at every height: the
           simplest room with a re-entrant corner, where the implicit
           Boolean-formula boundary of Listing 1 breaks down and the
           explicit nbrs/boundaryIndices data structures are required *)
        let far_y = y > ny / 2 in
        fun x -> x >= 1 && x <= nx - 2 && not (far_y && x > nx / 2)
    | Dome ->
        let ax = float_of_int (nx - 2) /. 2. in
        let ay = float_of_int (ny - 2) /. 2. in
        let az = float_of_int (nz - 2) in
        let cx = float_of_int (nx - 1) /. 2. in
        let cy = float_of_int (ny - 1) /. 2. in
        let dy = (float_of_int y -. cy) /. ay in
        let dz = float_of_int (z - 1) /. az in
        let dy2 = dy *. dy and dz2 = dz *. dz in
        fun x ->
          x >= 1 && x <= nx - 2
          &&
          let dx = (float_of_int x -. cx) /. ax in
          (dx *. dx) +. dy2 +. dz2 <= 1.

let inside shape d x y z = inside_row shape d y z x

(* The plane walker behind [stats] and [build]: [walk shape d f] calls
   [f z counts] for z = 0 .. nz-1 in order, with [counts] holding plane
   z's inside-neighbour counts in row-major order (0 for outside voxels)
   and reused from plane to plane.  Three rolling insideness planes carry
   a zero border one voxel wide, so each voxel is tested once (through
   its row's [inside_row]) and no neighbour read needs a bounds test. *)
let walk shape d f =
  let { nx; ny; nz } = d in
  let w = nx + 2 in
  let padded = w * (ny + 2) in
  (* only the interior of an in-grid plane is written: the border stays zero *)
  let fill p z =
    if z < 0 || z >= nz then Bytes.fill p 0 padded '\000'
    else
      for y = 0 to ny - 1 do
        let row = ((y + 1) * w) + 1 and inside = inside_row shape d y z in
        for x = 0 to nx - 1 do
          Bytes.unsafe_set p (row + x) (if inside x then '\001' else '\000')
        done
      done
  in
  let plane z = let p = Bytes.make padded '\000' in fill p z; p in
  let at p i = Char.code (Bytes.unsafe_get p i) in
  let counts = Bytes.create (nx * ny) in
  let rec go z b c a =
    if z < nz then begin
      for y = 0 to ny - 1 do
        let row = ((y + 1) * w) + 1 and out = y * nx in
        for x = 0 to nx - 1 do
          let i = row + x in
          let n =
            if at c i = 0 then 0
            else at c (i - 1) + at c (i + 1) + at c (i - w) + at c (i + w) + at b i + at a i
          in
          Bytes.unsafe_set counts (out + x) (Char.unsafe_chr n)
        done
      done;
      f z counts;
      (* the plane below z is done with: it becomes plane z+2 *)
      fill b (z + 2);
      go (z + 1) c a b
    end
  in
  go 0 (plane (-1)) (plane 0) (plane 1)

type stats = {
  s_points : int;       (* total voxels incl. halo *)
  s_inside : int;       (* voxels with nbr > 0 (updated by the volume kernel) *)
  s_boundary : int;     (* voxels with 0 < nbr < 6 *)
  s_contiguity : float; (* fraction of consecutive boundary indices that are adjacent *)
}

let stats shape d =
  let plane = d.nx * d.ny in
  let inside_n = ref 0 and boundary = ref 0 and contiguous = ref 0 in
  let last_b = ref min_int in
  walk shape d (fun z counts ->
      let base = z * plane in
      for i = 0 to plane - 1 do
        let nbr = Char.code (Bytes.unsafe_get counts i) in
        if nbr > 0 then begin
          incr inside_n;
          if nbr < 6 then begin
            incr boundary;
            if base + i = !last_b + 1 then incr contiguous;
            last_b := base + i
          end
        end
      done);
  let s_contiguity =
    if !boundary <= 1 then 1.
    else float_of_int !contiguous /. float_of_int (!boundary - 1)
  in
  { s_points = n_points d; s_inside = !inside_n; s_boundary = !boundary; s_contiguity }

type room = {
  shape : shape;
  dims : dims;
  nbrs : int array;              (* per voxel, length nx*ny*nz *)
  boundary_indices : int array;  (* linear indices of boundary voxels, ascending *)
  material : int array;          (* per boundary point, same length *)
  n_inside : int;
}

(* Deterministic material assignment: horizontal bands, floor first.
   With [n_materials = 1] every boundary point uses material 0. *)
let material_of_voxel ~n_materials ~nz z =
  if n_materials <= 1 then 0
  else begin
    let band = z * n_materials / nz in
    if band < 0 then 0 else if band >= n_materials then n_materials - 1 else band
  end

let build ?(n_materials = 1) shape d =
  let plane = d.nx * d.ny in
  let nbrs = Array.make (n_points d) 0 and n_inside = ref 0 in
  (* each plane's boundary indices, gathered in [row] and kept with that
     plane's material band; newest plane first *)
  let row = Array.make plane 0 and chunks = ref [] and bands = ref [] in
  walk shape d (fun z counts ->
      let base = z * plane and k = ref 0 in
      for i = 0 to plane - 1 do
        let nbr = Char.code (Bytes.unsafe_get counts i) in
        if nbr > 0 then begin
          nbrs.(base + i) <- nbr;
          incr n_inside;
          if nbr < 6 then begin
            row.(!k) <- base + i;
            incr k
          end
        end
      done;
      chunks := Array.sub row 0 !k :: !chunks;
      bands := Array.make !k (material_of_voxel ~n_materials ~nz:d.nz z) :: !bands);
  { shape; dims = d; nbrs;
    boundary_indices = Array.concat (List.rev !chunks);
    material = Array.concat (List.rev !bands);
    n_inside = !n_inside }

let n_boundary room = Array.length room.boundary_indices

let shape_label = function Box -> "box" | Dome -> "dome" | L_shape -> "l-shape"
