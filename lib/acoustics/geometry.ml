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
   in aggregate by the performance model, so [stats] counts the walker's
   row segments instead of materialising arrays; [build] materialises
   everything for simulation-sized rooms, the [nbrs] counts as the bytes
   the device binds and, copied from them in one pass, as ints.  Both
   share one row-span walker ([walk]). *)

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

(* The dome's row constants in [k]: the centre and semi-axis along x,
   then the (y, z) terms of row (y, z), so that [dome_in k x] is the
   dome test of voxel x of that row.  A float array keeps the floats
   unboxed: the walker tests rows without allocating. *)
let dome_row { nx; ny; nz } y z (k : float array) =
  let ay = float_of_int (ny - 2) /. 2. and az = float_of_int (nz - 2) in
  let cy = float_of_int (ny - 1) /. 2. in
  let dy = (float_of_int y -. cy) /. ay and dz = float_of_int (z - 1) /. az in
  k.(0) <- float_of_int (nx - 1) /. 2.;
  k.(1) <- float_of_int (nx - 2) /. 2.;
  k.(2) <- dy *. dy;
  k.(3) <- dz *. dz

let dome_in (k : float array) x =
  let dx = (float_of_int x -. k.(0)) /. k.(1) in
  (dx *. dx) +. k.(2) +. k.(3) <= 1.

let inside shape ({ nx; ny; nz } as d) x y z =
  x >= 1 && x <= nx - 2 && y >= 1 && y <= ny - 2 && z >= 1 && z <= nz - 2
  &&
  match shape with
  | Box -> true
  | L_shape ->
      (* a box with the far x/y quadrant removed at every height: the
         simplest room with a re-entrant corner, where the implicit
         Boolean-formula boundary of Listing 1 breaks down and the
         explicit nbrs/boundaryIndices data structures are required *)
      not (y > ny / 2 && x > nx / 2)
  | Dome ->
      let k = Array.make 4 0. in
      dome_row d y z k;
      dome_in k x

(* Row spans.  Every shape's row (y, z) is inside the room on one
   interval of x, [lo, hi] (empty when lo > hi).  [plane_spans] writes
   plane z's spans to [lo.(at + y + 1)], [hi.(at + y + 1)] for
   y = 0 .. ny-1; a plane outside the grid is all empty.  The dome's
   test grows with |x - cx|, so its row is an interval about the centre
   voxel c = (nx-1)/2, empty unless c is inside: each end starts at the
   ellipse's estimate and moves with the row's own test until it is the
   last inside voxel, so the voxel set is exactly [inside]'s. *)
let plane_spans shape ({ nx; ny; nz } as d) z k lo hi at =
  for y = 0 to ny - 1 do
    let j = at + y + 1 in
    lo.(j) <- 1;
    hi.(j) <- 0;
    if y >= 1 && y <= ny - 2 && z >= 1 && z <= nz - 2 then
      match shape with
      | Box -> hi.(j) <- nx - 2
      | L_shape -> hi.(j) <- (if y > ny / 2 then min (nx / 2) (nx - 2) else nx - 2)
      | Dome ->
          dome_row d y z k;
          let c = (nx - 1) / 2 in
          if dome_in k c then begin
            let q = 1. -. k.(2) -. k.(3) in
            let r = if q > 0. then k.(1) *. sqrt q else 0. in
            let b = ref (max c (min (nx - 2) (int_of_float (k.(0) +. r)))) in
            while !b < nx - 2 && dome_in k (!b + 1) do incr b done;
            while not (dome_in k !b) do decr b done;
            let a = ref (min c (nx - 1 - !b)) in
            while !a > 1 && dome_in k (!a - 1) do decr a done;
            while not (dome_in k !a) do incr a done;
            lo.(j) <- !a;
            hi.(j) <- !b
          end
  done

(* The row intervals of planes [z0, z1): [f i n] for each row inside
   the room on [n] > 0 voxels from linear index [i], ascending in [i].
   These are [plane_spans]' intervals, so nothing is tested per voxel. *)
let row_spans shape ({ nx; ny; _ } as d) ~z0 ~z1 f =
  let lo = Array.make (ny + 1) 1 and hi = Array.make (ny + 1) 0 and k = Array.make 4 0. in
  for z = z0 to z1 - 1 do
    plane_spans shape d z k lo hi 0;
    for y = 0 to ny - 1 do
      let a = lo.(y + 1) and b = hi.(y + 1) in
      if a <= b then f ((((z * ny) + y) * nx) + a) (b - a + 1)
    done
  done

(* One row's neighbour counts over its span [a, b]: the count at x is
   how many of the six intervals in [iv] (lo at even, hi at odd
   positions) hold x, so it is constant between the points where one of
   them starts or ends.  Calls [f i n c] for each such segment of [n]
   voxels from linear index [i] = [base + x] whose count [c] is not
   zero. *)
let row_segments iv a b base f =
  let x = ref a in
  while !x <= b do
    let c = ref 0 and next = ref (b + 1) in
    for j = 0 to 5 do
      let l = iv.(2 * j) and h = iv.((2 * j) + 1) in
      if !x < l then (if l < !next then next := l)
      else if !x <= h then begin
        incr c;
        if h < !next - 1 then next := h + 1
      end
    done;
    if !c > 0 then f (base + !x) (!next - !x) !c;
    x := !next
  done

(* The walker behind [stats] and [build]: [walk shape d f] calls
   [f i n c] for every segment of [n] voxels of one row, from linear
   index [i], whose inside-neighbour count is [c] > 0, in ascending [i];
   every voxel not covered counts 0.  It keeps the row spans of three
   planes (z-1, z, z+1) in rotating slots, each with an empty row on
   either side, so a row's six neighbour intervals are its own span
   shifted by one voxel each way and the spans of the four rows beside
   it.  Nothing is allocated per row or per plane. *)
let walk shape d f =
  let { nx; ny; nz } = d in
  let w = ny + 2 in
  let lo = Array.make (3 * w) 1 and hi = Array.make (3 * w) 0 in
  let k = Array.make 4 0. and iv = Array.make 12 0 in
  let slot z = ((z + 3) mod 3) * w in
  plane_spans shape d 0 k lo hi (slot 0);
  plane_spans shape d 1 k lo hi (slot 1);
  for z = 0 to nz - 1 do
    let sb = slot (z - 1) and sc = slot z and sa = slot (z + 1) in
    for y = 0 to ny - 1 do
      let a = lo.(sc + y + 1) and b = hi.(sc + y + 1) in
      if a <= b then begin
        iv.(0) <- a + 1;
        iv.(1) <- b + 1;
        iv.(2) <- a - 1;
        iv.(3) <- b - 1;
        iv.(4) <- lo.(sc + y);
        iv.(5) <- hi.(sc + y);
        iv.(6) <- lo.(sc + y + 2);
        iv.(7) <- hi.(sc + y + 2);
        iv.(8) <- lo.(sb + y + 1);
        iv.(9) <- hi.(sb + y + 1);
        iv.(10) <- lo.(sa + y + 1);
        iv.(11) <- hi.(sa + y + 1);
        row_segments iv a b (((z * ny) + y) * nx) f
      end
    done;
    (* plane z-1 is done with: its slot takes plane z+2 *)
    plane_spans shape d (z + 2) k lo hi sb
  done

type stats = {
  s_points : int;       (* total voxels incl. halo *)
  s_inside : int;       (* voxels with nbr > 0 (updated by the volume kernel) *)
  s_boundary : int;     (* voxels with 0 < nbr < 6 *)
  s_contiguity : float; (* fraction of consecutive boundary indices that are adjacent *)
}

let stats shape d =
  let inside_n = ref 0 and boundary = ref 0 and contiguous = ref 0 in
  let last_b = ref min_int in
  walk shape d (fun i n nbr ->
      inside_n := !inside_n + n;
      if nbr < 6 then begin
        boundary := !boundary + n;
        contiguous := !contiguous + n - 1 + (if i = !last_b + 1 then 1 else 0);
        last_b := i + n - 1
      end);
  let s_contiguity =
    if !boundary <= 1 then 1.
    else float_of_int !contiguous /. float_of_int (!boundary - 1)
  in
  { s_points = n_points d; s_inside = !inside_n; s_boundary = !boundary; s_contiguity }

type room = {
  shape : shape;
  dims : dims;
  nbrs : int array;              (* per voxel, length nx*ny*nz *)
  nbrs_u8 : Bytes.t;             (* the same counts, one byte each: the walker's grid *)
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
  let n = n_points d in
  let nbrs_u8 = Vgpu.Buffer.zeros_bytes n in
  let n_inside = ref 0 and n_b = ref 0 in
  (* boundary indices in walk order (ascending), grown by doubling from
     the box's surface *)
  let bidx = ref (Array.make (2 * ((d.nx * d.ny) + (d.ny * d.nz) + (d.nx * d.nz))) 0) in
  walk shape d (fun i len nbr ->
      Bytes.unsafe_fill nbrs_u8 i len (Char.unsafe_chr nbr);
      n_inside := !n_inside + len;
      if nbr < 6 then begin
        if !n_b + len > Array.length !bidx then begin
          let grown = Array.make (2 * (!n_b + len)) 0 in
          Array.blit !bidx 0 grown 0 !n_b;
          bidx := grown
        end;
        let b = !bidx in
        for j = 0 to len - 1 do
          Array.unsafe_set b (!n_b + j) (i + j)
        done;
        n_b := !n_b + len
      end);
  let boundary_indices = Array.sub !bidx 0 !n_b in
  let plane = d.nx * d.ny in
  { shape; dims = d; nbrs = Vgpu.Buffer.ints_of_bytes nbrs_u8; nbrs_u8; boundary_indices;
    material = Array.map (fun i -> material_of_voxel ~n_materials ~nz:d.nz (i / plane)) boundary_indices;
    n_inside = !n_inside }

let n_boundary room = Array.length room.boundary_indices

let shape_label = function Box -> "box" | Dome -> "dome" | L_shape -> "l-shape"
