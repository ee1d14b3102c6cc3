(* Geometry: property tests against brute-force recomputation, plus
   material-band assignment and the paper-size statistics regime. *)

open Acoustics

(* The brute-force oracle: every output of [build], recomputed straight
   from the inside predicate, voxel by voxel, with each neighbour looked
   up by coordinates (outside the grid counts as outside the room). *)
type oracle = {
  o_nbrs : int array;
  o_boundary : int array;  (* ascending *)
  o_material : int array;
  o_inside : int;
}

let brute ~n_materials shape (dims : Geometry.dims) =
  let { Geometry.nx; ny; nz } = dims in
  let inside x y z = Geometry.inside shape dims x y z in
  let nbrs = Array.make (nx * ny * nz) 0 in
  let boundary = ref [] and material = ref [] and n_inside = ref 0 in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let idx = (z * nx * ny) + (y * nx) + x in
        if inside x y z then begin
          let n =
            List.length
              (List.filter Fun.id
                 [ inside (x - 1) y z; inside (x + 1) y z; inside x (y - 1) z;
                   inside x (y + 1) z; inside x y (z - 1); inside x y (z + 1) ])
          in
          nbrs.(idx) <- n;
          if n > 0 then incr n_inside;
          if n > 0 && n < 6 then begin
            boundary := idx :: !boundary;
            material := Geometry.material_of_voxel ~n_materials ~nz z :: !material
          end
        end
      done
    done
  done;
  { o_nbrs = nbrs;
    o_boundary = Array.of_list (List.rev !boundary);
    o_material = Array.of_list (List.rev !material);
    o_inside = !n_inside }

(* Room dims, each axis 3 voxels (one interior plane) about a third of
   the time; the print names the shape, the dims and the material count. *)
let arb_room ~max =
  let open QCheck in
  let axis = Gen.(frequency [ (1, return 3); (2, int_range 4 max) ]) in
  let gen =
    Gen.(
      triple axis axis axis >>= fun (nx, ny, nz) ->
      pair (oneofl [ Geometry.Box; Geometry.Dome; Geometry.L_shape ]) (oneofl [ 1; 4 ])
      >|= fun (shape, m) -> (shape, m, nx, ny, nz))
  in
  make
    ~print:(fun (s, m, x, y, z) ->
      Printf.sprintf "%s %dx%dx%d, %d material(s)" (Geometry.shape_label s) x y z m)
    gen

let qcheck_build_matches_bruteforce =
  QCheck.Test.make ~name:"build matches brute force" ~count:80 (arb_room ~max:14)
    (fun (shape, n_materials, nx, ny, nz) ->
      let dims = Geometry.dims ~nx ~ny ~nz in
      let room = Geometry.build ~n_materials shape dims in
      let o = brute ~n_materials shape dims in
      room.Geometry.nbrs = o.o_nbrs
      && room.Geometry.boundary_indices = o.o_boundary
      && room.Geometry.material = o.o_material
      && room.Geometry.n_inside = o.o_inside)

(* Fraction of consecutive boundary indices that are adjacent in linear
   index, straight from [build]'s array: across row and plane ends too. *)
let contiguity b =
  let n = Array.length b in
  if n <= 1 then 1.
  else begin
    let adjacent = ref 0 in
    for i = 1 to n - 1 do
      if b.(i) = b.(i - 1) + 1 then incr adjacent
    done;
    float_of_int !adjacent /. float_of_int (n - 1)
  end

let qcheck_stats_match_build =
  QCheck.Test.make ~name:"streaming stats match materialisation" ~count:60 (arb_room ~max:16)
    (fun (shape, _, nx, ny, nz) ->
      let dims = Geometry.dims ~nx ~ny ~nz in
      let room = Geometry.build shape dims in
      let s = Geometry.stats shape dims in
      s.Geometry.s_points = nx * ny * nz
      && s.Geometry.s_inside = room.Geometry.n_inside
      && s.Geometry.s_boundary = Geometry.n_boundary room
      && s.Geometry.s_contiguity = contiguity room.Geometry.boundary_indices)

let test_boundary_properties () =
  let dims = Geometry.dims ~nx:15 ~ny:13 ~nz:11 in
  List.iter
    (fun shape ->
      let room = Geometry.build shape dims in
      let b = room.Geometry.boundary_indices in
      Array.iteri
        (fun i idx ->
          (* strictly ascending, all boundary points have 1..5 neighbours *)
          if i > 0 then assert (idx > b.(i - 1));
          let nbr = room.Geometry.nbrs.(idx) in
          assert (nbr >= 1 && nbr <= 5))
        b;
      (* every interior point not listed has 0 or 6 neighbours *)
      let in_boundary = Hashtbl.create 64 in
      Array.iter (fun idx -> Hashtbl.replace in_boundary idx ()) b;
      Array.iteri
        (fun idx nbr ->
          if not (Hashtbl.mem in_boundary idx) then assert (nbr = 0 || nbr = 6))
        room.Geometry.nbrs)
    [ Geometry.Box; Geometry.Dome ]

let test_l_shape () =
  let dims = Geometry.dims ~nx:17 ~ny:15 ~nz:9 in
  let l = Geometry.build Geometry.L_shape dims in
  let box = Geometry.build Geometry.Box dims in
  Alcotest.(check bool) "smaller than the box" true
    (l.Geometry.n_inside < box.Geometry.n_inside);
  (* the re-entrant corner creates boundary points strictly inside the
     bounding box: some boundary voxel is interior in the plain box *)
  let has_reentrant =
    Array.exists (fun idx -> box.Geometry.nbrs.(idx) = 6) l.Geometry.boundary_indices
  in
  Alcotest.(check bool) "re-entrant boundary exists" true has_reentrant

let test_dome_inside_box () =
  let dims = Geometry.dims ~nx:21 ~ny:17 ~nz:11 in
  let box = Geometry.build Geometry.Box dims in
  let dome = Geometry.build Geometry.Dome dims in
  Alcotest.(check bool) "dome smaller than box" true
    (dome.Geometry.n_inside < box.Geometry.n_inside);
  Array.iteri
    (fun idx nbr -> if nbr > 0 then assert (box.Geometry.nbrs.(idx) > 0))
    dome.Geometry.nbrs

let test_material_bands () =
  let dims = Geometry.dims ~nx:12 ~ny:12 ~nz:20 in
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let mats = room.Geometry.material in
  Array.iter (fun m -> assert (m >= 0 && m < 4)) mats;
  (* all four bands are used on a tall room *)
  let used = Array.make 4 false in
  Array.iter (fun m -> used.(m) <- true) mats;
  Alcotest.(check bool) "all bands used" true (Array.for_all (fun b -> b) used);
  (* single-material rooms assign 0 *)
  let room1 = Geometry.build ~n_materials:1 Geometry.Box dims in
  Array.iter (fun m -> assert (m = 0)) room1.Geometry.material

let test_paper_sizes_regime () =
  (* only the smallest paper size is materialised here (fast); the
     box formula is exact *)
  let dims = Geometry.dims ~nx:302 ~ny:202 ~nz:152 in
  let s = Geometry.stats Geometry.Box dims in
  Alcotest.(check int) "box inside" (300 * 200 * 150) s.Geometry.s_inside;
  Alcotest.(check int) "box boundary" ((300 * 200 * 150) - (298 * 198 * 148)) s.Geometry.s_boundary;
  (* paper Table II reports 272,608 boundary points for this box *)
  let paper = 272_608 in
  let ratio = float_of_int s.Geometry.s_boundary /. float_of_int paper in
  Alcotest.(check bool) "within 5% of Table II" true (ratio > 0.95 && ratio < 1.05);
  let sd = Geometry.stats Geometry.Dome dims in
  let paper_dome = 172_256 in
  let ratio_d = float_of_int sd.Geometry.s_boundary /. float_of_int paper_dome in
  Alcotest.(check bool)
    (Printf.sprintf "dome within 25%% of Table II (%d vs %d)" sd.Geometry.s_boundary paper_dome)
    true
    (ratio_d > 0.75 && ratio_d < 1.25)

let test_degenerate_dims () =
  match Geometry.dims ~nx:2 ~ny:5 ~nz:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted degenerate dims"

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_build_matches_bruteforce;
    QCheck_alcotest.to_alcotest qcheck_stats_match_build;
    Alcotest.test_case "boundary properties" `Quick test_boundary_properties;
    Alcotest.test_case "dome inside box" `Quick test_dome_inside_box;
    Alcotest.test_case "l-shaped room" `Quick test_l_shape;
    Alcotest.test_case "material bands" `Quick test_material_bands;
    Alcotest.test_case "paper sizes regime" `Quick test_paper_sizes_regime;
    Alcotest.test_case "degenerate dims rejected" `Quick test_degenerate_dims;
  ]
