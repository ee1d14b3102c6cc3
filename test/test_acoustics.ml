(* Cross-validation of the three kernel implementations on small rooms:

   1. pure-OCaml references (ports of paper Listings 1-4) against each
      other (fused == two-kernel on a box);
   2. hand-written kernel ASTs (interpreter and native) against references;
   3. Lift-generated kernels against references;
   plus geometry invariants, physical energy behaviour, and the device
   form in which Gpu_sim launches kernels (byte-stored nbrs). *)

open Acoustics

let params = Params.default
let box_dims = Geometry.dims ~nx:14 ~ny:12 ~nz:10
let dome_dims = Geometry.dims ~nx:17 ~ny:15 ~nz:9

let approx_arrays ?(eps = 1e-9) msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Float.abs (x -. b.(i)) > eps *. (1. +. Float.abs x) then
        Alcotest.failf "%s: index %d differs: %.17g vs %.17g" msg i x b.(i))
    a

(* Run [steps] reference steps of the given scheme and return the curr
   grid (and optionally branch state). *)
let run_ref_fi ~steps ~beta room =
  let st = State.create room in
  let cx, cy, cz = State.centre st in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Ref_kernels.step_fi params st ~beta
  done;
  st

let run_gpu ~engine ~steps ~kernels ~fi_beta ?(n_branches = 3) room =
  let sim = Gpu_sim.create ~engine ~fi_beta ~n_branches params room in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Gpu_sim.step sim kernels
  done;
  sim.Gpu_sim.state

let test_fused_equals_two_kernel () =
  let room = Geometry.build Geometry.Box box_dims in
  let beta = 0.3 in
  (* fused *)
  let st1 = State.create room in
  let cx, cy, cz = State.centre st1 in
  State.add_impulse st1 ~x:cx ~y:cy ~z:cz;
  for _ = 1 to 25 do
    Ref_kernels.fused_fi_box params ~dims:box_dims ~beta ~prev:st1.prev ~curr:st1.curr
      ~next:st1.next;
    State.rotate st1
  done;
  (* two-kernel *)
  let st2 = run_ref_fi ~steps:25 ~beta room in
  approx_arrays "fused vs two-kernel" st1.curr st2.curr

let test_hand_kernels_match_reference () =
  List.iter
    (fun (shape, dims) ->
      let room = Geometry.build ~n_materials:4 shape dims in
      let beta = 0.25 in
      let st_ref = run_ref_fi ~steps:20 ~beta room in
      let kernels =
        [ Hand_kernels.volume ~precision:Kernel_ast.Cast.Double;
          Hand_kernels.boundary_fi ~precision:Kernel_ast.Cast.Double ]
      in
      List.iter
        (fun engine ->
          let st = run_gpu ~engine ~steps:20 ~kernels ~fi_beta:beta room in
          approx_arrays
            (Printf.sprintf "hand FI %s" (Geometry.shape_label shape))
            st_ref.curr st.curr)
        [ `Native; `Interp ])
    [ (Geometry.Box, box_dims); (Geometry.Dome, dome_dims) ]

let test_hand_fused_matches_reference () =
  let room = Geometry.build Geometry.Box box_dims in
  let beta = 0.4 in
  (* reference fused *)
  let st1 = State.create room in
  let cx, cy, cz = State.centre st1 in
  State.add_impulse st1 ~x:cx ~y:cy ~z:cz;
  for _ = 1 to 15 do
    Ref_kernels.fused_fi_box params ~dims:box_dims ~beta ~prev:st1.prev ~curr:st1.curr
      ~next:st1.next;
    State.rotate st1
  done;
  let kernels = [ Hand_kernels.fused_fi ~precision:Kernel_ast.Cast.Double ] in
  let st = run_gpu ~engine:`Native ~steps:15 ~kernels ~fi_beta:beta room in
  approx_arrays "hand fused FI" st1.curr st.curr

let materials4 = Material.defaults

let run_ref_fi_mm ~steps room =
  let beta = (Material.tables ~n_branches:3 materials4).Material.t_beta in
  let st = State.create room in
  let cx, cy, cz = State.centre st in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Ref_kernels.step_fi_mm params st ~beta
  done;
  st

let test_fi_mm_hand_and_lift () =
  List.iter
    (fun (shape, dims) ->
      let room = Geometry.build ~n_materials:4 shape dims in
      let st_ref = run_ref_fi_mm ~steps:20 room in
      let betas = (Material.tables ~n_branches:3 materials4).Material.t_beta in
      (* hand-written *)
      let hand =
        [ Hand_kernels.volume ~precision:Kernel_ast.Cast.Double;
          Hand_kernels.boundary_fi_mm ~precision:Kernel_ast.Cast.Double ~betas ]
      in
      let st_h = run_gpu ~engine:`Native ~steps:20 ~kernels:hand ~fi_beta:0.0 room in
      approx_arrays
        (Printf.sprintf "hand FI-MM %s" (Geometry.shape_label shape))
        st_ref.curr st_h.curr;
      (* lift-generated *)
      let lift_kernels =
        [ (Lift_acoustics.Programs.compile ~name:"volume" ~precision:Kernel_ast.Cast.Double
             (Lift_acoustics.Programs.volume ()))
            .Lift.Codegen.kernel;
          (Lift_acoustics.Programs.compile ~name:"boundary_fi_mm"
             ~precision:Kernel_ast.Cast.Double
             (Lift_acoustics.Programs.boundary_fi_mm ()))
            .Lift.Codegen.kernel;
        ]
      in
      List.iter
        (fun engine ->
          let st_l = run_gpu ~engine ~steps:20 ~kernels:lift_kernels ~fi_beta:0.0 room in
          approx_arrays
            (Printf.sprintf "lift FI-MM %s" (Geometry.shape_label shape))
            st_ref.curr st_l.curr)
        [ `Native; `Interp ])
    [ (Geometry.Box, box_dims); (Geometry.Dome, dome_dims); (Geometry.L_shape, box_dims) ]

let run_ref_fd_mm ~steps ~mb room =
  let t = Material.tables ~n_branches:mb materials4 in
  let beta = t.Material.t_beta_fd
  and bi = t.Material.t_bi
  and d = t.Material.t_d
  and f = t.Material.t_f
  and di = t.Material.t_di in
  let st = State.create ~n_branches:mb room in
  let cx, cy, cz = State.centre st in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Ref_kernels.step_fd_mm params st ~beta ~bi ~d ~f ~di
  done;
  st

let test_fd_mm_hand_and_lift () =
  let mb = 3 in
  List.iter
    (fun (shape, dims) ->
      let room = Geometry.build ~n_materials:4 shape dims in
      let st_ref = run_ref_fd_mm ~steps:20 ~mb room in
      let hand =
        [ Hand_kernels.volume ~precision:Kernel_ast.Cast.Double;
          Hand_kernels.boundary_fd_mm ~precision:Kernel_ast.Cast.Double ~mb ]
      in
      let st_h = run_gpu ~engine:`Native ~steps:20 ~kernels:hand ~fi_beta:0.0 ~n_branches:mb room in
      approx_arrays
        (Printf.sprintf "hand FD-MM %s grid" (Geometry.shape_label shape))
        st_ref.curr st_h.curr;
      approx_arrays "hand FD-MM g1" st_ref.g1 st_h.g1;
      approx_arrays "hand FD-MM vel" st_ref.vel_prev st_h.vel_prev;
      let lift_kernels =
        [ (Lift_acoustics.Programs.compile ~name:"volume" ~precision:Kernel_ast.Cast.Double
             (Lift_acoustics.Programs.volume ()))
            .Lift.Codegen.kernel;
          (Lift_acoustics.Programs.compile ~name:"boundary_fd_mm"
             ~precision:Kernel_ast.Cast.Double
             (Lift_acoustics.Programs.boundary_fd_mm ~mb ()))
            .Lift.Codegen.kernel;
        ]
      in
      let st_l = run_gpu ~engine:`Native ~steps:20 ~kernels:lift_kernels ~fi_beta:0.0 ~n_branches:mb room in
      approx_arrays
        (Printf.sprintf "lift FD-MM %s grid" (Geometry.shape_label shape))
        st_ref.curr st_l.curr;
      approx_arrays "lift FD-MM g1" st_ref.g1 st_l.g1;
      approx_arrays "lift FD-MM vel" st_ref.vel_prev st_l.vel_prev)
    [ (Geometry.Box, box_dims); (Geometry.Dome, dome_dims); (Geometry.L_shape, box_dims) ]

(* The FD-MM ablation variants (global staging, point-major layout) must
   compute the same field; only their memory behaviour differs.  The
   point-major variant lays branch state out differently, so only the
   grid is compared. *)
let test_fd_mm_ablation_variants () =
  let mb = 3 in
  let room = Geometry.build ~n_materials:4 Geometry.Box box_dims in
  let st_ref = run_ref_fd_mm ~steps:20 ~mb room in
  let volume_k =
    (Lift_acoustics.Programs.compile ~name:"volume" ~precision:Kernel_ast.Cast.Double
       (Lift_acoustics.Programs.volume ()))
      .Lift.Codegen.kernel
  in
  List.iter
    (fun (label, staging, layout) ->
      let k =
        (Lift_acoustics.Programs.compile ~name:"fd_variant" ~precision:Kernel_ast.Cast.Double
           (Lift_acoustics.Programs.boundary_fd_mm ~staging ~layout ~mb ()))
          .Lift.Codegen.kernel
      in
      let st =
        run_gpu ~engine:`Native ~steps:20 ~kernels:[ volume_k; k ] ~fi_beta:0.0 ~n_branches:mb room
      in
      approx_arrays (Printf.sprintf "fd-mm variant %s grid" label) st_ref.curr st.curr)
    [
      ("global staging", `Global, `Branch_major);
      ("point-major", `Private, `Point_major);
      ("global+point-major", `Global, `Point_major);
    ];
  (* global staging re-reads branch state: strictly more global loads *)
  let loads staging =
    let k =
      (Lift_acoustics.Programs.compile ~name:"fd" ~precision:Kernel_ast.Cast.Double
         (Lift_acoustics.Programs.boundary_fd_mm ~staging ~mb ()))
        .Lift.Codegen.kernel
    in
    Kernel_ast.Analysis.total_loads (Kernel_ast.Analysis.kernel_counts k)
  in
  Alcotest.(check bool) "global staging loads more" true (loads `Global > loads `Private)

let test_lift_fused_fi () =
  let room = Geometry.build Geometry.Box box_dims in
  let beta = 0.2 in
  let st_ref = run_ref_fi ~steps:15 ~beta room in
  let k =
    (Lift_acoustics.Programs.compile ~name:"fused_fi" ~precision:Kernel_ast.Cast.Double
       (Lift_acoustics.Programs.fused_fi ()))
      .Lift.Codegen.kernel
  in
  let st = run_gpu ~engine:`Native ~steps:15 ~kernels:[ k ] ~fi_beta:beta room in
  approx_arrays "lift fused FI" st_ref.curr st.curr

(* Geometry invariants *)
let test_geometry () =
  let room = Geometry.build Geometry.Box box_dims in
  let { Geometry.nx; ny; nz } = box_dims in
  let inner a = a - 2 in
  let expected_inside = inner nx * inner ny * inner nz in
  Alcotest.(check int) "box inside count" expected_inside room.Geometry.n_inside;
  let expected_boundary =
    expected_inside - ((inner nx - 2) * (inner ny - 2) * (inner nz - 2))
  in
  Alcotest.(check int) "box boundary count" expected_boundary (Geometry.n_boundary room);
  (* boundary indices strictly ascending *)
  let b = room.Geometry.boundary_indices in
  Array.iteri (fun i idx -> if i > 0 then assert (idx > b.(i - 1))) b;
  (* streaming stats agree with materialisation *)
  let s = Geometry.stats Geometry.Box box_dims in
  Alcotest.(check int) "stats inside" room.Geometry.n_inside s.Geometry.s_inside;
  Alcotest.(check int) "stats boundary" (Geometry.n_boundary room) s.Geometry.s_boundary;
  assert (s.Geometry.s_contiguity >= 0. && s.Geometry.s_contiguity <= 1.);
  (* dome fits in the box and has fewer boundary points than volume *)
  let d = Geometry.build Geometry.Dome dome_dims in
  assert (d.Geometry.n_inside > 0);
  assert (Geometry.n_boundary d > 0);
  assert (d.Geometry.n_inside < Geometry.n_points dome_dims);
  let sd = Geometry.stats Geometry.Dome dome_dims in
  Alcotest.(check int) "dome stats boundary" (Geometry.n_boundary d) sd.Geometry.s_boundary

(* Physics: rigid box conserves (bounded), lossy boundaries dissipate. *)
let test_energy_behaviour () =
  let room = Geometry.build Geometry.Box box_dims in
  (* rigid: beta = 0 *)
  let st = run_ref_fi ~steps:300 ~beta:0.0 room in
  let e_rigid = Energy.kinetic_energy st in
  assert (e_rigid > 1e-4);
  assert (Energy.max_abs st.curr < 10.);
  (* lossy: energy decays monotonically-ish over long windows *)
  let st = State.create room in
  let cx, cy, cz = State.centre st in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  (* The pointwise field-energy proxy oscillates as energy moves between
     kinetic and potential form; average over a window to see the decay. *)
  let window_energy () =
    let acc = ref 0. in
    for _ = 1 to 20 do
      Ref_kernels.step_fi params st ~beta:0.5;
      acc := !acc +. Energy.kinetic_energy st
    done;
    !acc /. 20.
  in
  let e1 = window_energy () in
  for _ = 1 to 100 do
    Ref_kernels.step_fi params st ~beta:0.5
  done;
  let e2 = window_energy () in
  for _ = 1 to 100 do
    Ref_kernels.step_fi params st ~beta:0.5
  done;
  let e3 = window_energy () in
  if not (e2 < e1 && e3 < e2) then Alcotest.failf "energy not decaying: %g %g %g" e1 e2 e3;
  (* FD-MM with passive branches dissipates too *)
  let mb = 3 in
  let t = Material.tables ~n_branches:mb materials4 in
  let beta = t.Material.t_beta_fd
  and bi = t.Material.t_bi
  and d = t.Material.t_d
  and f = t.Material.t_f
  and di = t.Material.t_di in
  let st = State.create ~n_branches:mb room in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  let window_fd () =
    let acc = ref 0. in
    for _ = 1 to 20 do
      Ref_kernels.step_fd_mm params st ~beta ~bi ~d ~f ~di;
      acc := !acc +. Energy.kinetic_energy st
    done;
    !acc /. 20.
  in
  for _ = 1 to 100 do
    Ref_kernels.step_fd_mm params st ~beta ~bi ~d ~f ~di
  done;
  let e_start = ref (window_fd ()) in
  for _ = 1 to 300 do
    Ref_kernels.step_fd_mm params st ~beta ~bi ~d ~f ~di
  done;
  let e_end = window_fd () in
  if not (e_end < !e_start) then
    Alcotest.failf "FD-MM energy not decaying: %g -> %g" !e_start e_end;
  assert (Energy.max_abs st.curr < 10.)

(* Single precision rounds on store: results differ from double but only
   slightly after a few steps. *)
let test_single_precision () =
  let room = Geometry.build Geometry.Box box_dims in
  let kd =
    [ Hand_kernels.volume ~precision:Kernel_ast.Cast.Double;
      Hand_kernels.boundary_fi ~precision:Kernel_ast.Cast.Double ]
  in
  let ks =
    [ Hand_kernels.volume ~precision:Kernel_ast.Cast.Single;
      Hand_kernels.boundary_fi ~precision:Kernel_ast.Cast.Single ]
  in
  let std = run_gpu ~engine:`Native ~steps:10 ~kernels:kd ~fi_beta:0.3 room in
  let sts = run_gpu ~engine:`Native ~steps:10 ~kernels:ks ~fi_beta:0.3 room in
  let diff = ref 0. in
  let same = ref true in
  Array.iteri
    (fun i x ->
      let d = Float.abs (x -. sts.curr.(i)) in
      if d > !diff then diff := d;
      if x <> sts.curr.(i) then same := false)
    std.curr;
  if !same then Alcotest.fail "single precision identical to double (rounding not applied)";
  if !diff > 1e-3 then Alcotest.failf "single precision diverged: max diff %g" !diff

(* Gpu_sim stores nbrs as bytes: kernels run in a device form with the
   nbrs parameter marked U8 (name kept, one memoized value per kernel),
   the device copy holds the room's values, and a kernel that would
   write nbrs is refused. *)
let test_device_form () =
  let open Kernel_ast.Cast in
  let room = Geometry.build Geometry.Dome dome_dims in
  let volume = Hand_kernels.volume ~precision:Double in
  let kernels = [ volume; Hand_kernels.boundary_fi ~precision:Double ] in
  let dev = Gpu_sim.device_form volume in
  Alcotest.(check string) "name kept" volume.name dev.name;
  List.iter
    (fun p ->
      Alcotest.(check bool) (p.p_name ^ " storage") (p.p_name = "nbrs") (p.p_storage = U8))
    dev.params;
  let fused = Hand_kernels.fused_fi ~precision:Double in
  Alcotest.(check bool) "a kernel without nbrs is kept as it is" true
    (Gpu_sim.device_form fused == fused);
  Alcotest.(check bool) "printed as uchar" true
    (Test_util.contains (Kernel_ast.Print.kernel_to_string dev)
       "__global const uchar* restrict nbrs");
  let sim = Gpu_sim.create ~engine:`Native params room in
  (* every device binds its shard's byte grid as it is: one device the
     room's own, each of two shards its slab *)
  List.iter
    (fun (label, (s : Gpu_sim.t)) ->
      Array.iter
        (fun (sh : Shard.shard) ->
          match Vgpu.Runtime.buffer (Vgpu.Multi.device s.Gpu_sim.multi sh.Shard.index) "nbrs" with
          | Vgpu.Buffer.U8 b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: device %d binds its shard's bytes" label sh.Shard.index)
                true (b == sh.Shard.nbrs)
          | _ -> Alcotest.failf "%s: nbrs is not stored as bytes" label)
        s.Gpu_sim.plan.Shard.shards)
    [ ("one device", sim); ("2 shards", Gpu_sim.create ~engine:`Native ~shards:2 params room) ];
  (match sim.Gpu_sim.plan.Shard.shards with
  | [| sh |] ->
      Alcotest.(check bool) "one device: the room's byte grid, bound without a copy" true
        (sh.Shard.nbrs == room.Geometry.nbrs_u8);
      Alcotest.(check (array int)) "device bytes" room.Geometry.nbrs
        (Array.init (Bytes.length sh.Shard.nbrs) (Bytes.get_uint8 sh.Shard.nbrs))
  | _ -> Alcotest.fail "one device runs more than one slab");
  for _ = 1 to 3 do
    Gpu_sim.step sim kernels
  done;
  Alcotest.(check int) "one device form per kernel across steps" 2
    (List.length sim.Gpu_sim.device_forms);
  let writer =
    { volume with name = "nbrs_writer"; body = Store ("nbrs", Global_id 0, Int_lit 1) :: volume.body }
  in
  match Gpu_sim.launch sim writer with
  | () -> Alcotest.fail "a kernel writing nbrs was launched"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "fused == two-kernel (reference)" `Quick test_fused_equals_two_kernel;
    Alcotest.test_case "hand FI kernels == reference" `Quick test_hand_kernels_match_reference;
    Alcotest.test_case "hand fused FI == reference" `Quick test_hand_fused_matches_reference;
    Alcotest.test_case "FI-MM: hand & lift == reference" `Quick test_fi_mm_hand_and_lift;
    Alcotest.test_case "FD-MM: hand & lift == reference" `Quick test_fd_mm_hand_and_lift;
    Alcotest.test_case "FD-MM ablation variants == reference" `Quick test_fd_mm_ablation_variants;
    Alcotest.test_case "lift fused FI == reference" `Quick test_lift_fused_fi;
    Alcotest.test_case "geometry invariants" `Quick test_geometry;
    Alcotest.test_case "energy behaviour" `Quick test_energy_behaviour;
    Alcotest.test_case "single precision rounding" `Quick test_single_precision;
    Alcotest.test_case "device form: byte nbrs, nbrs writers refused" `Quick test_device_form;
  ]
