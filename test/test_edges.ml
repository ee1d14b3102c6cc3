(* Edge cases and error paths across the stack. *)

open Lift

let n = Size.var "N"
let vec = Ty.array Ty.real n

let compile prog = Codegen.compile_kernel ~name:"e" ~precision:Kernel_ast.Cast.Double prog

let test_codegen_errors () =
  (* ill-typed program: type error surfaces, not a crash *)
  let a = Ast.named_param "a" vec in
  let bad = { Ast.l_params = [ a ]; l_body = Ast.(Param a +! real 1.) } in
  (match compile bad with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "ill-typed program compiled");
  (* tuple-typed parameter is not storable *)
  let t = Ast.named_param "t" (Ty.tuple [ Ty.real; Ty.real ]) in
  let bad2 = { Ast.l_params = [ t ]; l_body = Ast.Get (Ast.Param t, 0) } in
  match compile bad2 with
  | exception Codegen.Codegen_error _ -> ()
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "tuple parameter accepted"

let test_device_table () =
  (* Table III values, verbatim *)
  let check name bw sp =
    match Vgpu.Device.find name with
    | None -> Alcotest.failf "missing device %s" name
    | Some d ->
        Alcotest.(check (float 0.)) (name ^ " bw") bw d.Vgpu.Device.mem_bw_gb_s;
        Alcotest.(check (float 0.)) (name ^ " sp") sp d.Vgpu.Device.sp_gflops
  in
  check "GTX780" 288. 3977.;
  check "AMD7970" 288. 4096.;
  check "Titan Black" 337. 5120.;
  check "RadeonR9" 320. 5733.;
  Alcotest.(check int) "four platforms" 4 (List.length Vgpu.Device.all);
  Alcotest.(check (option Alcotest.reject)) "unknown device" None
    (Option.map (fun _ -> assert false) (Vgpu.Device.find "RTX4090"));
  (* double peak below single peak everywhere *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "dp < sp" true
        (Vgpu.Device.peak_flops d Kernel_ast.Cast.Double
         < Vgpu.Device.peak_flops d Kernel_ast.Cast.Single))
    Vgpu.Device.all

let test_empty_and_tiny_rooms () =
  (* a 3^3 room has a single in-room voxel whose neighbours are all
     halo: nbr = 0, so it is never updated — neither interior nor
     boundary.  The scheme treats it as outside, which is the safe
     behaviour for degenerate rooms. *)
  let dims = Acoustics.Geometry.dims ~nx:3 ~ny:3 ~nz:3 in
  let room = Acoustics.Geometry.build Acoustics.Geometry.Box dims in
  Alcotest.(check int) "no active voxels" 0 room.Acoustics.Geometry.n_inside;
  Alcotest.(check int) "no boundary points" 0 (Acoustics.Geometry.n_boundary room);
  (* a 4^3 room has 8 active voxels, all boundary *)
  let dims4 = Acoustics.Geometry.dims ~nx:4 ~ny:4 ~nz:4 in
  let room4 = Acoustics.Geometry.build Acoustics.Geometry.Box dims4 in
  Alcotest.(check int) "2x2x2 active" 8 room4.Acoustics.Geometry.n_inside;
  Alcotest.(check int) "all boundary" 8 (Acoustics.Geometry.n_boundary room4)

let test_buffer_roundtrip () =
  let f = Vgpu.Buffer.of_float_array [| 1.5; -2.5 |] in
  Alcotest.(check int) "len" 2 (Vgpu.Buffer.length f);
  Alcotest.(check (float 0.)) "get" (-2.5) (Vgpu.Buffer.get_real f 1);
  Vgpu.Buffer.set_real f 0 9.;
  Alcotest.(check (float 0.)) "set" 9. (Vgpu.Buffer.get_real f 0);
  let c = Vgpu.Buffer.copy f in
  Vgpu.Buffer.set_real f 0 0.;
  Alcotest.(check (float 0.)) "copy is deep" 9. (Vgpu.Buffer.get_real c 0);
  let i = Vgpu.Buffer.of_int_array [| 3; 4 |] in
  Alcotest.(check (list int)) "int roundtrip" [ 3; 4 ] (Array.to_list (Vgpu.Buffer.to_int_array i));
  (* float32 rounding is idempotent *)
  let x = 1.0 /. 3.0 in
  let r = Vgpu.Buffer.round32 x in
  Alcotest.(check (float 0.)) "round32 idempotent" r (Vgpu.Buffer.round32 r);
  Alcotest.(check bool) "round32 moves the double" true (r <> x)

let test_params_validation () =
  (match Acoustics.Params.create ~lambda:0.9 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unstable Courant number accepted");
  let p = Acoustics.Params.create ~sample_rate:48000. () in
  Alcotest.(check bool) "grid spacing positive" true (Acoustics.Params.grid_spacing p > 0.);
  Alcotest.(check (float 1e-12)) "dt" (1. /. 48000.) (Acoustics.Params.dt p)

(* A zero-step and one-voxel-room simulation run without incident. *)
let test_degenerate_simulation () =
  let dims = Acoustics.Geometry.dims ~nx:4 ~ny:4 ~nz:4 in
  let room = Acoustics.Geometry.build ~n_materials:1 Acoustics.Geometry.Box dims in
  let sim = Acoustics.Gpu_sim.create Acoustics.Params.default room in
  let out =
    Acoustics.Gpu_sim.run sim
      [ Acoustics.Hand_kernels.volume ~precision:Kernel_ast.Cast.Double ]
      ~steps:0 ~receiver:(1, 1, 1)
  in
  Alcotest.(check int) "zero steps" 0 (Array.length out)

(* Grid coordinates are range-checked: x = nx must not wrap into the
   next row, on the state or on a one-device or sharded read. *)
let test_grid_range_checks () =
  let open Acoustics in
  let room = Geometry.build Geometry.Box (Geometry.dims ~nx:8 ~ny:8 ~nz:8) in
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: an off-grid point was accepted" name
  in
  let st = State.create room in
  rejects "impulse at x = 9" (fun () -> State.add_impulse st ~x:9 ~y:3 ~z:3);
  rejects "impulse at y = -1" (fun () -> State.add_impulse st ~x:3 ~y:(-1) ~z:3);
  Alcotest.(check (float 0.)) "nothing injected" 0. (Array.fold_left ( +. ) 0. st.State.curr);
  rejects "state read at z = 8" (fun () -> State.read st ~x:3 ~y:3 ~z:8);
  List.iter
    (fun shards ->
      let sim = Gpu_sim.create ~engine:`Interp ?shards Params.default room in
      State.add_impulse sim.Gpu_sim.state ~x:4 ~y:4 ~z:4;
      Gpu_sim.ensure_scattered sim;
      let label = match shards with None -> "single device" | Some _ -> "2 shards" in
      Alcotest.(check (float 0.)) (label ^ ": impulse read back") 1.
        (Gpu_sim.read sim ~x:4 ~y:4 ~z:4);
      Alcotest.(check (float 0.)) (label ^ ": its row neighbour") 0.
        (Gpu_sim.read sim ~x:3 ~y:4 ~z:4);
      rejects (label ^ ": read at x = 8") (fun () -> Gpu_sim.read sim ~x:8 ~y:4 ~z:4);
      rejects (label ^ ": read at y = 8") (fun () -> Gpu_sim.read sim ~x:4 ~y:8 ~z:4))
    [ None; Some 2 ]

let suite =
  [
    Alcotest.test_case "codegen error paths" `Quick test_codegen_errors;
    Alcotest.test_case "device table (Table III)" `Quick test_device_table;
    Alcotest.test_case "tiny rooms" `Quick test_empty_and_tiny_rooms;
    Alcotest.test_case "buffer roundtrips" `Quick test_buffer_roundtrip;
    Alcotest.test_case "parameter validation" `Quick test_params_validation;
    Alcotest.test_case "degenerate simulation" `Quick test_degenerate_simulation;
    Alcotest.test_case "grid coordinates range-checked" `Quick test_grid_range_checks;
  ]
