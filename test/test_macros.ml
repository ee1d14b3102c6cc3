(* Multi-dimensional pattern macros (transpose, slide2/slide3, pad3) and
   the Listing-6-style 3D fused FI kernel built from them. *)

open Lift

let sizes tbl name = List.assoc_opt name tbl

(* 3D helpers on interpreter values *)
let arr3_of f ~nz ~ny ~nx =
  Eval.VArr
    (Array.init nz (fun z ->
         Eval.VArr
           (Array.init ny (fun y ->
                Eval.VArr (Array.init nx (fun x -> Eval.VReal (f x y z)))))))

let get3 v z y x =
  Eval.as_real (Eval.as_arr (Eval.as_arr (Eval.as_arr v).(z)).(y)).(x)

let test_transpose () =
  let ty = Ty.array_n (Ty.array_n Ty.real 3) 2 in
  let a = Ast.named_param "a" ty in
  let prog = { Ast.l_params = [ a ]; l_body = Ast.Transpose (Ast.Param a) } in
  let input =
    Eval.VArr
      [|
        Eval.VArr [| Eval.VReal 1.; Eval.VReal 2.; Eval.VReal 3. |];
        Eval.VArr [| Eval.VReal 4.; Eval.VReal 5.; Eval.VReal 6. |];
      |]
  in
  let v = Eval.run prog [ input ] in
  Alcotest.(check (float 0.)) "t[0][1]" 4. (Eval.as_real (Eval.as_arr (Eval.as_arr v).(0)).(1));
  Alcotest.(check (float 0.)) "t[2][0]" 3. (Eval.as_real (Eval.as_arr (Eval.as_arr v).(2)).(0));
  (* typecheck *)
  let t = Typecheck.infer_program prog in
  Alcotest.(check bool) "transposed type" true
    (Ty.equal t (Ty.array_n (Ty.array_n Ty.real 2) 3))

let test_slide3_semantics () =
  (* W[pz][ny][mx][dz][dy][dx] = a[pz+dz][ny+dy][mx+dx] *)
  let nz, ny, nx = (5, 4, 6) in
  let ty =
    Ty.array
      (Ty.array (Ty.array Ty.real (Size.var "NX")) (Size.var "NY"))
      (Size.var "NZ")
  in
  let a = Ast.named_param "a" ty in
  let prog = { Ast.l_params = [ a ]; l_body = Macros.slide3 3 1 ~ty (Ast.Param a) } in
  let f x y z = float_of_int ((z * 100) + (y * 10) + x) in
  let input = arr3_of f ~nz ~ny ~nx in
  let v =
    Eval.run
      ~sizes:(sizes [ ("NZ", nz); ("NY", ny); ("NX", nx) ])
      prog [ input ]
  in
  let outer = Eval.as_arr v in
  Alcotest.(check int) "z windows" (nz - 2) (Array.length outer);
  let w = Eval.as_arr (Eval.as_arr (Eval.as_arr v).(1)).(0) in
  (* window at (pz=1, ny=0, mx=2) *)
  let win = w.(2) in
  for dz = 0 to 2 do
    for dy = 0 to 2 do
      for dx = 0 to 2 do
        Alcotest.(check (float 0.))
          (Printf.sprintf "w[%d][%d][%d]" dz dy dx)
          (f (2 + dx) (0 + dy) (1 + dz))
          (get3 win dz dy dx)
      done
    done
  done

let test_pad3_semantics () =
  let nz, ny, nx = (2, 2, 3) in
  let ty =
    Ty.array (Ty.array (Ty.array Ty.real (Size.var "NX")) (Size.var "NY")) (Size.var "NZ")
  in
  let a = Ast.named_param "a" ty in
  let prog =
    { Ast.l_params = [ a ]; l_body = Macros.pad3 1 1 (Ast.real 7.) ~ty (Ast.Param a) }
  in
  let input = arr3_of (fun x y z -> float_of_int (x + y + z)) ~nz ~ny ~nx in
  let v =
    Eval.run ~sizes:(sizes [ ("NZ", nz); ("NY", ny); ("NX", nx) ]) prog [ input ]
  in
  Alcotest.(check (float 0.)) "corner is fill" 7. (get3 v 0 0 0);
  Alcotest.(check (float 0.)) "interior preserved" 0. (get3 v 1 1 1);
  Alcotest.(check (float 0.)) "interior (1,2,1)->(0,1,0)" 1. (get3 v 1 2 1);
  Alcotest.(check (float 0.)) "far corner is fill" 7. (get3 v (nz + 1) (ny + 1) (nx + 1))

(* slide2 compiled: a 2D blur through views only (no temp buffers). *)
let test_slide2_compiled () =
  let n = 6 and m = 5 in
  let ty = Ty.array (Ty.array Ty.real (Size.var "M")) (Size.var "N") in
  let a = Ast.named_param "a" ty in
  let win2 = Ty.array_n (Ty.array_n Ty.real 3) 3 in
  let sum_win w =
    let at dy dx = Ast.Array_access (Ast.Array_access (w, Ast.int dy), Ast.int dx) in
    let open Ast in
    at 0 0 +! at 0 1 +! at 0 2 +! at 1 0 +! at 1 1 +! at 1 2 +! at 2 0 +! at 2 1 +! at 2 2
  in
  let row_win_ty = Ty.array win2 (Size.sub (Size.var "M") (Size.const 2)) in
  let prog =
    {
      Ast.l_params = [ a ];
      l_body =
        Ast.map_glb ~dim:1
          (Ast.lam1 row_win_ty (fun row ->
               Ast.map_glb ~dim:0 (Ast.lam1 win2 sum_win) row))
          (Macros.slide2 3 1 ~ty (Ast.Param a));
    }
  in
  let c = Codegen.compile_kernel ~name:"blur2d" ~precision:Kernel_ast.Cast.Double prog in
  Alcotest.(check int) "no temp buffers (views only)" 0 (List.length c.Codegen.temp_params);
  (* run and compare against a straightforward OCaml blur *)
  let input = Array.init (n * m) (fun i -> float_of_int (i * i mod 17)) in
  let out = Array.make ((n - 2) * (m - 2)) 0. in
  let args =
    List.map
      (fun (p : Kernel_ast.Cast.param) ->
        match (p.p_kind, p.p_name) with
        | Kernel_ast.Cast.Global_buf, "a" -> Vgpu.Args.Buf (Vgpu.Buffer.F input)
        | Kernel_ast.Cast.Global_buf, "out" -> Vgpu.Args.Buf (Vgpu.Buffer.F out)
        | Kernel_ast.Cast.Scalar_param, "N" -> Vgpu.Args.Int_arg n
        | Kernel_ast.Cast.Scalar_param, "M" -> Vgpu.Args.Int_arg m
        | _ -> Alcotest.failf "unexpected param %s" p.p_name)
      c.Codegen.kernel.Kernel_ast.Cast.params
  in
  Vgpu.Exec.launch c.Codegen.kernel ~args ~global:[ m - 2; n - 2 ];
  for y = 0 to n - 3 do
    for x = 0 to m - 3 do
      let expected = ref 0. in
      for dy = 0 to 2 do
        for dx = 0 to 2 do
          expected := !expected +. input.(((y + dy) * m) + x + dx)
        done
      done;
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "blur(%d,%d)" y x)
        !expected
        out.((y * (m - 2)) + x)
    done
  done

(* The Listing-6-style 3D kernel against the reference fused step. *)
let test_fused_fi_3d () =
  let open Acoustics in
  let params = Params.default in
  let dims = Geometry.dims ~nx:12 ~ny:10 ~nz:8 in
  let { Geometry.nx; ny; nz } = dims in
  let nx2 = nx - 2 and ny2 = ny - 2 and nz2 = nz - 2 in
  let beta = 0.3 in
  (* reference: full grid with halo *)
  let st = State.create (Geometry.build Geometry.Box dims) in
  let cx, cy, cz = State.centre st in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  (* lift: interior-only grids *)
  let ni = nx2 * ny2 * nz2 in
  let li_prev = Array.make ni 0. and li_curr = Array.make ni 0. and li_next = Array.make ni 0. in
  let li_idx x y z = ((z - 1) * ny2 * nx2) + ((y - 1) * nx2) + (x - 1) in
  li_curr.(li_idx cx cy cz) <- 1.0;
  let c =
    Lift_acoustics.Programs.compile ~name:"fused_fi_3d" ~precision:Kernel_ast.Cast.Double
      (Lift_acoustics.Programs.fused_fi_3d ())
  in
  let launch prev curr next =
    let args =
      List.map
        (fun (p : Kernel_ast.Cast.param) ->
          match (p.p_kind, p.p_name) with
          | Kernel_ast.Cast.Global_buf, "prev" -> Vgpu.Args.Buf (Vgpu.Buffer.F prev)
          | Kernel_ast.Cast.Global_buf, "curr" -> Vgpu.Args.Buf (Vgpu.Buffer.F curr)
          | Kernel_ast.Cast.Global_buf, "next" -> Vgpu.Args.Buf (Vgpu.Buffer.F next)
          | Kernel_ast.Cast.Scalar_param, "Nx2" -> Vgpu.Args.Int_arg nx2
          | Kernel_ast.Cast.Scalar_param, "Ny2" -> Vgpu.Args.Int_arg ny2
          | Kernel_ast.Cast.Scalar_param, "Nz2" -> Vgpu.Args.Int_arg nz2
          | Kernel_ast.Cast.Scalar_param, "l" -> Vgpu.Args.Real_arg (Params.l params)
          | Kernel_ast.Cast.Scalar_param, "l2" -> Vgpu.Args.Real_arg (Params.l2 params)
          | Kernel_ast.Cast.Scalar_param, "beta" -> Vgpu.Args.Real_arg beta
          | _ -> Alcotest.failf "unexpected param %s" p.Kernel_ast.Cast.p_name)
        c.Lift.Codegen.kernel.Kernel_ast.Cast.params
    in
    Vgpu.Exec.launch c.Lift.Codegen.kernel ~args ~global:[ nx2; ny2; nz2 ]
  in
  let prev = ref li_prev and curr = ref li_curr and next = ref li_next in
  for _ = 1 to 12 do
    (* reference step on the full grid *)
    Ref_kernels.fused_fi_box params ~dims ~beta ~prev:st.State.prev ~curr:st.State.curr
      ~next:st.State.next;
    State.rotate st;
    (* lift step on the interior grid *)
    launch !prev !curr !next;
    let t = !prev in
    prev := !curr;
    curr := !next;
    next := t
  done;
  for z = 1 to nz - 2 do
    for y = 1 to ny - 2 do
      for x = 1 to nx - 2 do
        let r = State.read st ~x ~y ~z in
        let l = !curr.(li_idx x y z) in
        if Float.abs (r -. l) > 1e-11 *. (1. +. Float.abs r) then
          Alcotest.failf "fused_fi_3d differs at (%d,%d,%d): %.17g vs %.17g" x y z r l
      done
    done
  done

let suite =
  [
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "slide3 semantics" `Quick test_slide3_semantics;
    Alcotest.test_case "pad3 semantics" `Quick test_pad3_semantics;
    Alcotest.test_case "slide2 compiled (view-only)" `Quick test_slide2_compiled;
    Alcotest.test_case "fused FI 3D (Listing 6 style)" `Quick test_fused_fi_3d;
  ]
