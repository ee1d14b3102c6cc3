(* Core Lift pipeline tests: typecheck → codegen → execute, validated
   against the IR interpreter on simple programs. *)

open Lift

let n_var = Size.var "N"

let check_floats msg expected actual =
  Alcotest.(check (list (float 1e-9))) msg (Array.to_list expected) (Array.to_list actual)

(* Compile a program and run it on the virtual GPU (both engines),
   returning the contents of the named buffer afterwards. *)
let run_kernel ?(engine = `Native) (c : Codegen.compiled) ~(buffers : (string * Vgpu.Buffer.t) list)
    ~(ints : (string * int) list) =
  let k = c.Codegen.kernel in
  let lookup_int name =
    match List.assoc_opt name ints with
    | Some v -> v
    | None -> Alcotest.failf "missing int scalar %s" name
  in
  let args =
    List.map
      (fun (p : Kernel_ast.Cast.param) ->
        match (p.p_kind, p.p_ty) with
        | Global_buf, _ -> (
            match List.assoc_opt p.p_name buffers with
            | Some b -> Vgpu.Args.Buf b
            | None -> Alcotest.failf "missing buffer %s" p.p_name)
        | Scalar_param, Int -> Vgpu.Args.Int_arg (lookup_int p.p_name)
        | Scalar_param, Real -> Alcotest.failf "unexpected real scalar %s" p.p_name)
      k.params
  in
  let global =
    List.map
      (fun e ->
        match Kernel_ast.Cast.simplify e with
        | Kernel_ast.Cast.Int_lit n -> n
        | Kernel_ast.Cast.Var v -> lookup_int v
        | e -> Alcotest.failf "non-constant global size %s" (Kernel_ast.Print.expr_to_string e))
      k.global_size
  in
  match engine with
  | `Native -> Vgpu.Native.launch (Vgpu.Native.compile k) ~args ~global
  | `Interp -> Vgpu.Exec.launch k ~args ~global

let vec_ty = Ty.array Ty.real n_var

(* map (+1) over a vector, all three execution routes *)
let test_map_add1 () =
  let prog =
    let a = Ast.named_param "a" vec_ty in
    {
      Ast.l_params = [ a ];
      l_body = Ast.map_glb (Ast.lam1 Ty.real (fun x -> Ast.(x +! real 1.0))) (Ast.Param a);
    }
  in
  (* interpreter route *)
  let input = [| 1.0; 2.5; -3.0; 0.0; 10.0 |] in
  let v = Eval.run ~sizes:(function "N" -> Some 5 | _ -> None) prog [ Eval.of_float_array input ] in
  let expected = Array.map (fun x -> x +. 1.0) input in
  check_floats "eval" expected (Eval.to_float_array v);
  (* compiled routes *)
  let c = Codegen.compile_kernel ~name:"add1" ~precision:Kernel_ast.Cast.Double prog in
  Alcotest.(check (option string)) "has out param" (Some "out") c.out_param;
  List.iter
    (fun engine ->
      let out = Array.make 5 0. in
      run_kernel ~engine c
        ~buffers:[ ("a", Vgpu.Buffer.F (Array.copy input)); ("out", Vgpu.Buffer.F out) ]
        ~ints:[ ("N", 5) ];
      check_floats "compiled" expected out)
    [ `Native; `Interp ]

(* zip + map: c[i] = a[i] + b[i] (the paper's §III-A example) *)
let test_zip_add () =
  let prog =
    let a = Ast.named_param "a" vec_ty in
    let b = Ast.named_param "b" vec_ty in
    let elt = Ty.tuple [ Ty.real; Ty.real ] in
    {
      Ast.l_params = [ a; b ];
      l_body =
        Ast.map_glb
          (Ast.lam1 elt (fun p -> Ast.(Get (p, 0) +! Get (p, 1))))
          (Ast.Zip [ Ast.Param a; Ast.Param b ]);
    }
  in
  let xa = [| 1.; 2.; 3.; 4. |] and xb = [| 10.; 20.; 30.; 40. |] in
  let expected = [| 11.; 22.; 33.; 44. |] in
  let v =
    Eval.run ~sizes:(function "N" -> Some 4 | _ -> None) prog
      [ Eval.of_float_array xa; Eval.of_float_array xb ]
  in
  check_floats "eval" expected (Eval.to_float_array v);
  let c = Codegen.compile_kernel ~name:"vecadd" ~precision:Kernel_ast.Cast.Double prog in
  let out = Array.make 4 0. in
  run_kernel c
    ~buffers:
      [ ("a", Vgpu.Buffer.F xa); ("b", Vgpu.Buffer.F xb); ("out", Vgpu.Buffer.F out) ]
    ~ints:[ ("N", 4) ];
  check_floats "compiled" expected out

(* 1D 3-point stencil via pad + slide + reduce (paper §III-B) *)
let test_stencil_1d () =
  let prog =
    let a = Ast.named_param "a" vec_ty in
    let win = Ty.array_n Ty.real 3 in
    {
      Ast.l_params = [ a ];
      l_body =
        Ast.map_glb
          (Ast.lam1 win (fun w ->
               Ast.Reduce
                 ( Ast.lam2 Ty.real Ty.real (fun acc x -> Ast.(acc +! x)),
                   Ast.real 0.0,
                   w )))
          (Ast.Slide (3, 1, Ast.Pad (1, 1, Ast.real 0.0, Ast.Param a)));
    }
  in
  let input = [| 1.; 2.; 3.; 4.; 5. |] in
  let expected = [| 3.; 6.; 9.; 12.; 9. |] in
  let v = Eval.run ~sizes:(function "N" -> Some 5 | _ -> None) prog [ Eval.of_float_array input ] in
  check_floats "eval" expected (Eval.to_float_array v);
  let c = Codegen.compile_kernel ~name:"stencil3" ~precision:Kernel_ast.Cast.Double prog in
  List.iter
    (fun engine ->
      let out = Array.make 5 0. in
      run_kernel ~engine c
        ~buffers:[ ("a", Vgpu.Buffer.F input); ("out", Vgpu.Buffer.F out) ]
        ~ints:[ ("N", 5) ];
      check_floats "compiled" expected out)
    [ `Native; `Interp ]

(* In-place static write through Concat/Skip (paper §IV, Table I). *)
let test_inplace_static () =
  let n = Size.var "N" in
  let input_ty = Ty.array Ty.real n in
  let prog =
    let input = Ast.named_param "input" input_ty in
    let body =
      Ast.Write_to
        ( Ast.Param input,
          Ast.Concat
            [
              Ast.skip Ty.real (Size.const 2);
              Ast.Array_cons (Ast.real 99.0, 1);
              Ast.skip Ty.real (Size.sub n (Size.const 3));
            ] )
    in
    { Ast.l_params = [ input ]; l_body = body }
  in
  let input = [| 0.; 1.; 2.; 3.; 4. |] in
  let v =
    Eval.run ~sizes:(function "N" -> Some 5 | _ -> None) prog [ Eval.of_float_array input ]
  in
  check_floats "eval result" [| 0.; 1.; 99.; 3.; 4. |] (Eval.to_float_array v);
  let c = Codegen.compile_kernel ~name:"scatter" ~precision:Kernel_ast.Cast.Double prog in
  Alcotest.(check (option string)) "in-place: no out param" None c.out_param;
  let buf = [| 0.; 1.; 2.; 3.; 4. |] in
  run_kernel c ~buffers:[ ("input", Vgpu.Buffer.F buf) ] ~ints:[ ("N", 5) ];
  check_floats "compiled in-place" [| 0.; 1.; 99.; 3.; 4. |] buf

(* The full paper §IV-B2 idiom: Map(idx => WriteTo(input,
   Concat(Skip(idx), f(ArrayCons(input[idx],1)), Skip(N-1-idx)))) over a
   dynamic index array. *)
let test_inplace_scatter_dynamic () =
  let n = Size.var "N" and nb = Size.var "nB" in
  let input_ty = Ty.array Ty.real n in
  let idx_ty = Ty.array Ty.int nb in
  let prog =
    let input = Ast.named_param "input" input_ty in
    let indices = Ast.named_param "indices" idx_ty in
    let body =
      Ast.Write_to
        ( Ast.Param input,
          Ast.map_glb
            (Ast.lam1 ~name:"idx" Ty.int (fun i ->
                 Ast.scatter_row ~elt_ty:Ty.real ~n ~sym:"_skip" ~index:i
                   Ast.(Array_access (Param input, i) *! real 2.0)))
            (Ast.Param indices) )
    in
    { Ast.l_params = [ input; indices ]; l_body = body }
  in
  let sizes = function "N" -> Some 6 | "nB" -> Some 3 | _ -> None in
  let expected = [| 0.; 2.; 2.; 6.; 4.; 10. |] in
  let input = [| 0.; 1.; 2.; 3.; 4.; 5. |] in
  let indices = [| 1; 3; 5 |] in
  let vin = Eval.of_float_array input in
  let _ = Eval.run ~sizes prog [ vin; Eval.of_int_array indices ] in
  check_floats "eval in-place" expected (Eval.to_float_array vin);
  let c = Codegen.compile_kernel ~name:"scatter_dyn" ~precision:Kernel_ast.Cast.Double prog in
  Alcotest.(check (option string)) "in-place: no out param" None c.out_param;
  List.iter
    (fun engine ->
      let buf = [| 0.; 1.; 2.; 3.; 4.; 5. |] in
      run_kernel ~engine c
        ~buffers:[ ("input", Vgpu.Buffer.F buf); ("indices", Vgpu.Buffer.I indices) ]
        ~ints:[ ("N", 6); ("nB", 3) ];
      check_floats "compiled in-place scatter" expected buf)
    [ `Native; `Interp ]

let suite =
  [
    Alcotest.test_case "map add1" `Quick test_map_add1;
    Alcotest.test_case "zip add" `Quick test_zip_add;
    Alcotest.test_case "1d stencil" `Quick test_stencil_1d;
    Alcotest.test_case "in-place concat/skip (static)" `Quick test_inplace_static;
    Alcotest.test_case "in-place concat/skip (dynamic)" `Quick test_inplace_scatter_dynamic;
  ]
