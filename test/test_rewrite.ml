(* Rewrite rules: each rule fires where expected and preserves semantics
   (checked against the interpreter, including on randomly generated
   map/zip/arith pipelines). *)

open Lift

let n = Size.var "N"
let vec = Ty.array Ty.real n
let sizes k = function "N" -> Some k | _ -> None

let eval_prog prog args = Eval.run ~sizes:(sizes 6) prog args

let check_same_semantics msg prog prog' =
  let input () = Eval.of_float_array [| 1.; -2.; 3.; 0.5; -0.25; 10. |] in
  let v1 = eval_prog prog [ input () ] in
  let v2 = eval_prog prog' [ input () ] in
  Alcotest.(check (list (float 1e-12)))
    msg
    (Array.to_list (Eval.to_float_array v1))
    (Array.to_list (Eval.to_float_array v2))

let test_fuse_map_map () =
  let a = Ast.named_param "a" vec in
  let body =
    Ast.map
      (Ast.lam1 Ty.real (fun x -> Ast.(x +! real 1.)))
      (Ast.map (Ast.lam1 Ty.real (fun x -> Ast.(x *! real 2.))) (Ast.Param a))
  in
  let prog = { Ast.l_params = [ a ]; l_body = body } in
  let rewritten = Rewrite.normalize_lam prog in
  (* fused: a single map remains *)
  let rec count_maps = function
    | Ast.Map (_, f, arg) -> 1 + count_maps f.Ast.l_body + count_maps arg
    | Ast.Binop (_, x, y) -> count_maps x + count_maps y
    | _ -> 0
  in
  Alcotest.(check int) "one map after fusion" 1 (count_maps rewritten.Ast.l_body);
  check_same_semantics "fusion preserves" prog rewritten

let test_split_join () =
  let a = Ast.named_param "a" vec in
  let prog = { Ast.l_params = [ a ]; l_body = Ast.Join (Ast.Split (Size.const 2, Ast.Param a)) } in
  let rewritten = Rewrite.normalize_lam prog in
  (match rewritten.Ast.l_body with
  | Ast.Param _ -> ()
  | e -> Alcotest.failf "not collapsed: %s" (Ast.to_string e));
  check_same_semantics "split/join id" prog rewritten

let test_concat_single_pad_zero () =
  let a = Ast.named_param "a" vec in
  let prog =
    { Ast.l_params = [ a ]; l_body = Ast.Concat [ Ast.Pad (0, 0, Ast.real 0., Ast.Param a) ] }
  in
  let rewritten = Rewrite.normalize_lam prog in
  match rewritten.Ast.l_body with
  | Ast.Param _ -> ()
  | e -> Alcotest.failf "not collapsed: %s" (Ast.to_string e)

let test_lowering () =
  let a = Ast.named_param "a" vec in
  let prog =
    { Ast.l_params = [ a ];
      l_body = Ast.map (Ast.lam1 Ty.real (fun x -> Ast.(x +! real 1.))) (Ast.Param a) }
  in
  let lowered = Rewrite.lower_outer_map_to_glb prog in
  (match lowered.Ast.l_body with
  | Ast.Map (Ast.Glb 0, _, _) -> ()
  | e -> Alcotest.failf "not lowered: %s" (Ast.to_string e));
  (* lowering then compiling produces an NDRange kernel *)
  let c = Codegen.compile_kernel ~name:"low" ~precision:Kernel_ast.Cast.Double lowered in
  Alcotest.(check bool) "kernel uses global id" true
    (Test_util.contains
       (Kernel_ast.Print.kernel_to_string c.Codegen.kernel)
       "get_global_id(0)")

(* Random pipelines of unary maps and scalar ops; rewriting must preserve
   the interpreter's result. *)
let qcheck_normalize_preserves =
  let open QCheck in
  let scalar_fun_gen =
    Gen.oneofl
      [
        (fun x -> Ast.(x +! real 1.));
        (fun x -> Ast.(x *! real 2.));
        (fun x -> Ast.(x -! real 0.5));
        (fun x -> Ast.Select (Ast.(x >! real 0.), x, Ast.(real 0. -! x)));
        (fun x -> Ast.(x *! x));
      ]
  in
  let pipeline_gen =
    Gen.(
      list_size (int_range 1 5) scalar_fun_gen >|= fun fs ->
      let a = Ast.named_param "a" vec in
      let body =
        List.fold_left
          (fun acc f -> Ast.map (Ast.lam1 Ty.real f) acc)
          (Ast.Join (Ast.Split (Size.const 2, Ast.Param a)))
          fs
      in
      { Ast.l_params = [ a ]; l_body = body })
  in
  let arb = make ~print:(fun p -> Ast.to_string p.Ast.l_body) pipeline_gen in
  Test.make ~name:"normalize preserves semantics" ~count:200 arb (fun prog ->
      let input () = Eval.of_float_array [| 1.; -2.; 3.; 0.5; -0.25; 10. |] in
      let v1 = Eval.to_float_array (eval_prog prog [ input () ]) in
      let v2 = Eval.to_float_array (eval_prog (Rewrite.normalize_lam prog) [ input () ]) in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) v1 v2)

(* Rewriting then compiling also preserves semantics end to end. *)
let qcheck_rewrite_compile_agree =
  let open QCheck in
  let scalar_fun_gen =
    Gen.oneofl
      [
        (fun x -> Ast.(x +! real 1.));
        (fun x -> Ast.(x *! real 2.));
        (fun x -> Ast.(x *! x));
      ]
  in
  let pipeline_gen =
    Gen.(
      list_size (int_range 1 4) scalar_fun_gen >|= fun fs ->
      let a = Ast.named_param "a" vec in
      let body =
        List.fold_left (fun acc f -> Ast.map (Ast.lam1 Ty.real f) acc) (Ast.Param a) fs
      in
      { Ast.l_params = [ a ]; l_body = body })
  in
  let arb = make ~print:(fun p -> Ast.to_string p.Ast.l_body) pipeline_gen in
  Test.make ~name:"rewrite+compile == eval" ~count:100 arb (fun prog ->
      let input = [| 1.; -2.; 3.; 0.5; -0.25; 10. |] in
      let expected =
        Eval.to_float_array (eval_prog prog [ Eval.of_float_array input ])
      in
      let lowered = Rewrite.lower_outer_map_to_glb (Rewrite.normalize_lam prog) in
      let c = Codegen.compile_kernel ~name:"q" ~precision:Kernel_ast.Cast.Double lowered in
      let out = Array.make 6 0. in
      let args =
        List.map
          (fun (p : Kernel_ast.Cast.param) ->
            match (p.p_kind, p.p_name) with
            | Kernel_ast.Cast.Global_buf, "a" -> Vgpu.Args.Buf (Vgpu.Buffer.F input)
            | Kernel_ast.Cast.Global_buf, "out" -> Vgpu.Args.Buf (Vgpu.Buffer.F out)
            | Kernel_ast.Cast.Scalar_param, "N" -> Vgpu.Args.Int_arg 6
            | _ -> failwith "unexpected param")
          c.Codegen.kernel.Kernel_ast.Cast.params
      in
      Vgpu.Exec.launch c.Codegen.kernel ~args ~global:[ 6 ];
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) expected out)

let suite =
  [
    Alcotest.test_case "fuse map map" `Quick test_fuse_map_map;
    Alcotest.test_case "split/join identity" `Quick test_split_join;
    Alcotest.test_case "concat single & pad zero" `Quick test_concat_single_pad_zero;
    Alcotest.test_case "glb lowering" `Quick test_lowering;
    QCheck_alcotest.to_alcotest qcheck_normalize_preserves;
    QCheck_alcotest.to_alcotest qcheck_rewrite_compile_agree;
  ]
