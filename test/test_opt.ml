(* The kernel-AST optimizer pipeline (Kernel_ast.Opt).

   Three layers of validation:
   - property: on random well-typed kernels ({!Gen_kernel}), the
     optimized kernel produces bit-identical buffers to the raw one on
     the interpreter, and so does the expression simplifier;
   - units: each pass observed in isolation — CSE temporary types and
     counts, constant-trip unrolling, LICM, strength reduction guards,
     dead-code elimination;
   - schemes: full FI / FI-MM / FD-MM simulations with the runtime
     optimizer off vs on, across every engine (interp, native,
     2-shard native) and both precisions, compared
     bit-for-bit — the invariant that makes the optimizer free to
     enable by default. *)

open Kernel_ast.Cast
open Acoustics

let bits_eq a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

(* -- Property: optimize preserves results ---------------------------- *)

let qcheck_opt_preserves =
  QCheck.Test.make ~name:"optimized kernel bit-identical on random kernels" ~count:300
    Gen_kernel.arb_kernel (fun k ->
      let opt, _report = Kernel_ast.Opt.optimize k in
      bits_eq (Gen_kernel.run_interp k) (Gen_kernel.run_interp opt))

(* Optimizing twice is safe: the second round must also preserve results
   (idempotence in effect, per the mli contract). *)
let qcheck_opt_twice =
  QCheck.Test.make ~name:"re-optimizing an optimized kernel is safe" ~count:100
    Gen_kernel.arb_kernel (fun k ->
      let opt1, _ = Kernel_ast.Opt.optimize k in
      let opt2, _ = Kernel_ast.Opt.optimize opt1 in
      bits_eq (Gen_kernel.run_interp opt1) (Gen_kernel.run_interp opt2))

(* Simplification must not change kernel results either. *)
let qcheck_simplify_kernel =
  QCheck.Test.make ~name:"simplify_kernel preserves results" ~count:200 Gen_kernel.arb_kernel
    (fun k ->
      Array.for_all2
        (fun a b -> (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-12)
        (Gen_kernel.run_interp k)
        (Gen_kernel.run_interp (simplify_kernel k)))

(* -- Units ------------------------------------------------------------ *)

let run_kernel launch k =
  let out = Array.make 8 0. in
  launch k [ Vgpu.Args.Buf (Vgpu.Buffer.F out) ];
  out

let interp k args = Vgpu.Exec.launch k ~args ~global:[ 1 ]
let native k args = Vgpu.Native.launch (Vgpu.Native.compile k) ~args ~global:[ 1 ]

(* A constant-trip loop declaring a body-local: unrolling must splice
   alpha-renamed copies, fold the literal index, and keep the result
   bit-identical in both engines. *)
let test_unroll_constant_trip () =
  let k =
    {
      name = "unroll_me";
      precision = Double;
      params = [ param "out" Real ];
      global_size = [ Int_lit 1 ];
      local_size = [];
      body =
        [
          Decl (Real, "acc", Some (Real_lit 0.));
          for_ "i" ~from:(Int_lit 0) ~below:(Int_lit 3)
            [
              Decl (Real, "t", Some (Binop (Mul, Unop (To_real, Var "i"), Real_lit 2.5)));
              Assign ("acc", Binop (Add, Var "acc", Var "t"));
            ];
          Store ("out", Int_lit 0, Var "acc");
        ];
    }
  in
  let opt, r = Kernel_ast.Opt.optimize k in
  Alcotest.(check int) "one loop unrolled" 1 r.Kernel_ast.Opt.unrolled;
  let rec has_for = function
    | [] -> false
    | For _ :: _ -> true
    | If (_, t, f) :: rest -> has_for t || has_for f || has_for rest
    | _ :: rest -> has_for rest
  in
  Alcotest.(check bool) "no loop remains" false (has_for opt.body);
  Alcotest.(check bool) "interp matches" true
    (bits_eq (run_kernel interp k) (run_kernel interp opt));
  Alcotest.(check bool) "native matches" true
    (bits_eq (run_kernel native k) (run_kernel native opt))

(* A loop whose bound is a scalar parameter stays a loop, but the
   invariant expression inside it moves out. *)
let test_licm_hoists_invariant () =
  let k =
    {
      name = "licm_me";
      precision = Double;
      params = [ param "out" Real; param ~kind:Scalar_param "s" Real; param ~kind:Scalar_param "n" Int ];
      global_size = [ Int_lit 1 ];
      local_size = [];
      body =
        [
          for_ "i" ~from:(Int_lit 0) ~below:(Var "n")
            [
              Store
                ( "out",
                  Var "i",
                  Binop (Mul, Unop (To_real, Var "i"), Binop (Mul, Var "s", Binop (Add, Var "s", Real_lit 1.))) );
            ];
        ];
    }
  in
  let opt, r = Kernel_ast.Opt.optimize k in
  Alcotest.(check bool) "something hoisted" true (r.Kernel_ast.Opt.licm_hoisted > 0);
  (* one or more real-typed invariant temporaries declared, then the loop *)
  (let rec drop_decls n = function
     | Decl (Real, _, Some _) :: rest -> drop_decls (n + 1) rest
     | rest -> (n, rest)
   in
   match drop_decls 0 opt.body with
   | n, For _ :: _ when n > 0 -> ()
   | _ -> Alcotest.fail "expected real-typed invariants declared before the loop");
  let run launch k =
    let out = Array.make 8 0. in
    launch k [ Vgpu.Args.Buf (Vgpu.Buffer.F out); Vgpu.Args.Real_arg 1.5; Vgpu.Args.Int_arg 8 ];
    out
  in
  Alcotest.(check bool) "interp matches" true (bits_eq (run interp k) (run interp opt));
  Alcotest.(check bool) "native matches" true (bits_eq (run native k) (run native opt))

(* Strength reduction: gated on the syntactic non-negativity proof for
   ints, and on exact powers of two for reals. *)
let test_strength_reduction_guards () =
  let gid = Global_id 0 in
  (match simplify (Binop (Div, gid, Int_lit 4)) with
  | Binop (Shr, Global_id 0, Int_lit 2) -> ()
  | e -> Alcotest.failf "gid/4: expected shift, got %s" (Kernel_ast.Print.expr_to_string e));
  (match simplify (Binop (Mod, gid, Int_lit 8)) with
  | Binop (BAnd, Global_id 0, Int_lit 7) -> ()
  | e -> Alcotest.failf "gid%%8: expected mask, got %s" (Kernel_ast.Print.expr_to_string e));
  (* no proof that gid - 1 is non-negative: must stay a division *)
  (match simplify (Binop (Div, Binop (Sub, gid, Int_lit 1), Int_lit 4)) with
  | Binop (Div, _, _) -> ()
  | e -> Alcotest.failf "(gid-1)/4 must not reduce, got %s" (Kernel_ast.Print.expr_to_string e));
  (match simplify (Binop (Div, Var "x", Real_lit 2.)) with
  | Binop (Mul, Var "x", Real_lit 0.5) -> ()
  | e -> Alcotest.failf "x/2.0: expected *0.5, got %s" (Kernel_ast.Print.expr_to_string e));
  (* 3.0 is not a power of two: 1/3 is not exact *)
  match simplify (Binop (Div, Var "x", Real_lit 3.)) with
  | Binop (Div, _, _) -> ()
  | e -> Alcotest.failf "x/3.0 must not reduce, got %s" (Kernel_ast.Print.expr_to_string e)

(* The strength-reduced operators agree with the raw ones at runtime in
   both engines, across an NDRange covering many values. *)
let test_strength_reduction_runtime () =
  let n = 64 in
  let k body =
    {
      name = "sr";
      precision = Double;
      params = [ param "out" Real ];
      global_size = [ Int_lit n ];
      local_size = [];
      body;
    }
  in
  let raw =
    k
      [
        Store
          ( "out",
            Global_id 0,
            Unop
              ( To_real,
                Binop
                  (Add, Binop (Div, Global_id 0, Int_lit 4), Binop (Mod, Global_id 0, Int_lit 8))
              ) );
      ]
  in
  let opt, r = Kernel_ast.Opt.optimize raw in
  Alcotest.(check bool) "shift/mask present" true (r.Kernel_ast.Opt.strength_reduced >= 2);
  let run launch k =
    let out = Array.make n 0. in
    launch k [ Vgpu.Args.Buf (Vgpu.Buffer.F out) ];
    out
  in
  let interp_n k args = Vgpu.Exec.launch k ~args ~global:[ n ] in
  let native_n k args = Vgpu.Native.launch (Vgpu.Native.compile k) ~args ~global:[ n ] in
  Alcotest.(check bool) "interp matches" true
    (bits_eq (run interp_n raw) (run interp_n opt));
  Alcotest.(check bool) "native matches" true
    (bits_eq (run native_n raw) (run native_n opt))

(* Dead locals disappear, including chains (an initialiser being the
   only reader of another local). *)
let test_dce_removes_chains () =
  let k =
    {
      name = "dce_me";
      precision = Double;
      params = [ param "out" Real ];
      global_size = [ Int_lit 1 ];
      local_size = [];
      body =
        [
          Decl (Real, "a", Some (Real_lit 1.5));
          (* b's initialiser is the only reader of a: removing b must
             make a dead on the next fixpoint round *)
          Decl (Real, "b", Some (Binop (Mul, Var "a", Real_lit 2.)));
          Decl (Real, "c", Some (Real_lit 3.));
          Store ("out", Int_lit 0, Var "c");
        ];
    }
  in
  let opt, r = Kernel_ast.Opt.optimize k in
  Alcotest.(check bool) "dead locals removed" true (r.Kernel_ast.Opt.dead_removed >= 2);
  let names =
    List.filter_map (function Decl (_, v, _) -> Some v | _ -> None) opt.body
  in
  Alcotest.(check bool) "a and b gone" true
    (not (List.mem "a" names) && not (List.mem "b" names))

(* CSE on the real codegen output: the FD-MM boundary kernel (compiled
   raw) must gain hoisted index temporaries and unrolled branch loops,
   with types resolved against the scope at the anchor point. *)
let test_cse_on_fd_mm () =
  let c =
    Lift_acoustics.Programs.compile ~name:"fd" ~optimize:false ~precision:Double
      (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ())
  in
  let opt, r = Kernel_ast.Opt.optimize c.Lift.Codegen.kernel in
  Alcotest.(check bool) "cse fired" true (r.Kernel_ast.Opt.cse_fired > 0);
  Alcotest.(check bool) "branch loops unrolled" true (r.Kernel_ast.Opt.unrolled > 0);
  let text = Kernel_ast.Print.kernel_to_string opt in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "temporaries in output" true (contains text "_cse")

(* -- Schemes: optimizer off vs on, bit-for-bit ------------------------ *)

let params = Params.default
let dims = Geometry.dims ~nx:14 ~ny:12 ~nz:10
let steps = 6

(* Kernels compiled raw so the runtime performs the optimization (the
   same path `racs simulate` and the bench use). *)
let lift_kernels scheme precision =
  let c name prog =
    (Lift_acoustics.Programs.compile ~name ~optimize:false ~precision prog)
      .Lift.Codegen.kernel
  in
  let volume = c "volume" (Lift_acoustics.Programs.volume ()) in
  match scheme with
  | `Fi -> [ volume; c "boundary_fi" (Lift_acoustics.Programs.boundary_fi ()) ]
  | `Fi_mm -> [ volume; c "boundary_fi_mm" (Lift_acoustics.Programs.boundary_fi_mm ()) ]
  | `Fd_mm ->
      [ volume; c "boundary_fd_mm" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ()) ]

let run ~optimize ?shards ~engine ~precision ~kernels () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let sim =
    Gpu_sim.create ~engine ~optimize ?shards ~precision ~fi_beta:0.2 ~n_branches:3 params
      room
  in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Gpu_sim.step sim kernels
  done;
  Gpu_sim.sync sim;
  sim

let check_state msg (a : State.t) (b : State.t) =
  Test_util.check_bits (msg ^ " curr") a.State.curr b.State.curr;
  Test_util.check_bits (msg ^ " prev") a.State.prev b.State.prev;
  Test_util.check_bits (msg ^ " g1") a.State.g1 b.State.g1;
  Test_util.check_bits (msg ^ " vel") a.State.vel_prev b.State.vel_prev

let test_schemes_bit_identical () =
  List.iter
    (fun (scheme_label, scheme) ->
      List.iter
        (fun precision ->
          let kernels = lift_kernels scheme precision in
          List.iter
            (fun (engine_label, engine, shards) ->
              let a = run ~optimize:false ?shards ~engine ~precision ~kernels () in
              let b = run ~optimize:true ?shards ~engine ~precision ~kernels () in
              let msg =
                Printf.sprintf "%s %s %s opt off vs on" scheme_label
                  (match precision with Single -> "single" | Double -> "double")
                  engine_label
              in
              check_state msg a.Gpu_sim.state b.Gpu_sim.state)
            [
              ("interp", `Interp, None);
              ("native", `Native, None);
              ("native 2-shard", `Native, Some 2);
            ])
        [ Double; Single ])
    [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

(* -- Stats plumbing --------------------------------------------------- *)

let test_stats_report_per_kernel () =
  let kernels = lift_kernels `Fd_mm Double in
  let sim = run ~optimize:true ~engine:`Native ~precision:Double ~kernels () in
  let s = Gpu_sim.stats sim in
  (match List.assoc_opt "boundary_fd_mm" s.Vgpu.Runtime.per_kernel with
  | None -> Alcotest.fail "no per-kernel stats for boundary_fd_mm"
  | Some k -> (
      match k.Vgpu.Runtime.k_opt with
      | None -> Alcotest.fail "no optimizer report recorded"
      | Some r ->
          Alcotest.(check bool) "cse counted" true (r.Kernel_ast.Opt.cse_fired > 0);
          Alcotest.(check bool) "unroll counted" true (r.Kernel_ast.Opt.unrolled > 0)));
  (* sharded runs merge the per-device reports: still present once *)
  let sharded = run ~optimize:true ~shards:2 ~engine:`Native ~precision:Double ~kernels () in
  let ss = Gpu_sim.stats sharded in
  (match List.assoc_opt "boundary_fd_mm" ss.Vgpu.Runtime.per_kernel with
  | Some { Vgpu.Runtime.k_opt = Some _; _ } -> ()
  | _ -> Alcotest.fail "sharded stats lost the optimizer report");
  (* optimizer off: no report *)
  let off = run ~optimize:false ~engine:`Native ~precision:Double ~kernels () in
  match List.assoc_opt "boundary_fd_mm" (Gpu_sim.stats off).Vgpu.Runtime.per_kernel with
  | Some { Vgpu.Runtime.k_opt = None; _ } -> ()
  | _ -> Alcotest.fail "optimizer off must record no report"

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_opt_preserves;
    QCheck_alcotest.to_alcotest qcheck_opt_twice;
    QCheck_alcotest.to_alcotest qcheck_simplify_kernel;
    Alcotest.test_case "constant-trip loops unroll" `Quick test_unroll_constant_trip;
    Alcotest.test_case "LICM hoists invariants" `Quick test_licm_hoists_invariant;
    Alcotest.test_case "strength reduction guards" `Quick test_strength_reduction_guards;
    Alcotest.test_case "strength reduction at runtime" `Quick test_strength_reduction_runtime;
    Alcotest.test_case "DCE removes dead chains" `Quick test_dce_removes_chains;
    Alcotest.test_case "CSE and unroll on FD-MM codegen" `Quick test_cse_on_fd_mm;
    Alcotest.test_case "FI/FI-MM/FD-MM bit-identical opt off vs on" `Slow
      test_schemes_bit_identical;
    Alcotest.test_case "optimizer reports surface in stats" `Quick
      test_stats_report_per_kernel;
  ]
