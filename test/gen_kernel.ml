(* Random well-formed kernels for differential properties.  The
   generator produces kernels that are valid by construction
   (declared-before-use, in-bounds indices via modulo) over three
   buffers: [a] (real input), [out] (real output) and [idx] (int
   input), each [n_elems] long, on a 1-D NDRange of [n_elems]. *)

open Kernel_ast.Cast

let n_elems = 8

(* Generator state: names of declared scalars per type. *)
type genv = { ints : string list; reals : string list; mutable fresh : int }

let fresh g base =
  g.fresh <- g.fresh + 1;
  Printf.sprintf "%s%d" base g.fresh

let gen_int_expr (g : genv) : expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      ([ map (fun n -> Int_lit n) (int_range 0 7); return (Global_id 0) ]
      @ List.map (fun v -> return (Var v)) g.ints)
  in
  (* indices are kept in bounds with a mod *)
  let bounded e =
    Binop (Mod, Binop (Add, Binop (Mod, e, Int_lit n_elems), Int_lit n_elems), Int_lit n_elems)
  in
  sized @@ QCheck.Gen.fix (fun self k ->
      if k <= 0 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> Binop (Add, a, b)) (self (k / 2)) (self (k / 2));
            map2 (fun a b -> Binop (Sub, a, b)) (self (k / 2)) (self (k / 2));
            map2 (fun a b -> Binop (Mul, a, b)) (self (k / 2)) (self (k / 2));
            map2 (fun a b -> Binop (Lt, a, b)) (self (k / 2)) (self (k / 2));
            map (fun e -> Load ("idx", bounded e)) (self (k - 1));
            map3 (fun c a b -> Ternary (c, a, b)) (self (k / 3)) (self (k / 3)) (self (k / 3));
          ])

let gen_real_expr (g : genv) : expr QCheck.Gen.t =
  let open QCheck.Gen in
  let bounded e =
    Binop (Mod, Binop (Add, Binop (Mod, e, Int_lit n_elems), Int_lit n_elems), Int_lit n_elems)
  in
  let leaf =
    oneof
      ([ map (fun r -> Real_lit (float_of_int r /. 4.)) (int_range (-8) 8) ]
      @ List.map (fun v -> return (Var v)) g.reals)
  in
  sized @@ QCheck.Gen.fix (fun self k ->
      if k <= 0 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> Binop (Add, a, b)) (self (k / 2)) (self (k / 2));
            map2 (fun a b -> Binop (Sub, a, b)) (self (k / 2)) (self (k / 2));
            map2 (fun a b -> Binop (Mul, a, b)) (self (k / 2)) (self (k / 2));
            (gen_int_expr g >|= fun e -> Load ("a", bounded e));
            (gen_int_expr g >|= fun e -> Unop (To_real, e));
            map (fun a -> Call (Fabs, [ a ])) (self (k - 1));
          ])

let rec gen_stmts (g : genv) (depth : int) : stmt list QCheck.Gen.t =
  let open QCheck.Gen in
  let bounded e =
    Binop (Mod, Binop (Add, Binop (Mod, e, Int_lit n_elems), Int_lit n_elems), Int_lit n_elems)
  in
  if depth <= 0 then return []
  else
    let gen_one =
      frequency
        [
          ( 3,
            gen_int_expr g >|= fun e ->
            let v = fresh g "iv" in
            ([ Decl (Int, v, Some e) ], { g with ints = v :: g.ints }) );
          ( 3,
            gen_real_expr g >|= fun e ->
            let v = fresh g "rv" in
            ([ Decl (Real, v, Some e) ], { g with reals = v :: g.reals }) );
          ( 2,
            pair (gen_int_expr g) (gen_real_expr g) >|= fun (i, e) ->
            ([ Store ("out", bounded i, e) ], g) );
          ( 1,
            pair (gen_int_expr g) (gen_real_expr g) >|= fun (c, e) ->
            let v = fresh g "sv" in
            ( [ Decl (Real, v, None); If (c, [ Assign (v, e) ], [ Assign (v, Real_lit 0.) ]) ],
              { g with reals = v :: g.reals } ) );
        ]
    in
    gen_one >>= fun (stmts, g') ->
    gen_stmts g' (depth - 1) >|= fun rest -> stmts @ rest

let gen_kernel : kernel QCheck.Gen.t =
  let open QCheck.Gen in
  let g = { ints = [ "gid" ]; reals = []; fresh = 0 } in
  int_range 2 6 >>= fun depth ->
  gen_stmts g depth >|= fun body ->
  {
    name = "qk";
    precision = Double;
    params = [ param "a" Real; param "out" Real; param "idx" Int ];
    global_size = [ Int_lit n_elems ];
    local_size = [];
    body = Decl (Int, "gid", Some (Global_id 0)) :: body;
  }

let pp_kernel k = Kernel_ast.Print.kernel_to_string k

let arb_kernel = QCheck.make ~print:pp_kernel gen_kernel

(* Launch a generated kernel with [launch] on fresh inputs; returns
   [out]. *)
let run launch k =
  let a = Array.init n_elems (fun i -> float_of_int i /. 2.) in
  let out = Array.make n_elems 0. in
  let idx = Array.init n_elems (fun i -> i * 3 mod n_elems) in
  launch k
    ~args:[ Vgpu.Args.Buf (Vgpu.Buffer.F a); Buf (Vgpu.Buffer.F out); Buf (Vgpu.Buffer.I idx) ]
    ~global:[ n_elems ];
  out

let run_interp k = run (fun k ~args ~global -> Vgpu.Exec.launch k ~args ~global) k
