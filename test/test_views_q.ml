(* Deep property test of the view system: random chains of pattern
   compositions (pad, slide+reduce, split+reduce, map) are compiled and
   executed, and must agree with the IR interpreter elementwise.  This
   exercises exactly the machinery of paper §III-A: every pattern only
   wraps views, and indices are materialised at the final read. *)

open Lift

type chain_state = {
  expr : Ast.expr;
  len : int; (* concrete length; sizes are Const so kernels are closed *)
}

let scalar_funs =
  [|
    (fun x -> Ast.(x +! real 1.));
    (fun x -> Ast.(x *! real 0.5));
    (fun x -> Ast.(x *! x));
    (fun x -> Ast.((x +! real 2.) *! real 0.25));
  |]

let gen_chain : (Ast.param * Ast.expr * int) QCheck.Gen.t =
  let open QCheck.Gen in
  let start_len = 12 in
  let a = Ast.named_param "a" (Ty.array_n Ty.real start_len) in
  let rec go st k =
    if k = 0 then return st
    else
      let ops =
        List.concat
          [
            [
              ( 2,
                int_range 0 (Array.length scalar_funs - 1) >|= fun i ->
                {
                  st with
                  expr = Ast.map (Ast.lam1 Ty.real scalar_funs.(i)) st.expr;
                } );
            ];
            [
              ( 2,
                pair (int_range 0 2) (int_range 0 2) >|= fun (l, r) ->
                {
                  expr = Ast.Pad (l, r, Ast.real 0., st.expr);
                  len = st.len + l + r;
                } );
            ];
            (if st.len >= 3 then
               [
                 ( 2,
                   return
                     {
                       expr =
                         Ast.map
                           (Ast.lam1 (Ty.array_n Ty.real 3) (fun w ->
                                Ast.Reduce
                                  ( Ast.lam2 Ty.real Ty.real (fun acc x -> Ast.(acc +! x)),
                                    Ast.real 0.,
                                    w )))
                           (Ast.Slide (3, 1, st.expr));
                       len = st.len - 2;
                     } );
               ]
             else []);
            (if st.len mod 2 = 0 && st.len >= 2 then
               [
                 ( 1,
                   return
                     {
                       expr =
                         Ast.map
                           (Ast.lam1 (Ty.array_n Ty.real 2) (fun w ->
                                Ast.Reduce
                                  ( Ast.lam2 Ty.real Ty.real (fun acc x -> Ast.(acc +! x)),
                                    Ast.real 0.,
                                    w )))
                           (Ast.Split (Size.const 2, st.expr));
                       len = st.len / 2;
                     } );
               ]
             else []);
            (if st.len mod 3 = 0 && st.len >= 3 then
               [ (1, return { st with expr = Ast.Join (Ast.Split (Size.const 3, st.expr)) }) ]
             else []);
          ]
      in
      frequency ops >>= fun st' -> go st' (k - 1)
  in
  int_range 1 6 >>= fun depth ->
  go { expr = Ast.Param a; len = start_len } depth >|= fun st -> (a, st.expr, st.len)

let arb_chain =
  QCheck.make
    ~print:(fun (_, e, len) -> Printf.sprintf "len=%d %s" len (Ast.to_string e))
    gen_chain

let qcheck_chain_compile_matches_eval =
  QCheck.Test.make ~name:"random pattern chains: compiled == eval" ~count:250 arb_chain
    (fun (a, body, len) ->
      (* keep chains that end in arrays; wrap in a final glb map *)
      let prog =
        {
          Ast.l_params = [ a ];
          l_body = Ast.map_glb (Ast.lam1 Ty.real (fun x -> Ast.(x +! real 0.))) body;
        }
      in
      let input = Array.init 12 (fun i -> float_of_int (((i * 7) mod 13) - 6) /. 3.) in
      let expected =
        Eval.to_float_array (Eval.run prog [ Eval.of_float_array input ])
      in
      assert (Array.length expected = len);
      let c = Codegen.compile_kernel ~name:"chain" ~precision:Kernel_ast.Cast.Double prog in
      let out = Array.make len 0. in
      let args =
        List.map
          (fun (p : Kernel_ast.Cast.param) ->
            match p.p_name with
            | "a" -> Vgpu.Args.Buf (Vgpu.Buffer.F input)
            | "out" -> Vgpu.Args.Buf (Vgpu.Buffer.F out)
            | other -> (
                (* temporary buffers materialised by the memory
                   allocator (reduce results feeding later patterns) *)
                match List.assoc_opt other c.Codegen.temp_params with
                | Some ty -> (
                    match Size.to_int_opt (Ty.flat_length ty) with
                    | Some n -> Vgpu.Args.Buf (Vgpu.Buffer.F (Array.make n 0.))
                    | None -> failwith ("temp with symbolic size " ^ other))
                | None -> failwith ("unexpected param " ^ other)))
          c.Codegen.kernel.Kernel_ast.Cast.params
      in
      Vgpu.Exec.launch c.Codegen.kernel ~args ~global:[ len ];
      Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-10 *. (1. +. Float.abs x)) expected out)

let suite = [ QCheck_alcotest.to_alcotest qcheck_chain_compile_matches_eval ]
