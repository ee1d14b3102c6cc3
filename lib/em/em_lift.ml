(* The EM update kernels expressed in the Lift IR (paper §VIII).

   The magnetic-field kernel is the case the paper highlights: a *volume*
   kernel that updates two arrays (Hx, Hy) in place per work-item —
   acoustics only needed that for boundary state (FD-MM), but
   electromagnetic codes need it for the main field update.  The same
   [WriteTo]/multi-output machinery carries over unchanged. *)

open Lift

let n = Size.var "N"
let field_ty = Ty.array Ty.real n

let p = Ast.named_param

(* Magnetic field update: Hx and Hy both written in place. *)
let update_h () : Ast.lam =
  let ez = p "ez" field_ty in
  let hx = p "hx" field_ty in
  let hy = p "hy" field_ty in
  let nx = p "Nx" Ty.int in
  let ny = p "Ny" Ty.int in
  let s = p "S" Ty.real in
  let at a i = Ast.Array_access (Ast.Param a, i) in
  let body =
    Ast.map_glb
      (Ast.lam1 ~name:"idx" Ty.int (fun idx ->
           Ast.let_ ~name:"i" Ty.int Ast.(idx %! Param nx) (fun i ->
           Ast.let_ ~name:"j" Ty.int Ast.(idx /! Param nx) (fun j ->
               let guard =
                 Ast.(i <! (Param nx -! int 1) &&! (j <! (Param ny -! int 1)))
               in
               Ast.Tuple
                 [
                   Ast.Write_to
                     ( Ast.Array_access (Ast.Param hx, idx),
                       Ast.Select
                         ( guard,
                           Ast.(at hx idx -! (Param s *! (at ez (idx +! Param nx) -! at ez idx))),
                           at hx idx ) );
                   Ast.Write_to
                     ( Ast.Array_access (Ast.Param hy, idx),
                       Ast.Select
                         ( guard,
                           Ast.(at hy idx +! (Param s *! (at ez (idx +! int 1) -! at ez idx))),
                           at hy idx ) );
                 ]))))
      (Ast.Iota n)
  in
  { Ast.l_params = [ ez; hx; hy; nx; ny; s ]; l_body = body }

(* Electric field update: Ez written in place, with per-cell material
   coefficients; the outer PEC ring is never modified. *)
let update_e () : Ast.lam =
  let ez = p "ez" field_ty in
  let hx = p "hx" field_ty in
  let hy = p "hy" field_ty in
  let ca = p "ca" field_ty in
  let cb = p "cb" field_ty in
  let nx = p "Nx" Ty.int in
  let ny = p "Ny" Ty.int in
  let at a i = Ast.Array_access (Ast.Param a, i) in
  let body =
    Ast.Write_to
      ( Ast.Param ez,
        Ast.map_glb
          (Ast.lam1 ~name:"idx" Ty.int (fun idx ->
               Ast.let_ ~name:"i" Ty.int Ast.(idx %! Param nx) (fun i ->
               Ast.let_ ~name:"j" Ty.int Ast.(idx /! Param nx) (fun j ->
                   let guard =
                     Ast.(
                       (i >=! int 1)
                       &&! (i <! (Param nx -! int 1))
                       &&! (j >=! int 1)
                       &&! (j <! (Param ny -! int 1)))
                   in
                   Ast.Select
                     ( guard,
                       Ast.(
                         (at ca idx *! at ez idx)
                         +! (at cb idx
                            *! (at hy idx -! at hy (idx -! int 1)
                               -! (at hx idx -! at hx (idx -! Param nx))))),
                       at ez idx )))))
          (Ast.Iota n) )
  in
  { Ast.l_params = [ ez; hx; hy; ca; cb; nx; ny ]; l_body = body }

type compiled = {
  kernel_h : Kernel_ast.Cast.kernel;
  kernel_e : Kernel_ast.Cast.kernel;
  rt : Vgpu.Runtime.t;
}

let compile ?(precision = Kernel_ast.Cast.Double) () =
  let ck name prog =
    (Codegen.compile_kernel ~name ~precision (Rewrite.normalize_lam prog)).Codegen.kernel
  in
  let kernel_h = ck "em_update_h" (update_h ()) in
  let kernel_e = ck "em_update_e" (update_e ()) in
  { kernel_h; kernel_e; rt = Vgpu.Runtime.create ~precision () }

(* One full time step on a grid, through the virtual GPU. *)
let step (c : compiled) (g : Em_grid.t) =
  let n = Em_grid.n_cells g in
  let resolve (k : Kernel_ast.Cast.kernel) : Vgpu.Args.t list =
    List.map
      (fun (prm : Kernel_ast.Cast.param) ->
        match prm.p_name with
        | "ez" -> Vgpu.Args.Buf (Vgpu.Buffer.F g.Em_grid.ez)
        | "hx" -> Vgpu.Args.Buf (Vgpu.Buffer.F g.Em_grid.hx)
        | "hy" -> Vgpu.Args.Buf (Vgpu.Buffer.F g.Em_grid.hy)
        | "ca" -> Vgpu.Args.Buf (Vgpu.Buffer.F g.Em_grid.ca)
        | "cb" -> Vgpu.Args.Buf (Vgpu.Buffer.F g.Em_grid.cb)
        | "Nx" -> Vgpu.Args.Int_arg g.Em_grid.nx
        | "Ny" -> Vgpu.Args.Int_arg g.Em_grid.ny
        | "N" -> Vgpu.Args.Int_arg n
        | "S" -> Vgpu.Args.Real_arg Em_grid.courant
        | other -> failwith (Printf.sprintf "em: unknown kernel parameter %s" other))
      k.params
  in
  Vgpu.Runtime.launch_resolved c.rt c.kernel_h ~args:(resolve c.kernel_h) ~global:[ n ];
  Vgpu.Runtime.launch_resolved c.rt c.kernel_e ~args:(resolve c.kernel_e) ~global:[ n ]
