(* The room-acoustics kernels expressed in the Lift IR (paper §V).

   Buffer parameter names follow the convention shared with the
   hand-written kernels so the same driver ([Acoustics.Gpu_sim]) can run
   either side of every comparison:

     prev curr next         grid time levels, linearised, length N
     nbrs                   per-voxel inside-neighbour count, length N
     bidx material          boundary indices / material ids, length nB
     beta bi d f di         per-material coefficient tables
     g1 v2 v1               FD branch state, branch-major, length MB*nB

   Size variables: N (grid voxels), nB (boundary points), NM (materials);
   the ODE branch count MB is a compile-time constant, as in the paper's
   kernels.  Scalar parameters: l, l2 (Courant number and its square) and
   the grid strides Nx, NxNy. *)

open Lift

let n = Size.var "N"
let nb = Size.var "nB"
let nm = Size.var "NM"

let grid_ty = Ty.array Ty.real n
let nbrs_ty = Ty.array Ty.int n
let bidx_ty = Ty.array Ty.int nb
let material_ty = Ty.array Ty.int nb
let beta_ty = Ty.array Ty.real nm

let i6 = Ast.int 6
let r05 = Ast.real 0.5
let r1 = Ast.real 1.0
let r2 = Ast.real 2.0

(* 0.5 * l * (6 - nbr) * beta *)
let loss_coeff ~l ~nbr ~beta = Ast.(r05 *! l *! to_real (i6 -! nbr) *! beta)

(* The volume-handling kernel (paper Listing 2, kernel 1, as generated
   from Lift).  One work-item per voxel; points outside the room are
   rewritten to zero, which preserves the zero halo the stencil relies
   on. *)
let volume () : Ast.lam =
  let nbrs = Ast.named_param "nbrs" nbrs_ty in
  let prev = Ast.named_param "prev" grid_ty in
  let curr = Ast.named_param "curr" grid_ty in
  let next = Ast.named_param "next" grid_ty in
  let nx = Ast.named_param "Nx" Ty.int in
  let nxny = Ast.named_param "NxNy" Ty.int in
  let l2 = Ast.named_param "l2" Ty.real in
  let at arr i = Ast.Array_access (Ast.Param arr, i) in
  let body =
    Ast.Write_to
      ( Ast.Param next,
        Ast.map_glb
          (Ast.lam1 ~name:"idx" Ty.int (fun idx ->
               Ast.let_ ~name:"nbr" Ty.int (at nbrs idx) (fun nbr ->
                   Ast.Select
                     ( Ast.(nbr >! int 0),
                       Ast.let_ ~name:"s" Ty.real
                         Ast.(
                           at curr (idx -! int 1)
                           +! at curr (idx +! int 1)
                           +! at curr (idx -! Param nx)
                           +! at curr (idx +! Param nx)
                           +! at curr (idx -! Param nxny)
                           +! at curr (idx +! Param nxny))
                         (fun s ->
                           Ast.(
                             ((r2 -! (Param l2 *! to_real nbr)) *! at curr idx)
                             +! (Param l2 *! s)
                             -! at prev idx)),
                       Ast.real 0.0 ))))
          (Ast.Iota n) )
  in
  { Ast.l_params = [ nbrs; prev; curr; next; nx; nxny; l2 ]; l_body = body }

(* Frequency-independent single-material boundary handling (Listing 2,
   kernel 2): an in-place scatter over the boundary indices. *)
let boundary_fi () : Ast.lam =
  let bidx = Ast.named_param "bidx" bidx_ty in
  let nbrs = Ast.named_param "nbrs" nbrs_ty in
  let prev = Ast.named_param "prev" grid_ty in
  let next = Ast.named_param "next" grid_ty in
  let l = Ast.named_param "l" Ty.real in
  let beta = Ast.named_param "beta" Ty.real in
  let at arr i = Ast.Array_access (Ast.Param arr, i) in
  let body =
    Ast.Write_to
      ( Ast.Param next,
        Ast.map_glb
          (Ast.lam1 ~name:"idx" Ty.int (fun idx ->
               Ast.let_ ~name:"nbr" Ty.int (at nbrs idx) (fun nbr ->
                   Ast.let_ ~name:"cf" Ty.real
                     (loss_coeff ~l:(Ast.Param l) ~nbr ~beta:(Ast.Param beta))
                     (fun cf ->
                       Ast.scatter_row ~elt_ty:Ty.real ~n ~sym:"_sk_fi" ~index:idx
                         Ast.((at next idx +! (cf *! at prev idx)) /! (r1 +! cf))))))
          (Ast.Param bidx) )
  in
  { Ast.l_params = [ bidx; nbrs; prev; next; l; beta ]; l_body = body }

(* Frequency-independent multi-material boundary handling (paper
   Listing 7).  The per-material admittance [beta] is a kernel argument
   in global memory — the difference from the hand-written kernel the
   paper discusses in §VII-B1. *)
let boundary_fi_mm () : Ast.lam =
  let bidx = Ast.named_param "bidx" bidx_ty in
  let nbrs = Ast.named_param "nbrs" nbrs_ty in
  let material = Ast.named_param "material" material_ty in
  let beta = Ast.named_param "beta" beta_ty in
  let prev = Ast.named_param "prev" grid_ty in
  let next = Ast.named_param "next" grid_ty in
  let l = Ast.named_param "l" Ty.real in
  let at arr i = Ast.Array_access (Ast.Param arr, i) in
  let tup_ty = Ty.tuple [ Ty.int; Ty.int ] in
  let body =
    Ast.Write_to
      ( Ast.Param next,
        Ast.map_glb
          (Ast.lam1 ~name:"tup" tup_ty (fun tup ->
               Ast.let_ ~name:"idx" Ty.int (Ast.Get (tup, 0)) (fun idx ->
                   Ast.let_ ~name:"mi" Ty.int (Ast.Get (tup, 1)) (fun mi ->
                       Ast.let_ ~name:"nbr" Ty.int (at nbrs idx) (fun nbr ->
                           Ast.let_ ~name:"betaVal" Ty.real (at beta mi) (fun betav ->
                               Ast.let_ ~name:"cf" Ty.real
                                 (loss_coeff ~l:(Ast.Param l) ~nbr ~beta:betav)
                                 (fun cf ->
                                   Ast.scatter_row ~elt_ty:Ty.real ~n ~sym:"_sk_fimm"
                                     ~index:idx
                                     Ast.(
                                       (at next idx +! (cf *! at prev idx)) /! (r1 +! cf)))))))))
          (Ast.Zip [ Ast.Param bidx; Ast.Param material ]) )
  in
  { Ast.l_params = [ bidx; nbrs; material; beta; prev; next; l ]; l_body = body }

(* Frequency-dependent multi-material boundary handling (paper
   Listing 8): three arrays updated in place per boundary point, with
   per-point branch state staged in private memory.

   Two ablation knobs (exercised by the benchmark harness):
   - [staging]: [`Private] stages the per-point branch state in private
     memory, as the paper's kernel does; [`Global] re-reads it from
     global memory at each use.
   - [layout]: [`Branch_major] stores branch state as ci = b*nB + i
     (coalesced across work-items, the paper's layout); [`Point_major]
     as ci = i*MB + b (strided). *)
let boundary_fd_mm ?(staging = `Private) ?(layout = `Branch_major) ~mb () : Ast.lam =
  let coeff_len = Size.mul nm (Size.const mb) in
  let coeff_ty = Ty.array Ty.real coeff_len in
  let state_len = Size.mul (Size.const mb) nb in
  let state_ty = Ty.array Ty.real state_len in
  let bidx = Ast.named_param "bidx" bidx_ty in
  let nbrs = Ast.named_param "nbrs" nbrs_ty in
  let material = Ast.named_param "material" material_ty in
  let beta = Ast.named_param "beta_fd" beta_ty in
  let bi = Ast.named_param "bi" coeff_ty in
  let d = Ast.named_param "d" coeff_ty in
  let f = Ast.named_param "f" coeff_ty in
  let di = Ast.named_param "di" coeff_ty in
  let prev = Ast.named_param "prev" grid_ty in
  let next = Ast.named_param "next" grid_ty in
  let g1 = Ast.named_param "g1" state_ty in
  let v2 = Ast.named_param "v2" state_ty in
  let v1 = Ast.named_param "v1" state_ty in
  let l = Ast.named_param "l" Ty.real in
  let at arr i = Ast.Array_access (Ast.Param arr, i) in
  let tup_ty = Ty.tuple [ Ty.int; Ty.int; Ty.int ] in
  let priv_ty = Ty.array_n Ty.real mb in
  let pat arr i = Ast.Array_access (arr, i) in
  (* coefficient table lookup: tbl[mi * MB + b] *)
  let tbl arr mi b = at arr Ast.((mi *! int mb) +! b) in
  (* state index: branch-major ci = b*nB + i, or point-major i*MB + b *)
  let ci b i =
    match layout with
    | `Branch_major -> Ast.((b *! Size_val nb) +! i)
    | `Point_major -> Ast.((i *! int mb) +! b)
  in
  (* branch-state accessors, staged or direct per [staging] *)
  let with_staging i k =
    match staging with
    | `Private ->
        Ast.let_ ~name:"tg1" priv_ty
          (Ast.To_private
             (Ast.map (Ast.lam1 ~name:"b" Ty.int (fun b -> at g1 (ci b i)))
                (Ast.Iota (Size.const mb))))
          (fun tg1 ->
            Ast.let_ ~name:"tv2" priv_ty
              (Ast.To_private
                 (Ast.map (Ast.lam1 ~name:"b" Ty.int (fun b -> at v2 (ci b i)))
                    (Ast.Iota (Size.const mb))))
              (fun tv2 -> k (fun b -> pat tg1 b) (fun b -> pat tv2 b)))
    | `Global -> k (fun b -> at g1 (ci b i)) (fun b -> at v2 (ci b i))
  in
  let body =
    Ast.map_glb
      (Ast.lam1 ~name:"tup" tup_ty (fun tup ->
           Ast.let_ ~name:"idx" Ty.int (Ast.Get (tup, 0)) (fun idx ->
           Ast.let_ ~name:"mi" Ty.int (Ast.Get (tup, 1)) (fun mi ->
           Ast.let_ ~name:"i" Ty.int (Ast.Get (tup, 2)) (fun i ->
           Ast.let_ ~name:"nbr" Ty.int (at nbrs idx) (fun nbr ->
           Ast.let_ ~name:"cf1" Ty.real Ast.(Param l *! to_real (i6 -! nbr)) (fun cf1 ->
           Ast.let_ ~name:"cf" Ty.real Ast.(r05 *! cf1 *! at beta mi) (fun cf ->
           Ast.let_ ~name:"pv" Ty.real (at prev idx) (fun pv ->
           with_staging i (fun g1_at v2_at ->
           (* accumulate the branch fluxes into the stencil result *)
           Ast.let_ ~name:"nv" Ty.real
             (Ast.Reduce
                ( Ast.lam2 ~name1:"acc" ~name2:"b" Ty.real Ty.int (fun acc b ->
                      Ast.(
                        acc
                        -! (cf1 *! tbl bi mi b
                           *! ((r2 *! tbl d mi b *! v2_at b) -! (tbl f mi b *! g1_at b))))),
                  at next idx,
                  Ast.Iota (Size.const mb) ))
             (fun nv ->
           Ast.let_ ~name:"nvf" Ty.real Ast.((nv +! (cf *! pv)) /! (r1 +! cf)) (fun nvf ->
           let v1val b =
             Ast.(
               tbl bi mi b
               *! (nvf -! pv +! (tbl di mi b *! v2_at b) -! (r2 *! tbl f mi b *! g1_at b)))
           in
           let write_g1 =
             Ast.Write_to
               ( Ast.Param g1,
                 Ast.map
                   (Ast.lam1 ~name:"b" Ty.int (fun b ->
                        Ast.scatter_row ~elt_ty:Ty.real ~n:state_len ~sym:"_sk_g1"
                          ~index:(ci b i)
                          Ast.(g1_at b +! (r05 *! (v1val b +! v2_at b)))))
                   (Ast.Iota (Size.const mb)) )
           and write_v1 =
             Ast.Write_to
               ( Ast.Param v1,
                 Ast.map
                   (Ast.lam1 ~name:"b" Ty.int (fun b ->
                        Ast.scatter_row ~elt_ty:Ty.real ~n:state_len ~sym:"_sk_v1"
                          ~index:(ci b i) (v1val b)))
                   (Ast.Iota (Size.const mb)) )
           in
           (* Private staging makes the update order immaterial.  The
              unstaged variant re-reads g1 from global memory, so v1
              (which needs the *old* g1) must be written first — the
              hazard the paper's temporaries exist to avoid. *)
           let writes =
             match staging with
             | `Private -> [ write_g1; write_v1 ]
             | `Global -> [ write_v1; write_g1 ]
           in
           Ast.Tuple (Ast.Write_to (Ast.Array_access (Ast.Param next, idx), nvf) :: writes)))))))))))))
      (Ast.Zip [ Ast.Param bidx; Ast.Param material; Ast.Iota nb ])
  in
  {
    Ast.l_params = [ bidx; nbrs; material; beta; bi; d; f; di; prev; next; g1; v2; v1; l ];
    l_body = body;
  }

(* Fused stencil + naive frequency-independent boundary (paper §V-B,
   Listing 6 semantics): box rooms only, neighbour count computed from
   coordinates, single kernel.  One work-item per voxel of the linearised
   grid. *)
let fused_fi () : Ast.lam =
  let prev = Ast.named_param "prev" grid_ty in
  let curr = Ast.named_param "curr" grid_ty in
  let next = Ast.named_param "next" grid_ty in
  let nx = Ast.named_param "Nx" Ty.int in
  let ny = Ast.named_param "Ny" Ty.int in
  let nz = Ast.named_param "Nz" Ty.int in
  let nxny = Ast.named_param "NxNy" Ty.int in
  let l = Ast.named_param "l" Ty.real in
  let l2 = Ast.named_param "l2" Ty.real in
  let beta = Ast.named_param "beta" Ty.real in
  let at arr i = Ast.Array_access (Ast.Param arr, i) in
  let edge c = Ast.Select (c, Ast.int 0, Ast.int 1) in
  let body =
    Ast.Write_to
      ( Ast.Param next,
        Ast.map_glb
          (Ast.lam1 ~name:"idx" Ty.int (fun idx ->
               Ast.let_ ~name:"z" Ty.int Ast.(idx /! Param nxny) (fun z ->
               Ast.let_ ~name:"rem" Ty.int Ast.(idx %! Param nxny) (fun rem ->
               Ast.let_ ~name:"y" Ty.int Ast.(rem /! Param nx) (fun y ->
               Ast.let_ ~name:"x" Ty.int Ast.(rem %! Param nx) (fun x ->
               Ast.let_ ~name:"nbr" Ty.int
                 (Ast.Select
                    ( Ast.(
                        (x =! int 0) ||! (y =! int 0) ||! (z =! int 0)
                        ||! (x =! Param nx -! int 1)
                        ||! (y =! Param ny -! int 1)
                        ||! (z =! Param nz -! int 1)),
                      Ast.int 0,
                      Ast.(
                        edge (x =! int 1) +! edge (y =! int 1) +! edge (z =! int 1)
                        +! edge (x =! Param nx -! int 2)
                        +! edge (y =! Param ny -! int 2)
                        +! edge (z =! Param nz -! int 2)) ))
                 (fun nbr ->
                   Ast.Select
                     ( Ast.(nbr >! int 0),
                       Ast.let_ ~name:"s" Ty.real
                         Ast.(
                           at curr (idx -! int 1)
                           +! at curr (idx +! int 1)
                           +! at curr (idx -! Param nx)
                           +! at curr (idx +! Param nx)
                           +! at curr (idx -! Param nxny)
                           +! at curr (idx +! Param nxny))
                         (fun s ->
                           Ast.Select
                             ( Ast.(nbr <! i6),
                               Ast.let_ ~name:"cf" Ty.real
                                 (loss_coeff ~l:(Ast.Param l) ~nbr ~beta:(Ast.Param beta))
                                 (fun cf ->
                                   Ast.(
                                     (((r2 -! (Param l2 *! to_real nbr)) *! at curr idx)
                                     +! (Param l2 *! s)
                                     +! ((cf -! r1) *! at prev idx))
                                     /! (r1 +! cf))),
                               Ast.(
                                 ((r2 -! (Param l2 *! to_real nbr)) *! at curr idx)
                                 +! (Param l2 *! s)
                                 -! at prev idx) )),
                       Ast.real 0.0 ))))))))
          (Ast.Iota n) )
  in
  { Ast.l_params = [ prev; curr; next; nx; ny; nz; nxny; l; l2; beta ]; l_body = body }

(* Fused FI kernel in the style of the paper's Listing 6: a 3D NDRange
   over zip3(grid_prev, slide3(3,1, pad3(1,0, grid_curr)),
   array3(m,n,o, computeNumNeighbors)).  The grids carry no physical
   halo; [pad3] virtualises it, exactly as the Listing's composition
   does, and [slide3]/[pad3] are macro compositions of the 1D patterns
   (Macros), so no data is moved to form neighbourhoods.

   Grid type: [[ [real]Nx2 ]Ny2 ]Nz2 over the interior dimensions. *)
let nz2 = Size.var "Nz2"
let ny2 = Size.var "Ny2"
let nx2 = Size.var "Nx2"
let grid3_ty = Ty.array (Ty.array (Ty.array Ty.real nx2) ny2) nz2

let fused_fi_3d () : Ast.lam =
  let prev = Ast.named_param "prev" grid3_ty in
  let curr = Ast.named_param "curr" grid3_ty in
  let next = Ast.named_param "next" grid3_ty in
  let l = Ast.named_param "l" Ty.real in
  let l2 = Ast.named_param "l2" Ty.real in
  let beta = Ast.named_param "beta" Ty.real in
  let win_ty = Ty.array_n (Ty.array_n (Ty.array_n Ty.real 3) 3) 3 in
  let row_real = Ty.array Ty.real nx2 in
  let row_win = Ty.array win_ty nx2 in
  let row_int = Ty.array Ty.int nx2 in
  let slice_tup =
    Ty.tuple
      [ Ty.array row_real ny2; Ty.array row_win ny2; Ty.array row_int ny2 ]
  in
  let row_tup = Ty.tuple [ row_real; row_win; row_int ] in
  let cell_tup = Ty.tuple [ Ty.real; win_ty; Ty.int ] in
  (* computeNumNeighbors over interior coordinates *)
  let edge c = Ast.Select (c, Ast.int 0, Ast.int 1) in
  let nbr_of x y z =
    Ast.(
      edge (x =! int 0)
      +! edge (x =! (Size_val nx2 -! int 1))
      +! edge (y =! int 0)
      +! edge (y =! (Size_val ny2 -! int 1))
      +! edge (z =! int 0)
      +! edge (z =! (Size_val nz2 -! int 1)))
  in
  let nbrs3 =
    Ast.build ~name:"z" nz2 (fun z ->
        Ast.build ~name:"y" ny2 (fun y ->
            Ast.build ~name:"x" nx2 (fun x -> nbr_of x y z)))
  in
  let padded = Macros.pad3 1 1 (Ast.real 0.) ~ty:grid3_ty (Ast.Param curr) in
  let padded_ty =
    Ty.array
      (Ty.array (Ty.array Ty.real (Size.add nx2 (Size.const 2))) (Size.add ny2 (Size.const 2)))
      (Size.add nz2 (Size.const 2))
  in
  let wins = Macros.slide3 3 1 ~ty:padded_ty padded in
  let wat w dz dy dx =
    Ast.Array_access
      (Ast.Array_access (Ast.Array_access (w, Ast.int dz), Ast.int dy), Ast.int dx)
  in
  let compute tup =
    Ast.let_ ~name:"pv" Ty.real (Ast.Get (tup, 0)) (fun pv ->
    Ast.let_ ~name:"nbr" Ty.int (Ast.Get (tup, 2)) (fun nbr ->
        let w = Ast.Get (tup, 1) in
        Ast.let_ ~name:"s" Ty.real
          Ast.(
            wat w 1 1 0 +! wat w 1 1 2 +! wat w 1 0 1 +! wat w 1 2 1 +! wat w 0 1 1
            +! wat w 2 1 1)
          (fun sum ->
            Ast.let_ ~name:"centre" Ty.real (wat w 1 1 1) (fun centre ->
                Ast.Select
                  ( Ast.(nbr <! int 6),
                    Ast.let_ ~name:"cf" Ty.real
                      (loss_coeff ~l:(Ast.Param l) ~nbr ~beta:(Ast.Param beta))
                      (fun cf ->
                        Ast.(
                          (((r2 -! (Param l2 *! to_real nbr)) *! centre)
                          +! (Param l2 *! sum)
                          +! ((cf -! r1) *! pv))
                          /! (r1 +! cf))),
                    Ast.(
                      ((r2 -! (Param l2 *! to_real nbr)) *! centre)
                      +! (Param l2 *! sum)
                      -! pv) )))))
  in
  let body =
    Ast.Write_to
      ( Ast.Param next,
        Ast.map_glb ~dim:2
          (Ast.lam1 ~name:"slice" slice_tup (fun sl ->
               Ast.map_glb ~dim:1
                 (Ast.lam1 ~name:"row" row_tup (fun rw ->
                      Ast.map_glb ~dim:0
                        (Ast.lam1 ~name:"cell" cell_tup compute)
                        (Ast.Zip [ Ast.Get (rw, 0); Ast.Get (rw, 1); Ast.Get (rw, 2) ])))
                 (Ast.Zip [ Ast.Get (sl, 0); Ast.Get (sl, 1); Ast.Get (sl, 2) ])))
          (Ast.Zip [ Ast.Param prev; wins; nbrs3 ]) )
  in
  { Ast.l_params = [ prev; curr; next; l; l2; beta ]; l_body = body }

(* Compile any of the programs above into a kernel with a given
   precision, after the standard rewrite normalisation.  By default the
   kernel then goes through the [Kernel_ast.Opt] pass pipeline, matching
   what a production code generator would hand to the driver; pass
   [~optimize:false] for the raw codegen output (golden tests, or when a
   runtime with its own optimization stage will launch the kernel). *)
let compile ?(name = "lift_kernel") ?(optimize = true) ~precision (prog : Ast.lam) =
  let prog = Rewrite.normalize_lam prog in
  let compiled = Codegen.compile_kernel ~name ~precision prog in
  if optimize then
    let kernel, _report = Kernel_ast.Opt.optimize compiled.Codegen.kernel in
    { compiled with Codegen.kernel }
  else compiled
