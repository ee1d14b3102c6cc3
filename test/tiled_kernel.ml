(* A 2.5D-tiled volume kernel, kept only as a test fixture for the
   work-group tier.

   Same update as the flat volume kernel, restructured the way
   hand-tuned FDTD kernels are: a 2D NDRange of (tw x th) work-groups
   sweeps the XY plane, each group staging its (tw+2) x (th+2) tile of
   [curr] — centre plus one-deep halo — in [__local] memory, while each
   work-item marches Z sequentially keeping the below-plane value in a
   register and reading the above-plane value from global memory.  The
   NDRange rounds up to the tile size; out-of-room work-items load
   nothing and store nothing but still reach both barriers.

   No production path runs it (on a CPU host it is slower than the flat
   kernel, see EXPERIMENTS.md); the suites use it because it reaches code
   no smaller kernel does at once: the footprint analysis's provenance
   through loop-carried registers and a [__local] tile, the optimizer's
   containment on a barrier-carrying loop, the static verifier's barrier
   verdict, both renderers' grouped-kernel output and the performance
   model's local-memory arm. *)

open Kernel_ast.Cast

let volume ?(name = "volume_tiled") ~precision ~tile:(tw, th) () : kernel =
  let tw2 = tw + 2 in
  let i k = Int_lit k in
  (* tile slot of the column (lx + dx, ly + dy); halo offset included *)
  let slot ~dy ~dx =
    ((Local_id 1 +: i (dy + 1)) *: i tw2) +: (Local_id 0 +: i (dx + 1))
  in
  let tile_at ~dy ~dx = load "tile" (slot ~dy ~dx) in
  let x = var "x" and y = var "y" and z = var "z" in
  let nx = var "Nx" and ny = var "Ny" and nxny = var "NxNy" in
  let pidx dx dy = ((z *: nxny) +: ((y +: i dy) *: nx)) +: (x +: i dx) in
  (* cooperative tile load for plane [z]: centre by every in-room
     work-item, halos by the edge lanes; each slot written by at most
     one work-item, corners (never read) by none *)
  let load_tile =
    [
      If (x <: nx &&: (y <: ny), [ Store ("tile", slot ~dy:0 ~dx:0, load "curr" (pidx 0 0)) ], []);
      If
        ( Local_id 0 =: i 0 &&: (x >=: i 1) &&: (x -: i 1 <: nx) &&: (y <: ny),
          [ Store ("tile", slot ~dy:0 ~dx:(-1), load "curr" (pidx (-1) 0)) ],
          [] );
      If
        ( Local_id 0 =: i (tw - 1) &&: (x +: i 1 <: nx) &&: (y <: ny),
          [ Store ("tile", slot ~dy:0 ~dx:1, load "curr" (pidx 1 0)) ],
          [] );
      If
        ( Local_id 1 =: i 0 &&: (y >=: i 1) &&: (y -: i 1 <: ny) &&: (x <: nx),
          [ Store ("tile", slot ~dy:(-1) ~dx:0, load "curr" (pidx 0 (-1))) ],
          [] );
      If
        ( Local_id 1 =: i (th - 1) &&: (y +: i 1 <: ny) &&: (x <: nx),
          [ Store ("tile", slot ~dy:1 ~dx:0, load "curr" (pidx 0 1)) ],
          [] );
    ]
  in
  (* flat kernel's operand association, verbatim:
     s = ((((west + east) + north) + south) + below) + above
     next = (((2 - l2*nbr) * centre) + l2*s) - prev *)
  let compute =
    If
      ( x <: nx &&: (y <: ny),
        [
          Decl (Int, "idx", Some (((z *: nxny) +: (y *: nx)) +: x));
          Decl (Int, "nbr", Some (load "nbrs" (var "idx")));
          If
            ( var "nbr" >: i 0,
              [
                Decl
                  ( Real,
                    "s",
                    Some
                      (tile_at ~dy:0 ~dx:(-1) +: tile_at ~dy:0 ~dx:1
                      +: tile_at ~dy:(-1) ~dx:0 +: tile_at ~dy:1 ~dx:0
                      +: var "cb"
                      +: load "curr" (var "idx" +: nxny)) );
                Store
                  ( "next",
                    var "idx",
                    ((Real_lit 2.0 -: (var "l2" *: Unop (To_real, var "nbr")))
                     *: tile_at ~dy:0 ~dx:0)
                    +: (var "l2" *: var "s")
                    -: load "prev" (var "idx") );
              ],
              [ Store ("next", var "idx", Real_lit 0.0) ] );
          (* march: this plane's centre becomes next iteration's below *)
          Assign ("cb", tile_at ~dy:0 ~dx:0);
        ],
        [] )
  in
  let pad e t = Binop (Mul, Binop (Div, e +: i (t - 1), i t), i t) in
  {
    name = Printf.sprintf "%s_%dx%d" name tw th;
    precision;
    params =
      [
        param "nbrs" Int;
        param "prev" Real;
        param "curr" Real;
        param "next" Real;
        param ~kind:Scalar_param "Nx" Int;
        param ~kind:Scalar_param "Ny" Int;
        param ~kind:Scalar_param "Nz" Int;
        param ~kind:Scalar_param "NxNy" Int;
        param ~kind:Scalar_param "l2" Real;
      ];
    body =
      [
        Decl (Int, "x", Some (Global_id 0));
        Decl (Int, "y", Some (Global_id 1));
        Decl_local (Real, "tile", tw2 * (th + 2));
        Decl (Real, "cb", Some (Real_lit 0.0));
        For
          {
            var = "z";
            init = i 0;
            bound = var "Nz";
            step = i 1;
            body =
              (* first barrier: plane z-1's tile reads are done before
                 this iteration overwrites the tile *)
              (Barrier :: load_tile) @ [ Barrier; compute ];
          };
      ];
    global_size = [ pad nx tw; pad ny th ];
    local_size = [ tw; th ];
  }
