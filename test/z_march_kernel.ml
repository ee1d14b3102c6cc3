(* A volume kernel that marches z in registers, kept as a test fixture.

   Same update as the flat volume kernel, restructured the way 2.5D
   stencils are: a 2-D NDRange sweeps the XY plane, and each work-item
   loops over the z planes of its column, carrying the centre value of
   plane z into the next iteration as that plane's below-plane
   neighbour.  No load mentions z-1: only register provenance, aged by
   one trip of the z loop, shows that [curr] is read one plane down.
   No production path runs it; the footprint and optimizer-audit suites
   use it for that loop-carried register. *)

open Kernel_ast.Cast

let volume ?(name = "volume_zmarch") ~precision () : kernel =
  let i k = Int_lit k in
  let x = var "x" and y = var "y" and z = var "z" and idx = var "idx" in
  let nx = var "Nx" and nxny = var "NxNy" in
  let curr e = load "curr" e in
  (* the flat kernel's operand association:
     s = ((((west + east) + north) + south) + below) + above
     next = (((2 - l2*nbr) * centre) + l2*s) - prev *)
  let update =
    [
      Decl (Int, "idx", Some (((z *: nxny) +: (y *: nx)) +: x));
      Decl (Real, "cc", Some (load "curr" idx));
      Decl (Int, "nbr", Some (load "nbrs" idx));
      If
        ( var "nbr" >: i 0,
          [
            Decl
              ( Real,
                "s",
                Some
                  (curr (idx -: i 1) +: curr (idx +: i 1) +: curr (idx -: nx) +: curr (idx +: nx)
                  +: var "cb" +: curr (idx +: nxny)) );
            Store
              ( "next",
                idx,
                ((Real_lit 2.0 -: (var "l2" *: Unop (To_real, var "nbr"))) *: var "cc")
                +: (var "l2" *: var "s")
                -: load "prev" idx );
          ],
          [ Store ("next", idx, Real_lit 0.0) ] );
      (* march: this plane's centre is the next plane's below *)
      Assign ("cb", var "cc");
    ]
  in
  {
    name;
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
        Decl (Real, "cb", Some (Real_lit 0.0));
        For
          {
            var = "z";
            init = i 0;
            bound = var "Nz";
            step = i 1;
            body = [ If (x <: nx &&: (y <: var "Ny"), update, []) ];
          };
      ];
    global_size = [ nx; var "Ny" ];
    local_size = [];
  }
