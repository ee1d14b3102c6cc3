(* Dome: the non-cuboid room from the paper's introduction.  The implicit
   Boolean-formula boundary of a box does not work here; the explicit
   boundary data structures (nbrs, boundaryIndices, material) and the
   two-kernel pipeline are required.  Sweeps the wall material of a dome
   under FI-MM boundary handling and reports how fast the field decays.

     dune exec examples/dome_materials.exe *)

open Acoustics

let half_life_steps params room materials =
  let precision = Kernel_ast.Cast.Double in
  let volume_k =
    (Lift_acoustics.Programs.compile ~name:"volume" ~precision
       (Lift_acoustics.Programs.volume ()))
      .Lift.Codegen.kernel
  in
  let boundary_k =
    (Lift_acoustics.Programs.compile ~name:"boundary_fi_mm" ~precision
       (Lift_acoustics.Programs.boundary_fi_mm ()))
      .Lift.Codegen.kernel
  in
  let sim = Gpu_sim.create ~materials ~n_branches:3 params room in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:(cz / 2);
  (* settle, then measure windowed kinetic energy until it halves *)
  for _ = 1 to 50 do
    Gpu_sim.step sim [ volume_k; boundary_k ]
  done;
  let window () =
    let acc = ref 0. in
    for _ = 1 to 10 do
      Gpu_sim.step sim [ volume_k; boundary_k ];
      acc := !acc +. Energy.kinetic_energy sim.Gpu_sim.state
    done;
    !acc /. 10.
  in
  let e0 = window () in
  let steps = ref 60 in
  let rec go () =
    if window () > e0 /. 2. && !steps < 1500 then begin
      steps := !steps + 10;
      go ()
    end
  in
  go ();
  !steps

let () =
  let params = Params.default in
  let dims = Geometry.dims ~nx:42 ~ny:42 ~nz:22 in
  let room = Geometry.build ~n_materials:4 Geometry.Dome dims in
  let s = Geometry.stats Geometry.Dome dims in
  Printf.printf
    "dome %dx%dx%d: %d inside, %d boundary points (contiguity %.2f)\n\n"
    dims.Geometry.nx dims.ny dims.nz s.Geometry.s_inside s.Geometry.s_boundary
    s.Geometry.s_contiguity;
  List.iter
    (fun (label, m) ->
      let mats = Array.make 4 m in
      let hl = half_life_steps params room mats in
      Printf.printf "%-14s beta=%.2f   energy half-life %s %4d steps (%.1f ms)\n" label
        m.Material.beta
        (if hl >= 1500 then ">=" else "~ ")
        hl
        (float_of_int hl /. params.Params.sample_rate *. 1e3))
    [
      ("rigid", Material.rigid);
      ("concrete", Material.concrete);
      ("wood panel", Material.wood_panel);
      ("carpet", Material.carpet);
      ("curtain", Material.curtain);
    ];
  print_newline ();
  print_endline "Higher admittance (beta) absorbs faster: shorter half-life."
