(* Quickstart: express a room-acoustics simulation in the Lift IR,
   compile it to an OpenCL kernel, run it on the virtual GPU, and listen
   at a receiver.

     dune exec examples/quickstart.exe *)

open Acoustics

let () =
  (* 1. A shoebox room, 2 m x 1.6 m x 1.2 m at a 44.1 kHz sample rate. *)
  let params = Params.default in
  let dims = Geometry.dims ~nx:40 ~ny:32 ~nz:24 in
  let room = Geometry.build ~n_materials:1 Geometry.Box dims in
  Printf.printf "room: %d voxels, %d boundary points, grid spacing %.1f mm\n"
    (Geometry.n_points dims) (Geometry.n_boundary room)
    (Params.grid_spacing params *. 1e3);

  (* 2. The Lift programs: a volume (stencil) kernel and an in-place
     boundary kernel using the paper's WriteTo/Concat/Skip primitives. *)
  let volume_prog = Lift_acoustics.Programs.volume () in
  let boundary_prog = Lift_acoustics.Programs.boundary_fi () in

  (* 3. Compile to OpenCL kernels. *)
  let precision = Kernel_ast.Cast.Double in
  let volume_k =
    (Lift_acoustics.Programs.compile ~name:"volume" ~precision volume_prog).Lift.Codegen.kernel
  in
  let boundary_k =
    (Lift_acoustics.Programs.compile ~name:"boundary_fi" ~precision boundary_prog)
      .Lift.Codegen.kernel
  in
  print_endline "\ngenerated boundary kernel:";
  print_endline (Kernel_ast.Print.kernel_to_string boundary_k);

  (* 4. Simulate an impulse and record the response at a receiver. *)
  let sim = Gpu_sim.create ~fi_beta:0.2 params room in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  let response =
    Gpu_sim.run sim [ volume_k; boundary_k ] ~steps:256 ~receiver:(cx + 8, cy, cz)
  in
  print_endline "impulse response (first 32 samples, 4 per line):";
  Array.iteri
    (fun i v ->
      if i < 32 then begin
        Printf.printf "%+.6f  " v;
        if (i + 1) mod 4 = 0 then print_newline ()
      end)
    response;
  Printf.printf "peak |response| = %.6f\n" (Energy.max_abs response)
