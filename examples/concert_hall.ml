(* Concert hall: a shoebox hall with four wall materials, comparing
   frequency-independent (FI-MM) and frequency-dependent (FD-MM)
   boundaries — the paper's most realistic model.  Runs the full
   two-kernel pipeline with Lift-generated kernels, records an impulse
   response at a seat and estimates the decay rate from the
   Schroeder-style energy curve.

     dune exec examples/concert_hall.exe *)

open Acoustics

let decay_db_per_second ~sample_rate response =
  (* Fit a line to the log of the backward-integrated energy between the
     -5 dB and -25 dB points (a miniature T60 estimate). *)
  let n = Array.length response in
  let tail = Array.make n 0. in
  let acc = ref 0. in
  for i = n - 1 downto 0 do
    acc := !acc +. (response.(i) *. response.(i));
    tail.(i) <- !acc
  done;
  if tail.(0) <= 0. then 0.
  else begin
    let db i = 10. *. log10 (tail.(i) /. tail.(0)) in
    let i5 = ref 0 and i25 = ref (n - 1) in
    (try
       for i = 0 to n - 1 do
         if db i <= -5. then begin
           i5 := i;
           raise Exit
         end
       done
     with Exit -> ());
    (try
       for i = !i5 to n - 1 do
         if db i <= -25. then begin
           i25 := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !i25 <= !i5 then 0.
    else begin
      let dt = float_of_int (!i25 - !i5) /. sample_rate in
      (db !i25 -. db !i5) /. dt
    end
  end

let run_hall ~materials ~scheme ~label =
  let params = Params.default in
  let dims = Geometry.dims ~nx:48 ~ny:36 ~nz:28 in
  let room = Geometry.build ~n_materials:(Array.length materials) Geometry.Box dims in
  let precision = Kernel_ast.Cast.Double in
  let compile name prog =
    (Lift_acoustics.Programs.compile ~name ~precision prog).Lift.Codegen.kernel
  in
  let volume_k = compile "volume" (Lift_acoustics.Programs.volume ()) in
  let boundary_k =
    match scheme with
    | `Fi_mm -> compile "boundary_fi_mm" (Lift_acoustics.Programs.boundary_fi_mm ())
    | `Fd_mm -> compile "boundary_fd_mm" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ())
  in
  let sim = Gpu_sim.create ~materials ~n_branches:3 params room in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  (* impulse at the stage: front third of the hall *)
  State.add_impulse sim.Gpu_sim.state ~x:(cx / 2) ~y:cy ~z:cz;
  let steps = 450 in
  let energies = Array.make steps 0. in
  let seat = Array.make steps 0. in
  for k = 0 to steps - 1 do
    Gpu_sim.step sim [ volume_k; boundary_k ];
    energies.(k) <- Energy.kinetic_energy sim.Gpu_sim.state;
    seat.(k) <- State.read sim.Gpu_sim.state ~x:(cx + 12) ~y:(cy + 8) ~z:cz
  done;
  (* decay of the reverberant field: windowed energy early vs late *)
  let window a lo hi =
    let acc = ref 0. in
    for i = lo to hi - 1 do
      acc := !acc +. a.(i)
    done;
    !acc /. float_of_int (hi - lo)
  in
  let e_early = window energies 100 150 and e_late = window energies 400 450 in
  let dt = 325. /. params.Params.sample_rate in
  let decay = 10. *. log10 (e_late /. e_early) /. dt in
  Printf.printf "  %-22s decay %8.1f dB/s  (seat peak %+.5f, schroeder %7.1f dB/s)\n" label
    decay (Energy.max_abs seat)
    (decay_db_per_second ~sample_rate:params.Params.sample_rate seat)

let material_sets =
  [
    ( "hard shell (concrete)",
      [| Material.concrete; Material.concrete; Material.concrete; Material.concrete |] );
    ("mixed (default set)", Material.defaults);
    ( "damped (curtains)",
      [| Material.curtain; Material.curtain; Material.carpet; Material.curtain |] );
  ]

let () =
  Printf.printf "Concert hall, Lift-generated kernels, impulse at the stage\n";
  Printf.printf "\nfrequency-independent boundaries (FI-MM):\n";
  List.iter (fun (label, materials) -> run_hall ~materials ~scheme:`Fi_mm ~label) material_sets;
  Printf.printf "\nfrequency-dependent boundaries (FD-MM, 3 resonant branches):\n";
  List.iter (fun (label, materials) -> run_hall ~materials ~scheme:`Fd_mm ~label) material_sets;
  print_newline ();
  print_endline "Under FI-MM the flat admittance governs the decay.  Under FD-MM the";
  print_endline "branch resonances reshape absorption across frequency, so the ordering";
  print_endline "can change: that spectral behaviour is exactly why the paper's most";
  print_endline "realistic model stores per-point boundary state."
