(* Native compiled-C backend: differential validation and cache tests.

   Kernel-level: a synthetic kernel exercising every AST feature (loops,
   conditionals, private arrays, builtins, real/int Mod, logic, shifts,
   single-precision store rounding) runs through the interpreter and the
   native backend on identical inputs; every output buffer must match
   bit-for-bit, and random kernels from {!Gen_kernel} must agree up to
   rounding noise.  A qcheck property pins integer Div/Mod and real Mod
   semantics over signed operands on both engines (C truncates toward
   zero, like OCaml; real Mod is fmod = Float.rem), together with the
   edges of the in-place tagged int ABI: [max_int]/[min_int] scalars
   stored and wrapped to 63 bits, a store read back within the launch, a
   read-only int buffer left untouched, a zero-length binding.
   Int arrays and byte buffers young enough to move at the next minor
   collection are launched on while collections run, and must match the
   interpreter.

   The native source is a function of kernel structure only: lifting a
   program twice gives one cache key, and the simulation's device form
   (byte-stored nbrs) has a key of its own.

   Cache: compiles populate a content-addressed disk cache (atomic
   install); a warm run loads without recompiling, a corrupted entry is
   recompiled over rather than trusted, and optimization that changes
   the kernel changes the cache key.

   Without a C compiler the native engine falls back to the
   interpreter, bit-identically; a compiler that runs and fails still
   raises. *)

open Kernel_ast.Cast

(* Every test in this file runs against a scratch cache directory, not
   the user's real one. *)
let scratch_cache =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "racs-native-test-%d" (Unix.getpid ()))
     in
     Vgpu.Native.set_cache_dir dir;
     dir)

let use_scratch_cache () = ignore (Lazy.force scratch_cache)

(* -- Kernel-level differential --------------------------------------- *)

let n = 64

let torture_kernel ~precision =
  let g = Var "g" in
  {
    name = "native_torture";
    precision;
    params =
      [
        param "out" Real;
        param "src" Real;
        param "iout" Int;
        param "isrc" Int;
        param ~kind:Scalar_param "alpha" Real;
        param ~kind:Scalar_param "shift" Int;
      ];
    global_size = [ Int_lit n ];
    local_size = [];
    body =
      [
        Decl (Int, "g", Some (Global_id 0));
        Decl (Real, "acc", None);
        Decl_arr (Real, "scratch", 4);
        Decl_arr (Int, "iscr", 3);
        Store ("scratch", Int_lit 0, Load ("src", g));
        Store ("scratch", Int_lit 1, Call (Fabs, [ Load ("src", g) ]) +: Real_lit 1.5);
        Store
          ("scratch", Int_lit 2, Call (Sin, [ Load ("src", g) ]) *: Call (Cos, [ Var "alpha" ]));
        Store ("scratch", Int_lit 3, Call (Sqrt, [ Load ("scratch", Int_lit 1) ]));
        Store ("iscr", Int_lit 0, Load ("isrc", g));
        Store ("iscr", Int_lit 1, Load ("iscr", Int_lit 0) %: Int_lit 7);
        Store ("iscr", Int_lit 2, Load ("iscr", Int_lit 0) /: Int_lit 3);
        for_ "i" ~from:(Int_lit 0) ~below:(Int_lit 4)
          [ Assign ("acc", Var "acc" +: (Load ("scratch", Var "i") *: Var "alpha")) ];
        If
          ( g %: Int_lit 2 =: Int_lit 0,
            [ Assign ("acc", Var "acc" +: Call (Fmin, [ Load ("src", g); Real_lit 0.25 ])) ],
            [
              Assign ("acc", Var "acc" -: Call (Fmax, [ Load ("src", g); Real_lit (-0.25) ]));
            ] );
        Assign ("acc", Var "acc" +: Unop (To_real, Load ("iscr", Int_lit 1)));
        Assign ("acc", Binop (Mod, Var "acc", Real_lit 1.75));
        Assign
          ( "acc",
            Var "acc"
            +: Call (Exp, [ Call (Log, [ Call (Fabs, [ Load ("src", g) ]) +: Real_lit 1.0 ]) ])
          );
        Assign ("acc", Ternary (Load ("src", g) <: Real_lit 0.0, Unop (Neg, Var "acc"), Var "acc"));
        Assign ("acc", Var "acc" +: (Unop (To_real, Global_size 0) *: Real_lit 0.001));
        Assign ("acc", Var "acc" +: Call (Floor, [ Load ("src", g) ]));
        Store ("out", g, (Var "acc" *: Var "alpha") +: Load ("src", g));
        Store
          ( "iout",
            g,
            Load ("iscr", Int_lit 1)
            +: (Load ("iscr", Int_lit 2) *: Var "shift")
            +: Ternary ((g >: Int_lit 2) &&: (g <: Int_lit 60), Int_lit 1, Int_lit 0)
            +: Unop (Not, g =: Int_lit 5)
            +: Binop (Shr, g, Int_lit 1)
            +: Binop (BAnd, g, Int_lit 3)
            +: Ternary ((g =: Int_lit 0) ||: (g =: Int_lit 63), Int_lit 10, Int_lit 0)
            +: Unop (To_int, Var "acc") );
      ];
  }

let torture_args () =
  let src = Array.init n (fun i -> ((float_of_int i *. 0.7) -. 20.) *. 1.1) in
  let isrc = Array.init n (fun i -> (i * 13 mod 37) - 18) in
  let out = Array.make n 0. and iout = Array.make n 0 in
  let args =
    Vgpu.Args.
      [
        Buf (Vgpu.Buffer.F out);
        Buf (Vgpu.Buffer.F src);
        Buf (Vgpu.Buffer.I iout);
        Buf (Vgpu.Buffer.I isrc);
        Real_arg 0.9;
        Int_arg 3;
      ]
  in
  (out, iout, args)

let engines =
  [
    ("interp", fun k args global -> Vgpu.Exec.launch k ~args ~global);
    ("native", fun k args global -> Vgpu.Native.launch (Vgpu.Native.compile k) ~args ~global);
  ]

let test_torture_differential () =
  use_scratch_cache ();
  List.iter
    (fun (precision, plabel) ->
      List.iter
        (fun optimize ->
          let k = torture_kernel ~precision in
          let k = if optimize then fst (Kernel_ast.Opt.optimize k) else k in
          let results =
            List.map
              (fun (label, run) ->
                let out, iout, args = torture_args () in
                run k args [ n ];
                (label, out, iout))
              engines
          in
          match results with
          | (ref_label, ref_out, ref_iout) :: rest ->
              List.iter
                (fun (label, out, iout) ->
                  let msg what =
                    Printf.sprintf "torture %s opt=%b: %s vs %s %s" plabel optimize label
                      ref_label what
                  in
                  Test_util.check_bits (msg "out") ref_out out;
                  Alcotest.(check (array int)) (msg "iout") ref_iout iout)
                rest
          | [] -> assert false)
        [ false; true ])
    [ (Double, "double"); (Single, "single") ]

(* -- Signed Div/Mod semantics across engines ------------------------- *)

let moddiv_kernel =
  {
    name = "native_moddiv";
    precision = Double;
    params =
      [
        param "iout" Int;
        param "out" Real;
        param ~kind:Scalar_param "a" Int;
        param ~kind:Scalar_param "b" Int;
        param ~kind:Scalar_param "x" Real;
        param ~kind:Scalar_param "y" Real;
        param "iin" Int;
        param "iempty" Int;
      ];
    global_size = [ Int_lit 1 ];
    local_size = [];
    body =
      [
        Store ("iout", Int_lit 0, Var "a" /: Var "b");
        Store ("iout", Int_lit 1, Var "a" %: Var "b");
        Store ("out", Int_lit 0, Binop (Mod, Var "x", Var "y"));
        (* scalars stored as they are, then a store wrapping past
           max_int read back within the same launch *)
        Store ("iout", Int_lit 2, Var "a");
        Store ("iout", Int_lit 3, Var "b");
        Store ("iout", Int_lit 4, Var "a" +: Int_lit 1);
        Store ("iout", Int_lit 5, Load ("iout", Int_lit 4) /: Int_lit 2);
        (* a read-only int buffer; [iempty] is bound to [||] *)
        Store ("iout", Int_lit 6, Load ("iin", Int_lit 0) +: Load ("iin", Int_lit 1));
        Store ("iout", Int_lit 7, Load ("iin", Int_lit 2) -: Var "a");
      ];
  }

(* Mostly small operands, often the ends of OCaml's int range. *)
let edge_int =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      oneof
        [
          int_range (-1000) 1000;
          oneofl [ 0; -1; 1; max_int; min_int; max_int - 1; min_int + 1 ];
        ])

let qcheck_signed_moddiv =
  QCheck.Test.make ~name:"signed Div/Mod agree across interp/native" ~count:200
    QCheck.(quad edge_int edge_int (float_range (-100.) 100.) (float_range (-10.) 10.))
    (fun (a, b, x, y) ->
      use_scratch_cache ();
      let b = if b = 0 then 1 else b in
      let y = if y = 0. then 0.5 else y in
      let iin0 = [| max_int; min_int; -7 |] in
      let runs =
        List.map
          (fun (label, run) ->
            let iout = Array.make 8 0 and out = Array.make 1 0. in
            let iin = Array.copy iin0 in
            let args =
              Vgpu.Args.
                [
                  Buf (Vgpu.Buffer.I iout);
                  Buf (Vgpu.Buffer.F out);
                  Int_arg a;
                  Int_arg b;
                  Real_arg x;
                  Real_arg y;
                  Buf (Vgpu.Buffer.I iin);
                  Buf (Vgpu.Buffer.I [||]);
                ]
            in
            run moddiv_kernel args [ 1 ];
            (label, iout, out, iin))
          engines
      in
      List.for_all
        (fun (_, iout, out, iin) ->
          (* pinned semantics: truncation toward zero, fmod = Float.rem,
             OCaml's 63-bit wraparound on every stored int *)
          iout = [| a / b; a mod b; a; b; a + 1; (a + 1) / 2; max_int + min_int; -7 - a |]
          && Int64.equal (Int64.bits_of_float out.(0))
               (Int64.bits_of_float (Float.rem x y))
          && iin = iin0)
        runs)

(* -- Random kernels and launch basics ----------------------------------- *)

(* Native against the interpreter on random kernels, equal up to
   rounding noise with NaN matching NaN.  Every case is a cold cc run in
   the scratch cache (about 0.15 s), so the count stays small. *)
let qcheck_random_kernels =
  QCheck.Test.make ~name:"native == interpreter on random kernels" ~count:15
    Gen_kernel.arb_kernel (fun k ->
      use_scratch_cache ();
      let native =
        Gen_kernel.run
          (fun k ~args ~global -> Vgpu.Native.launch (Vgpu.Native.compile k) ~args ~global)
          k
      in
      Array.for_all2
        (fun a b ->
          (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-12 *. (1. +. Float.abs a))
        (Gen_kernel.run_interp k) native)

(* A loop bounded by a scalar parameter fills a private array; a second
   loop sums it. *)
let test_loop_and_private_array () =
  use_scratch_cache ();
  let k =
    {
      name = "native_loop";
      precision = Double;
      params = [ param "out" Real; param ~kind:Scalar_param "n" Int ];
      global_size = [ Int_lit 1 ];
      local_size = [];
      body =
        [
          Decl_arr (Real, "tmp", 4);
          for_ "i" ~from:(Int_lit 0) ~below:(Var "n")
            [ Store ("tmp", Var "i", Unop (To_real, Var "i" *: Var "i")) ];
          Decl (Real, "acc", Some (Real_lit 0.));
          for_ "j" ~from:(Int_lit 0) ~below:(Var "n")
            [ Assign ("acc", Var "acc" +: Load ("tmp", Var "j")) ];
          Store ("out", Int_lit 0, Var "acc");
        ];
    }
  in
  List.iter
    (fun (label, launch) ->
      let out = Array.make 1 0. in
      launch k [ Vgpu.Args.Buf (Vgpu.Buffer.F out); Vgpu.Args.Int_arg 4 ] [ 1 ];
      Alcotest.(check (float 0.)) (label ^ ": sum of squares") 14. out.(0))
    engines

(* Both engines reject a launch with the wrong argument count, and a
   scalar bound to a buffer parameter. *)
let test_arity_mismatch () =
  use_scratch_cache ();
  let k =
    {
      name = "native_arity";
      precision = Double;
      params = [ param "a" Real ];
      global_size = [ Int_lit 1 ];
      local_size = [];
      body = [];
    }
  in
  List.iter
    (fun (label, launch) ->
      (match launch k [] [ 1 ] with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: expected an arity error" label);
      match launch k [ Vgpu.Args.Int_arg 1 ] [ 1 ] with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: expected a kind mismatch error" label)
    engines

(* -- GC safety of the in-place int ABI -------------------------------- *)

(* Accumulates into an int buffer read and written in place. *)
let accum_kernel =
  let g = Global_id 0 in
  {
    name = "native_gc_accum";
    precision = Double;
    params = [ param "acc" Int; param "src" Int; param ~kind:Scalar_param "k" Int ];
    global_size = [ Int_lit n ];
    local_size = [];
    body = [ Store ("acc", g, (Load ("acc", g) *: Int_lit 3) +: (Load ("src", g) *: Var "k") -: g) ];
  }

(* The same accumulation through byte-stored buffers (wrapping mod
   256). *)
let accum_u8_kernel =
  with_u8 "acc" (with_u8 "src" { accum_kernel with name = "native_gc_accum_u8" })

(* The arrays are small enough to be allocated in the minor heap, so the
   first collection after a launch moves them.  Each round launches on
   fresh young arrays, collects, and launches again on the moved ones,
   while a second domain allocates and forces minor collections (each
   stops the world, which must wait for a launch to return).  A
   trampoline that released the runtime lock around the kernel fails
   this test.  Interp replays the same launches on copies.  A second leg
   does the same with young [Bytes] buffers, moved by a minor
   collection between its two launches. *)
let test_gc_safety () =
  use_scratch_cache ();
  let c = Vgpu.Native.compile accum_kernel in
  let cb = Vgpu.Native.compile accum_u8_kernel in
  let native args = Vgpu.Native.launch c ~args ~global:[ n ] in
  let interp args = Vgpu.Exec.launch accum_kernel ~args ~global:[ n ] in
  let native_u8 args = Vgpu.Native.launch cb ~args ~global:[ n ] in
  let interp_u8 args = Vgpu.Exec.launch accum_u8_kernel ~args ~global:[ n ] in
  let stop = Atomic.make false in
  let churn =
    Domain.spawn (fun () ->
        let keep = ref [] and count = ref 0 in
        while not (Atomic.get stop) do
          keep := Array.make 32 !count :: (if !count land 1023 = 0 then [] else !keep);
          if !count land 15 = 0 then Gc.minor ();
          incr count
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join churn)
    (fun () ->
      for round = 1 to 200 do
        let acc = Array.init n (fun i -> (i * round) - 40) in
        let src = Array.init n (fun i -> if i = 0 then max_int else (i * 7) - round) in
        let acc' = Array.copy acc and src' = Array.copy src in
        let args a s k = Vgpu.Args.[ Buf (Vgpu.Buffer.I a); Buf (Vgpu.Buffer.I s); Int_arg k ] in
        native (args acc src round);
        interp (args acc' src' round);
        if round mod 2 = 0 then Gc.minor () else Gc.full_major ();
        native (args acc src (-round));
        interp (args acc' src' (-round));
        Alcotest.(check (array int)) (Printf.sprintf "round %d acc" round) acc' acc;
        Alcotest.(check (array int)) (Printf.sprintf "round %d src unchanged" round) src' src;
        let acc = Bytes.init n (fun i -> Char.chr (((i * round) + 40) land 0xff)) in
        let src = Bytes.init n (fun i -> Char.chr (((i * 7) + round) land 0xff)) in
        let acc' = Bytes.copy acc and src' = Bytes.copy src in
        let args a s k = Vgpu.Args.[ Buf (Vgpu.Buffer.U8 a); Buf (Vgpu.Buffer.U8 s); Int_arg k ] in
        native_u8 (args acc src round);
        interp_u8 (args acc' src' round);
        Gc.minor ();
        native_u8 (args acc src (-round));
        interp_u8 (args acc' src' (-round));
        Alcotest.(check string) (Printf.sprintf "round %d u8 acc" round) (Bytes.to_string acc')
          (Bytes.to_string acc);
        Alcotest.(check string) (Printf.sprintf "round %d u8 src unchanged" round)
          (Bytes.to_string src') (Bytes.to_string src)
      done)

(* -- Binary cache behaviour ------------------------------------------ *)

let uniq = ref 0

let unique_kernel () =
  incr uniq;
  {
    name = Printf.sprintf "native_uniq_%d" !uniq;
    precision = Double;
    params = [ param "out" Real ];
    global_size = [ Int_lit 8 ];
    local_size = [];
    body =
      [
        Store
          ( "out",
            Global_id 0,
            Unop (To_real, Global_id 0) *: Real_lit (0.5 +. float_of_int !uniq) );
      ];
  }

let launch_and_read c =
  let out = Array.make 8 0. in
  Vgpu.Native.launch c ~args:[ Vgpu.Args.Buf (Vgpu.Buffer.F out) ] ~global:[ 8 ];
  out

let expected_of k =
  let out = Array.make 8 0. in
  Vgpu.Exec.launch k ~args:[ Vgpu.Args.Buf (Vgpu.Buffer.F out) ] ~global:[ 8 ];
  out

let test_cold_then_warm () =
  use_scratch_cache ();
  let k = unique_kernel () in
  Vgpu.Native.reset_counters ();
  let c1 = Vgpu.Native.compile k in
  let cold = Vgpu.Native.counters () in
  Alcotest.(check int) "cold run compiles" 1 cold.Vgpu.Native.c_compiles;
  Test_util.check_bits "cold result" (expected_of k) (launch_and_read c1);
  (* warm from disk: drop the in-process memo so the .so must be found *)
  Vgpu.Native.reset_memo ();
  Vgpu.Native.reset_counters ();
  let c2 = Vgpu.Native.compile k in
  let warm = Vgpu.Native.counters () in
  Alcotest.(check int) "warm run does not compile" 0 warm.Vgpu.Native.c_compiles;
  Alcotest.(check int) "warm run hits disk" 1 warm.Vgpu.Native.c_disk_hits;
  Test_util.check_bits "warm result" (expected_of k) (launch_and_read c2);
  (* warm from memo: no disk access at all *)
  Vgpu.Native.reset_counters ();
  let c3 = Vgpu.Native.compile k in
  let memo = Vgpu.Native.counters () in
  Alcotest.(check int) "memo run does not compile" 0 memo.Vgpu.Native.c_compiles;
  Alcotest.(check int) "memo run does not touch disk" 0 memo.Vgpu.Native.c_disk_hits;
  Alcotest.(check int) "memo run hits memo" 1 memo.Vgpu.Native.c_memo_hits;
  Test_util.check_bits "memo result" (expected_of k) (launch_and_read c3)

let test_corrupt_entry_recompiled () =
  use_scratch_cache ();
  let k = unique_kernel () in
  let c1 = Vgpu.Native.compile k in
  Test_util.check_bits "pre-corruption result" (expected_of k) (launch_and_read c1);
  (* clobber the cached object, then force a cold in-process path *)
  let so =
    Filename.concat (Vgpu.Native.cache_dir ()) (Vgpu.Native.cache_key k ^ ".so")
  in
  Alcotest.(check bool) "cache entry exists" true (Sys.file_exists so);
  (* replace, not truncate in place: [c1]'s mapping of the old inode
     must stay valid, as it would under the atomic-rename install *)
  Sys.remove so;
  let oc = open_out_bin so in
  output_string oc "this is not a shared object";
  close_out oc;
  Vgpu.Native.reset_memo ();
  Vgpu.Native.reset_counters ();
  let c2 = Vgpu.Native.compile k in
  let counters = Vgpu.Native.counters () in
  Alcotest.(check int) "corrupt entry forces a recompile" 1 counters.Vgpu.Native.c_compiles;
  Test_util.check_bits "post-corruption result" (expected_of k) (launch_and_read c2);
  (* and the rebuilt entry is trusted again *)
  Vgpu.Native.reset_memo ();
  Vgpu.Native.reset_counters ();
  ignore (Vgpu.Native.compile k);
  Alcotest.(check int)
    "rebuilt entry loads from disk" 1
    (Vgpu.Native.counters ()).Vgpu.Native.c_disk_hits

let test_opt_changes_cache_key () =
  use_scratch_cache ();
  (* Div by a power of two under a non-negativity proof: the optimizer
     strength-reduces it to a shift, so the optimized kernel must map to
     a different binary. *)
  let k =
    {
      name = "native_opt_key";
      precision = Double;
      params = [ param "iout" Int ];
      global_size = [ Int_lit 8 ];
      local_size = [];
      body = [ Store ("iout", Global_id 0, Global_id 0 /: Int_lit 4) ];
    }
  in
  let opt, _ = Kernel_ast.Opt.optimize k in
  Alcotest.(check bool) "optimizer changed the kernel" true (k <> opt);
  Alcotest.(check bool)
    "cache keys differ for raw vs optimized" true
    (Vgpu.Native.cache_key k <> Vgpu.Native.cache_key opt);
  (* same kernel, same toolchain: key is stable *)
  Alcotest.(check string)
    "cache key is deterministic" (Vgpu.Native.cache_key k) (Vgpu.Native.cache_key k)

(* Lift numbers generated names from a process-wide counter; the native
   source renames locals by declaration order, so a second lift of the
   same program maps to the same binary.  The device form the simulation
   launches (byte-stored nbrs) is another binary, again one per
   program. *)
let test_lift_twice_same_key () =
  let module P = Lift_acoustics.Programs in
  List.iter
    (fun (name, prog) ->
      let lift () = (P.compile ~name ~optimize:false ~precision:Double (prog ())).Lift.Codegen.kernel in
      let k1 = lift () and k2 = lift () in
      Alcotest.(check bool) (name ^ ": the two lifts differ in names") true (k1 <> k2);
      Alcotest.(check string) (name ^ ": one cache key") (Vgpu.Native.cache_key k1)
        (Vgpu.Native.cache_key k2);
      let d1 = Acoustics.Gpu_sim.device_form k1 and d2 = Acoustics.Gpu_sim.device_form k2 in
      Alcotest.(check string) (name ^ ": one device-form cache key") (Vgpu.Native.cache_key d1)
        (Vgpu.Native.cache_key d2);
      Alcotest.(check bool) (name ^ ": the device form has its own key") true
        (Vgpu.Native.cache_key d1 <> Vgpu.Native.cache_key k1))
    [
      ("volume", P.volume);
      ("boundary_fi", P.boundary_fi);
      ("boundary_fi_mm", P.boundary_fi_mm);
      ("boundary_fd_mm", fun () -> P.boundary_fd_mm ~mb:3 ());
    ]


(* -- Simulation-level differential: the acceptance criterion ---------- *)

(* FI / FI-MM / FD-MM for 10 steps, both precisions, opt off and on,
   native vs the single-device interpreter and vs native across 1-4
   Z-shards: every state array bit-for-bit identical (mirrors the
   sharded-backend cross-validation in test_shard.ml).  The fused FI
   kernel derives its boundary from global coordinates, so it runs on
   the full grid only. *)
let test_sim_differential () =
  use_scratch_cache ();
  let open Acoustics in
  let params = Params.default in
  let dims = Geometry.dims ~nx:14 ~ny:12 ~nz:10 in
  let steps = 10 in
  let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta in
  let kernels_of scheme precision =
    match scheme with
    | `Fi_fused -> [ Hand_kernels.fused_fi ~precision ]
    | `Fi -> [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]
    | `Fi_mm ->
        [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi_mm ~precision ~betas ]
    | `Fd_mm ->
        [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]
  in
  let run ?shards ~engine ~optimize ~kernels () =
    let room = Geometry.build ~n_materials:4 Geometry.Box dims in
    let sim = Gpu_sim.create ~engine ~optimize ?shards ~fi_beta:0.2 ~n_branches:3 params room in
    let cx, cy, cz = State.centre sim.Gpu_sim.state in
    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
    for _ = 1 to steps do
      Gpu_sim.step sim kernels
    done;
    Gpu_sim.sync sim;
    sim.Gpu_sim.state
  in
  let check_state msg (a : State.t) (b : State.t) =
    Test_util.check_bits (msg ^ " curr") a.State.curr b.State.curr;
    Test_util.check_bits (msg ^ " prev") a.State.prev b.State.prev;
    Test_util.check_bits (msg ^ " g1") a.State.g1 b.State.g1;
    Test_util.check_bits (msg ^ " vel") a.State.vel_prev b.State.vel_prev
  in
  List.iter
    (fun (scheme_label, scheme) ->
      List.iter
        (fun precision ->
          List.iter
            (fun optimize ->
              let kernels = kernels_of scheme precision in
              let label shards ref_label =
                Printf.sprintf "%s %s opt=%b native%s vs %s" scheme_label
                  (match precision with Single -> "single" | Double -> "double")
                  optimize
                  (if shards = 0 then "" else Printf.sprintf " shards=%d" shards)
                  ref_label
              in
              let native = run ~engine:`Native ~optimize ~kernels () in
              check_state (label 0 "interp") (run ~engine:`Interp ~optimize ~kernels ()) native;
              List.iter
                (fun shards ->
                  check_state (label shards "single-device native")
                    (run ~shards ~engine:`Native ~optimize ~kernels ())
                    native)
                (if scheme = `Fi_fused then [] else [ 2; 3; 4 ]))
            [ false; true ])
        [ Double; Single ])
    [ ("fi fused", `Fi_fused); ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

(* Runtime-level cache counters: repeated launches of the same kernels
   hit the bounded digest-keyed caches; reset_stats zeroes the counters
   but keeps the entries hot. *)
let test_runtime_cache_counters () =
  use_scratch_cache ();
  let open Acoustics in
  let dims = Geometry.dims ~nx:10 ~ny:8 ~nz:6 in
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let kernels =
    [ Hand_kernels.volume ~precision:Double;
      Hand_kernels.boundary_fi ~precision:Double ]
  in
  let sim = Gpu_sim.create ~engine:`Native ~fi_beta:0.2 ~n_branches:3 Params.default room in
  for _ = 1 to 5 do
    Gpu_sim.step sim kernels
  done;
  let s = Gpu_sim.stats sim in
  let counters label =
    match List.assoc_opt label s.Vgpu.Runtime.s_caches with
    | Some c -> c
    | None -> Alcotest.failf "no %s cache counters in stats" label
  in
  List.iter
    (fun label ->
      let c = counters label in
      Alcotest.(check int) (label ^ " misses = distinct kernels") 2 c.Vgpu.Kcache.c_misses;
      Alcotest.(check int) (label ^ " entries") 2 c.Vgpu.Kcache.c_entries;
      Alcotest.(check int) (label ^ " hits = remaining launches") 8 c.Vgpu.Kcache.c_hits)
    [ "opt"; "native" ];
  Gpu_sim.reset_stats sim;
  Gpu_sim.step sim kernels;
  let s = Gpu_sim.stats sim in
  let c = List.assoc "native" s.Vgpu.Runtime.s_caches in
  Alcotest.(check int) "after reset: no misses (entries kept)" 0 c.Vgpu.Kcache.c_misses;
  Alcotest.(check int) "after reset: every launch hits" 2 c.Vgpu.Kcache.c_hits

(* LRU eviction: a capacity-2 cache fed three distinct kernels in an
   a b c a pattern evicts and recompiles the stale entry. *)
let test_lru_eviction () =
  let cache = Vgpu.Kcache.create ~capacity:2 "t" in
  let calls = ref [] in
  let get k =
    Vgpu.Kcache.find_or_add cache k (fun () ->
        calls := k :: !calls;
        k)
  in
  List.iter (fun k -> ignore (get k)) [ "a"; "b"; "a"; "c"; "a"; "b" ];
  (* a,b fill; a touches; c evicts b (LRU); a hits; b recomputes evicting c *)
  Alcotest.(check (list string)) "computed in order" [ "a"; "b"; "c"; "b" ] (List.rev !calls);
  let c = Vgpu.Kcache.counters cache in
  Alcotest.(check int) "hits" 2 c.Vgpu.Kcache.c_hits;
  Alcotest.(check int) "misses" 4 c.Vgpu.Kcache.c_misses;
  Alcotest.(check int) "evictions" 2 c.Vgpu.Kcache.c_evictions;
  Alcotest.(check int) "entries" 2 c.Vgpu.Kcache.c_entries

(* -- Restrict emission and the aliased-launch fallback ---------------- *)

(* The write set behind the qualifiers: volume writes next only, the
   boundary kernel's indirect scatters still count as writes. *)
let test_written_params () =
  let open Acoustics in
  let w = Kernel_ast.Native_c.written_params (Hand_kernels.volume ~precision:Double) in
  Alcotest.(check (list string)) "volume writes next" [ "next" ] w;
  let wb = Kernel_ast.Native_c.written_params (Hand_kernels.boundary_fi ~precision:Double) in
  Alcotest.(check bool) "boundary scatter counts as a write" true (List.mem "next" wb);
  Alcotest.(check bool) "boundary index array is read-only" false (List.mem "bidx" wb);
  let wd =
    Kernel_ast.Native_c.written_params (Hand_kernels.boundary_fd_mm ~precision:Double ~mb:3)
  in
  Alcotest.(check (list string)) "FD-MM boundary writes the grid and its branch state"
    [ "next"; "g1"; "v1" ] wd

let test_restrict_qualifiers () =
  let open Acoustics in
  let src = Vgpu.Native.source (Hand_kernels.volume ~precision:Double) in
  let has needle = Test_util.contains src needle in
  Alcotest.(check bool) "read-only buffer is const restrict" true
    (has "const double * restrict curr = ");
  Alcotest.(check bool) "nbrs is const restrict" true
    (has "const int64_t * restrict nbrs = ");
  Alcotest.(check bool) "written buffer is restrict but not const" true
    (has "  double * restrict next = ");
  let plain = Vgpu.Native.source ~noalias:false (Hand_kernels.volume ~precision:Double) in
  Alcotest.(check bool) "noalias:false drops restrict" false
    (Test_util.contains plain "restrict");
  Alcotest.(check bool) "noalias:false keeps const" true
    (Test_util.contains plain "const double *")

(* out[i] = in[i] * 2 launched with out == in: element-wise well-defined,
   but a restrict-qualified binary is not licensed to run it.  The
   launcher must detect the hazard and dispatch the no-restrict
   rendering, producing the exact doubling. *)
let test_aliased_launch_falls_back () =
  use_scratch_cache ();
  let k =
    {
      name = "native_alias_probe";
      precision = Double;
      params = [ param "dst" Real; param "src" Real ];
      global_size = [ Int_lit 8 ];
      local_size = [];
      body = [ Store ("dst", Global_id 0, Load ("src", Global_id 0) *: Real_lit 2.0) ];
    }
  in
  let c = Vgpu.Native.compile k in
  Vgpu.Native.reset_counters ();
  let buf = Array.init 8 float_of_int in
  Vgpu.Native.launch c
    ~args:[ Vgpu.Args.Buf (Vgpu.Buffer.F buf); Vgpu.Args.Buf (Vgpu.Buffer.F buf) ]
    ~global:[ 8 ];
  Alcotest.(check (array (float 0.))) "aliased launch doubles in place"
    (Array.init 8 (fun i -> 2. *. float_of_int i))
    buf;
  let counters = Vgpu.Native.counters () in
  Alcotest.(check int) "fallback compiled the no-restrict variant" 1
    counters.Vgpu.Native.c_compiles;
  (* distinct buffers keep the restrict fast path: no further compiles *)
  Vgpu.Native.reset_counters ();
  let a = Array.init 8 float_of_int and b = Array.make 8 0. in
  Vgpu.Native.launch c
    ~args:[ Vgpu.Args.Buf (Vgpu.Buffer.F b); Vgpu.Args.Buf (Vgpu.Buffer.F a) ]
    ~global:[ 8 ];
  Alcotest.(check (array (float 0.))) "disjoint launch unchanged"
    (Array.init 8 (fun i -> 2. *. float_of_int i))
    b;
  let counters = Vgpu.Native.counters () in
  Alcotest.(check int) "no recompilation on the fast path" 0 counters.Vgpu.Native.c_compiles;
  (* a second aliased launch reuses the memoized fallback *)
  Vgpu.Native.reset_counters ();
  let buf2 = Array.init 8 float_of_int in
  Vgpu.Native.launch c
    ~args:[ Vgpu.Args.Buf (Vgpu.Buffer.F buf2); Vgpu.Args.Buf (Vgpu.Buffer.F buf2) ]
    ~global:[ 8 ];
  let counters = Vgpu.Native.counters () in
  Alcotest.(check int) "memoized fallback, no third compile" 0 counters.Vgpu.Native.c_compiles;
  (* byte storage: one Bytes bound to two byte parameters is aliased too *)
  let k8 =
    {
      k with
      name = "native_alias_probe_u8";
      params = [ param "dst" Int; param "src" Int ];
      body = [ Store ("dst", Global_id 0, Load ("src", Global_id 0) *: Int_lit 2) ];
    }
  in
  let c8 = Vgpu.Native.compile (with_u8 "dst" (with_u8 "src" k8)) in
  Vgpu.Native.reset_counters ();
  let b = Bytes.init 8 Char.chr in
  Vgpu.Native.launch c8
    ~args:[ Vgpu.Args.Buf (Vgpu.Buffer.U8 b); Vgpu.Args.Buf (Vgpu.Buffer.U8 b) ]
    ~global:[ 8 ];
  Alcotest.(check string) "aliased u8 launch doubles in place"
    (String.init 8 (fun i -> Char.chr (2 * i)))
    (Bytes.to_string b);
  Alcotest.(check int) "u8 aliasing detected: no-restrict variant compiled" 1
    (Vgpu.Native.counters ()).Vgpu.Native.c_compiles

(* A first native launch compiles (cc + dlopen) before the launch timer
   starts: on a fresh cache the compile happens, yet the recorded launch
   time is the kernel's alone. *)
let test_compile_not_timed () =
  let dir = Filename.concat (Lazy.force scratch_cache) "fresh" in
  Fun.protect
    ~finally:(fun () -> Vgpu.Native.set_cache_dir (Lazy.force scratch_cache))
    (fun () ->
      Vgpu.Native.set_cache_dir dir;
      Vgpu.Native.reset_counters ();
      let k = unique_kernel () in
      let rt = Vgpu.Runtime.create ~engine:Vgpu.Runtime.Native ~optimize:false () in
      Vgpu.Runtime.bind rt "out" (Vgpu.Buffer.F (Array.make 8 0.));
      Vgpu.Runtime.run rt
        [ Vgpu.Runtime.Launch { kernel = k; args = [ Vgpu.Runtime.A_buf "out" ]; global = [ 8 ] } ];
      Alcotest.(check int) "the first launch ran cc" 1
        (Vgpu.Native.counters ()).Vgpu.Native.c_compiles;
      match (Vgpu.Runtime.stats rt).Vgpu.Runtime.per_kernel with
      | [ (_, s) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "launch time %.3f ms excludes the compile"
               (s.Vgpu.Runtime.max_s *. 1e3))
            true (s.Vgpu.Runtime.max_s < 1e-3)
      | _ -> Alcotest.fail "expected one kernel's stats")

(* -- No C compiler ------------------------------------------------------ *)

(* With [RACS_CC] naming a missing program, the default engine runs each
   kernel on the interpreter: FD-MM on one device and on two shards
   matches [`Interp] bit-for-bit, the native engine was asked for every
   kernel, and nothing was compiled or loaded.  A compiler that runs and
   fails is a codegen bug, and still raises. *)
let test_no_compiler_fallback () =
  let open Acoustics in
  let saved_cc = Option.value (Sys.getenv_opt "RACS_CC") ~default:"" in
  let dir = Filename.concat (Lazy.force scratch_cache) "no-cc" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "RACS_CC" saved_cc;
      Vgpu.Native.set_cache_dir (Lazy.force scratch_cache))
    (fun () ->
      Vgpu.Native.set_cache_dir dir;
      Unix.putenv "RACS_CC" (Filename.concat dir "missing-cc");
      Vgpu.Native.reset_counters ();
      let room =
        Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:12 ~ny:10 ~nz:8)
      in
      let kernels =
        [ Hand_kernels.volume ~precision:Double; Hand_kernels.boundary_fd_mm ~precision:Double ~mb:3 ]
      in
      let run ?engine ?shards () =
        let sim = Gpu_sim.create ?engine ?shards ~n_branches:3 Params.default room in
        let cx, cy, cz = State.centre sim.Gpu_sim.state in
        State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
        for _ = 1 to 4 do
          Gpu_sim.step sim kernels
        done;
        Gpu_sim.sync sim;
        sim
      in
      let reference = (run ~engine:`Interp ()).Gpu_sim.state in
      List.iter
        (fun shards ->
          let sim = run ?shards () in
          let label =
            match shards with None -> "one device" | Some n -> Printf.sprintf "%d shards" n
          in
          Test_util.check_bits (label ^ " curr") reference.State.curr
            sim.Gpu_sim.state.State.curr;
          Test_util.check_bits (label ^ " g1") reference.State.g1 sim.Gpu_sim.state.State.g1;
          match List.assoc_opt "native" (Gpu_sim.stats sim).Vgpu.Runtime.s_caches with
          | Some c ->
              Alcotest.(check bool) (label ^ ": the native engine was asked") true
                (c.Vgpu.Kcache.c_misses > 0)
          | None -> Alcotest.fail "no native cache counters")
        [ None; Some 2 ];
      let c = Vgpu.Native.counters () in
      Alcotest.(check int) "nothing compiled" 0 c.Vgpu.Native.c_compiles;
      Alcotest.(check int) "nothing loaded" 0 c.Vgpu.Native.c_disk_hits;
      (match Vgpu.Native.compile (unique_kernel ()) with
      | exception Vgpu.Native.No_compiler _ -> ()
      | _ -> Alcotest.fail "compiled without a compiler");
      Unix.putenv "RACS_CC" "false";
      match run () with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "a compiler that fails was not reported")

let suite =
  [
    Alcotest.test_case "torture kernel bit-identical across engines" `Quick
      test_torture_differential;
    Alcotest.test_case "written-params write-set analysis" `Quick test_written_params;
    Alcotest.test_case "restrict/const qualifier emission" `Quick test_restrict_qualifiers;
    Alcotest.test_case "aliased launch falls back to no-restrict" `Quick
      test_aliased_launch_falls_back;
    QCheck_alcotest.to_alcotest qcheck_signed_moddiv;
    QCheck_alcotest.to_alcotest qcheck_random_kernels;
    Alcotest.test_case "loops and private arrays" `Quick test_loop_and_private_array;
    Alcotest.test_case "arity and kind mismatches" `Quick test_arity_mismatch;
    Alcotest.test_case "cold compile, warm disk hit, memo hit" `Quick test_cold_then_warm;
    Alcotest.test_case "corrupted cache entry is recompiled" `Quick
      test_corrupt_entry_recompiled;
    Alcotest.test_case "optimization changes the cache key" `Quick
      test_opt_changes_cache_key;
    Alcotest.test_case "lifting twice gives one cache key" `Quick test_lift_twice_same_key;
    Alcotest.test_case "GC safety: launches on moving int arrays" `Quick test_gc_safety;
    Alcotest.test_case "simulation bit-identical: schemes x precisions x shards" `Quick
      test_sim_differential;
    Alcotest.test_case "runtime cache counters in stats" `Quick test_runtime_cache_counters;
    Alcotest.test_case "a first launch's compile is not kernel time" `Quick test_compile_not_timed;
    Alcotest.test_case "LRU eviction at capacity" `Quick test_lru_eviction;
    Alcotest.test_case "no C compiler: the interpreter runs, bit-identically" `Quick
      test_no_compiler_fallback;
  ]
