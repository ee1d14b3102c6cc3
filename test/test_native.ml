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

   Every production kernel renders without an [#include]; a binary
   that imports [memset] from libc loads under the default
   [-nostdlib] link, and flags that link the C start files again key
   another binary with the same results.

   Without a C compiler, or with one that cannot be executed, the
   native engine falls back to the interpreter, bit-identically; a
   compiler that runs and fails still raises.

   Batches: a cold simulation step builds its kernels in one cc run, on
   one device and on shards under every schedule, installs each under
   its own key and loads it from disk afterwards; a batch builds only
   what is missing, a failing unit is rebuilt kernel by kernel, and a
   step that --verify refuses builds nothing.  The NDRange rank rule
   holds on every engine and in Check. *)

open Kernel_ast.Cast

(* Every test in this file runs against a cache directory of its own
   under the test scratch root. *)
let scratch_cache =
  lazy
    (let dir = Test_util.scratch_dir "native-test" in
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
  Alcotest.(check bool) "cold run times cc" true (cold.Vgpu.Native.c_cc_ns > 0);
  Alcotest.(check bool) "cold run times dlopen" true (cold.Vgpu.Native.c_dlopen_ns > 0);
  Test_util.check_bits "cold result" (expected_of k) (launch_and_read c1);
  (* warm from disk: drop the in-process memo so the .so must be found *)
  Vgpu.Native.reset_memo ();
  Vgpu.Native.reset_counters ();
  let c2 = Vgpu.Native.compile k in
  let warm = Vgpu.Native.counters () in
  Alcotest.(check int) "warm run does not compile" 0 warm.Vgpu.Native.c_compiles;
  Alcotest.(check int) "warm run hits disk" 1 warm.Vgpu.Native.c_disk_hits;
  Alcotest.(check int) "warm run spends no cc time" 0 warm.Vgpu.Native.c_cc_ns;
  Alcotest.(check bool) "warm run times dlopen" true (warm.Vgpu.Native.c_dlopen_ns > 0);
  Test_util.check_bits "warm result" (expected_of k) (launch_and_read c2);
  (* warm from memo: no disk access at all *)
  Vgpu.Native.reset_counters ();
  let c3 = Vgpu.Native.compile k in
  let memo = Vgpu.Native.counters () in
  Alcotest.(check int) "memo run does not compile" 0 memo.Vgpu.Native.c_compiles;
  Alcotest.(check int) "memo run does not touch disk" 0 memo.Vgpu.Native.c_disk_hits;
  Alcotest.(check int) "memo run hits memo" 1 memo.Vgpu.Native.c_memo_hits;
  Alcotest.(check int) "memo run spends no dlopen time" 0 memo.Vgpu.Native.c_dlopen_ns;
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


(* -- The header-free prelude and the lean link line -------------------- *)

(* Every kernel a simulation or [racs check --engine native] compiles:
   hand-written and Lift-generated, both precisions, raw and optimized,
   as given and in the simulation's device form, with and without
   [restrict].  None of their sources includes a header. *)
let test_sources_include_no_header () =
  let open Acoustics in
  let module P = Lift_acoustics.Programs in
  let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta in
  List.iter
    (fun precision ->
      let lift name prog = (P.compile ~name ~optimize:false ~precision prog).Lift.Codegen.kernel in
      List.iter
        (fun k ->
          let opt = fst (Kernel_ast.Opt.optimize k) in
          List.iter
            (fun k ->
              List.iter
                (fun noalias ->
                  let src = Vgpu.Native.source ~noalias k in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s (noalias %b): no #include" k.name noalias)
                    false
                    (Test_util.contains src "#include"))
                [ true; false ])
            [ k; opt; Gpu_sim.device_form k; Gpu_sim.device_form opt ])
        [
          Hand_kernels.fused_fi ~precision;
          Hand_kernels.volume ~precision;
          Hand_kernels.boundary_fi ~precision;
          Hand_kernels.boundary_fi_mm ~precision ~betas;
          Hand_kernels.boundary_fd_mm ~precision ~mb:3;
          lift "lift_fused_fi" (P.fused_fi ());
          lift "lift_volume" (P.volume ());
          lift "lift_boundary_fi" (P.boundary_fi ());
          lift "lift_boundary_fi_mm" (P.boundary_fi_mm ());
          lift "lift_boundary_fd_mm" (P.boundary_fd_mm ~mb:3 ());
          lift "lift_fused_fi_3d" (P.fused_fi_3d ());
        ])
    [ Double; Single ]

(* Each work-item zeroes a private array of 4096 doubles: at -O2 the C
   compiler turns that into a call to [memset], which a [-nostdlib]
   link leaves undefined in the binary.  The dlopen resolves it against
   the process's libc, and the results match the interpreter. *)
let test_libc_import_loads () =
  use_scratch_cache ();
  let g = Var "g" in
  let k =
    {
      name = "native_big_private";
      precision = Double;
      params = [ param "out" Real; param "src" Real ];
      global_size = [ Int_lit n ];
      local_size = [];
      body =
        [
          Decl (Int, "g", Some (Global_id 0));
          Decl_arr (Real, "big", 4096);
          Store ("big", (g *: Int_lit 37) %: Int_lit 4096, Load ("src", g));
          Decl (Real, "acc", Some (Real_lit 0.));
          for_ "i" ~from:(Int_lit 0) ~below:(Int_lit 4096)
            [
              Assign
                ("acc", Var "acc" +: (Load ("big", Var "i") *: Unop (To_real, Var "i" +: Int_lit 1)));
            ];
          Store ("out", g, Var "acc");
        ];
    }
  in
  let run launch =
    let out = Array.make n 0. and src = Array.init n (fun i -> (float_of_int i *. 0.3) -. 7.) in
    launch ~args:Vgpu.Args.[ Buf (Vgpu.Buffer.F out); Buf (Vgpu.Buffer.F src) ] ~global:[ n ];
    out
  in
  Test_util.check_bits "private array zeroed per work-item"
    (run (Vgpu.Exec.launch k))
    (run (Vgpu.Native.launch (Vgpu.Native.compile k)))

(* [RACS_CFLAGS] replaces the default flags whole: the flags before
   [-nostdlib] was added link the C start files again, key another
   binary and give the same bits. *)
let test_cflags_override () =
  use_scratch_cache ();
  let saved = Option.value (Sys.getenv_opt "RACS_CFLAGS") ~default:"" in
  let k = torture_kernel ~precision:Double in
  let run () =
    let out, iout, args = torture_args () in
    Vgpu.Native.launch (Vgpu.Native.compile k) ~args ~global:[ n ];
    (out, iout)
  in
  let key = Vgpu.Native.cache_key k in
  let out, iout = run () in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RACS_CFLAGS" saved)
    (fun () ->
      Unix.putenv "RACS_CFLAGS" "-O2 -fPIC -shared -fno-fast-math -ffp-contract=off -fwrapv";
      Alcotest.(check bool) "the override keys another binary" true
        (Vgpu.Native.cache_key k <> key);
      let out', iout' = run () in
      Test_util.check_bits "out" out out';
      Alcotest.(check (array int)) "iout" iout iout')


(* libm is linked only into units whose entries call one of the
   prelude's eight libm functions: the units a step of each benchmark
   scheme builds (Lift kernels, device forms, the volume's offset form)
   link without [-lm], and a kernel calling every one of the eight
   links it, loads and matches the interpreter.  A compiler wrapper
   logs each command line. *)
let test_libm_only_where_called () =
  let open Acoustics in
  let saved_cc = Option.value (Sys.getenv_opt "RACS_CC") ~default:"" in
  let dir = Filename.concat (Lazy.force scratch_cache) "libm" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "RACS_CC" saved_cc;
      Vgpu.Native.set_cache_dir (Lazy.force scratch_cache))
    (fun () ->
      Vgpu.Native.set_cache_dir dir;
      let log = Filename.concat dir "cc.log" and cc = Filename.concat dir "logging-cc" in
      Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_trunc ] 0o755 cc (fun oc ->
          Printf.fprintf oc "#!/bin/sh\necho \"$*\" >> %s\nexec cc \"$@\"\n" (Filename.quote log));
      Unix.putenv "RACS_CC" cc;
      let lines () = In_channel.with_open_bin log In_channel.input_lines in
      let module P = Lift_acoustics.Programs in
      let lift name prog = (P.compile ~name ~optimize:false ~precision:Double prog).Lift.Codegen.kernel in
      let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:12 ~ny:10 ~nz:8) in
      List.iter
        (fun boundary ->
          let sim = Gpu_sim.create ~engine:`Native ~n_branches:3 Params.default room in
          Gpu_sim.step sim [ lift "volume" (P.volume ()); boundary ])
        [
          lift "boundary_fi" (P.boundary_fi ());
          lift "boundary_fi_mm" (P.boundary_fi_mm ());
          lift "boundary_fd_mm" (P.boundary_fd_mm ~mb:3 ());
        ];
      Alcotest.(check int) "one cc run per scheme" 3 (List.length (lines ()));
      List.iter
        (fun l ->
          if Test_util.contains l "-lm" then Alcotest.failf "a benchmark unit links libm: %s" l)
        (lines ());
      let x = Load ("src", Global_id 0) in
      let k =
        {
          name = "libm_probe";
          precision = Double;
          params = [ param "out" Real; param "src" Real ];
          global_size = [ Int_lit 8 ];
          local_size = [];
          body =
            [
              Store
                ( "out",
                  Global_id 0,
                  Call (Sqrt, [ Call (Fabs, [ x ]) ])
                  +: Call (Exp, [ x *: Real_lit 0.1 ])
                  +: Call (Log, [ Call (Fabs, [ x ]) +: Real_lit 1. ])
                  +: Call (Sin, [ x ]) +: Call (Cos, [ x ]) +: Call (Floor, [ x ])
                  +: Binop (Mod, x, Real_lit 0.7) );
            ];
        }
      in
      Alcotest.(check bool) "the probe calls libm" true (Kernel_ast.Native_c.calls_libm k);
      let run launch =
        let out = Array.make 8 0. and src = Array.init 8 (fun i -> (float_of_int i *. 1.3) -. 4.) in
        launch ~args:Vgpu.Args.[ Buf (Vgpu.Buffer.F out); Buf (Vgpu.Buffer.F src) ] ~global:[ 8 ];
        out
      in
      Test_util.check_bits "every libm function, native vs interpreter"
        (run (Vgpu.Exec.launch k))
        (run (Vgpu.Native.launch (Vgpu.Native.compile k)));
      match List.rev (lines ()) with
      | last :: _ ->
          Alcotest.(check bool) ("the probe's unit links libm: " ^ last) true
            (Test_util.contains last "-lm")
      | [] -> Alcotest.fail "no cc run logged")

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

(* -- Prepared launches --------------------------------------------------- *)

(* A steady one-device step only reads argument cells, compares launch
   signatures and calls the compiled entries: it allocates a few dozen
   words, and verification adds none.  Nor does it on an overlapped
   2-shard FD-MM step, whose split volume kernel launches over three
   ranges per device: each range's signature is verified once.  A
   steady span dispatch allocates nothing. *)
let test_steady_step_allocation () =
  use_scratch_cache ();
  let open Acoustics in
  let module P = Lift_acoustics.Programs in
  let lift name prog = (P.compile ~name ~optimize:false ~precision:Double prog).Lift.Codegen.kernel in
  let kernels = [ lift "volume" (P.volume ()); lift "boundary_fi" (P.boundary_fi ()) ] in
  let steps = 20 in
  let words ?shards ?schedule ~dims kernels verify =
    let room = Geometry.build ~n_materials:4 Geometry.Box dims in
    let sim =
      Gpu_sim.create ~engine:`Native ?shards ?schedule ~verify ~fi_beta:0.1 ~n_branches:3
        Params.default room
    in
    for _ = 1 to 3 do
      Gpu_sim.step sim kernels
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to steps do
      Gpu_sim.step sim kernels
    done;
    Gc.minor_words () -. w0
  in
  let dims = Geometry.dims ~nx:32 ~ny:24 ~nz:20 in
  let plain = words ~dims kernels false and verified = words ~dims kernels true in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per step, at most 256" (plain /. float_of_int steps))
    true
    (plain <= 256. *. float_of_int steps);
  Alcotest.(check (float 0.)) "verification allocates nothing per step" plain verified;
  let fd_mm = [ lift "volume" (P.volume ()); lift "boundary_fd_mm" (P.boundary_fd_mm ~mb:3 ()) ] in
  let overlapped = words ~shards:2 ~schedule:`Overlap ~dims:(Geometry.dims ~nx:16 ~ny:12 ~nz:10) fd_mm in
  Alcotest.(check (float 0.)) "2-shard overlapped FD-MM: verification allocates nothing per step"
    (overlapped false) (overlapped true);
  (* a steady span dispatch: the launcher passes the span table in place *)
  let k =
    {
      name = "steady_span_probe";
      precision = Double;
      params = [ param "out" Real ];
      global_size = [ Int_lit 16 ];
      local_size = [];
      body = [ Store ("out", Global_id 0, Real_lit 1.) ];
    }
  in
  let l = Vgpu.Native.launcher (Vgpu.Native.compile k) in
  let args = [| Vgpu.Args.Buf (Vgpu.Buffer.F (Array.make 16 0.)) |] in
  let spans = Some (Vgpu.Spans.of_list [ (1, 4); (4, 6); (9, 16) ]) and global = [ 16 ] in
  Vgpu.Native.dispatch ?spans l args ~global;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    Vgpu.Native.dispatch ?spans l args ~global
  done;
  Alcotest.(check (float 0.)) "a steady span dispatch allocates nothing" 0. (Gc.minor_words () -. w0)

(* A prepared launch re-verifies when a buffer extent changes: after
   steady launches, rebinding a parameter to a shorter array is
   refused rather than launched out of bounds. *)
let test_rebind_shorter_refused () =
  use_scratch_cache ();
  let k =
    {
      name = "prepared_copy";
      precision = Double;
      params = [ param "dst" Real; param "src" Real ];
      global_size = [ Int_lit 8 ];
      local_size = [];
      body = [ Store ("dst", Global_id 0, Load ("src", Global_id 0)) ];
    }
  in
  let rt = Vgpu.Runtime.create ~verify:true () in
  Vgpu.Runtime.bind rt "dst" (Vgpu.Buffer.F (Array.make 8 0.));
  Vgpu.Runtime.bind rt "src" (Vgpu.Buffer.F (Array.init 8 float_of_int));
  let op =
    Vgpu.Runtime.Launch
      {
        kernel = k;
        args = [ Vgpu.Runtime.A_buf "dst"; Vgpu.Runtime.A_buf "src" ];
        global = [ 8 ];
        spans = None;
      }
  in
  for _ = 1 to 3 do
    Vgpu.Runtime.run_op rt op
  done;
  Vgpu.Runtime.bind rt "src" (Vgpu.Buffer.F (Array.make 4 0.));
  (match Vgpu.Runtime.run_op rt op with
  | exception Vgpu.Runtime.Unsafe_kernel _ -> ()
  | () -> Alcotest.fail "a launch reading past a rebound 4-element src was dispatched");
  Alcotest.(check int) "only the three clean launches count" 3
    (Vgpu.Runtime.stats rt).Vgpu.Runtime.s_launches

(* One Launch op, dispatched first on distinct arrays and then with one
   array bound to both its written and its read parameter: both runs
   match the interpreter, and the aliased one compiles the no-restrict
   variant. *)
let test_launch_op_alias_rebind () =
  use_scratch_cache ();
  let k =
    {
      name = "prepared_alias_probe";
      precision = Double;
      params = [ param "dst" Real; param "src" Real ];
      global_size = [ Int_lit 8 ];
      local_size = [];
      body = [ Store ("dst", Global_id 0, (Load ("src", Global_id 0) *: Real_lit 2.0) +: Real_lit 1.0) ];
    }
  in
  let interp dst src = Vgpu.Exec.launch k ~args:Vgpu.Args.[ Buf (Vgpu.Buffer.F dst); Buf (Vgpu.Buffer.F src) ] ~global:[ 8 ] in
  let rt = Vgpu.Runtime.create ~optimize:false () in
  let dst = Array.make 8 0. and src = Array.init 8 float_of_int in
  Vgpu.Runtime.bind rt "dst" (Vgpu.Buffer.F dst);
  Vgpu.Runtime.bind rt "src" (Vgpu.Buffer.F src);
  let op =
    Vgpu.Runtime.Launch
      {
        kernel = k;
        args = [ Vgpu.Runtime.A_buf "dst"; Vgpu.Runtime.A_buf "src" ];
        global = [ 8 ];
        spans = None;
      }
  in
  Vgpu.Native.reset_counters ();
  Vgpu.Runtime.run_op rt op;
  let dst' = Array.make 8 0. in
  interp dst' (Array.init 8 float_of_int);
  Test_util.check_bits "distinct arrays" dst' dst;
  Alcotest.(check int) "the restrict variant compiled" 1 (Vgpu.Native.counters ()).Vgpu.Native.c_compiles;
  Vgpu.Runtime.bind rt "src" (Vgpu.Buffer.F dst);
  Vgpu.Native.reset_counters ();
  Vgpu.Runtime.run_op rt op;
  let both = Array.copy dst' in
  interp both both;
  Test_util.check_bits "one array for dst and src" both dst;
  Alcotest.(check int) "the no-restrict variant compiled" 1
    (Vgpu.Native.counters ()).Vgpu.Native.c_compiles

(* Statistics reset between steps: the next step counts one launch per
   kernel, not the ones before the reset. *)
let test_reset_then_step () =
  use_scratch_cache ();
  let open Acoustics in
  let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:10 ~ny:8 ~nz:6) in
  let kernels = [ Hand_kernels.volume ~precision:Double; Hand_kernels.boundary_fi ~precision:Double ] in
  let sim = Gpu_sim.create ~engine:`Native ~fi_beta:0.2 ~n_branches:3 Params.default room in
  for _ = 1 to 3 do
    Gpu_sim.step sim kernels
  done;
  Gpu_sim.reset_stats sim;
  Gpu_sim.step sim kernels;
  let s = Gpu_sim.stats sim in
  Alcotest.(check int) "two launches" 2 s.Vgpu.Runtime.s_launches;
  List.iter
    (fun (name, k) -> Alcotest.(check int) (name ^ " launched once") 1 k.Vgpu.Runtime.k_launches)
    s.Vgpu.Runtime.per_kernel;
  Alcotest.(check int) "both kernels listed" 2 (List.length s.Vgpu.Runtime.per_kernel)

(* One device binds the state's arrays once and rotates the bindings:
   after every step [state] names the arrays bound, so reads through it
   and through the simulation agree.  Its boundary data are the room's
   own arrays, bound without a copy. *)
let test_single_device_state_live () =
  use_scratch_cache ();
  let open Acoustics in
  let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:12 ~ny:10 ~nz:8) in
  let kernels = [ Hand_kernels.volume ~precision:Double; Hand_kernels.boundary_fd_mm ~precision:Double ~mb:3 ] in
  let sim = Gpu_sim.create ~engine:`Native ~n_branches:3 Params.default room in
  Alcotest.(check int) "one device" 1 (Vgpu.Multi.n_devices sim.Gpu_sim.multi);
  let rt = Vgpu.Multi.device sim.Gpu_sim.multi 0 in
  (match
     ( Vgpu.Runtime.buffer rt "nbrs",
       Vgpu.Runtime.buffer rt "bidx",
       Vgpu.Runtime.buffer rt "material" )
   with
  | Vgpu.Buffer.U8 nbrs, Vgpu.Buffer.I bidx, Vgpu.Buffer.I material ->
      Alcotest.(check bool) "nbrs is the room's byte grid" true (nbrs == room.Geometry.nbrs_u8);
      Alcotest.(check bool) "bidx is the room's boundary indices" true
        (bidx == room.Geometry.boundary_indices);
      Alcotest.(check bool) "material is the room's material ids" true
        (material == room.Geometry.material)
  | _ -> Alcotest.fail "the boundary data are not bound as bytes and ints");
  let st = sim.Gpu_sim.state in
  let cx, cy, cz = State.centre st in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  let bound name = match Vgpu.Runtime.buffer rt name with Vgpu.Buffer.F a -> a | _ -> [||] in
  for n = 1 to 6 do
    Gpu_sim.step sim kernels;
    List.iter
      (fun (name, a) ->
        Alcotest.(check bool) (Printf.sprintf "step %d: state %s is the bound array" n name) true
          (a == bound name))
      [ ("prev", st.State.prev); ("curr", st.State.curr); ("next", st.State.next);
        ("v2", st.State.vel_prev); ("v1", st.State.vel_next); ("g1", st.State.g1) ];
    Alcotest.(check (float 0.)) (Printf.sprintf "step %d: read" n)
      (State.read st ~x:(cx + 1) ~y:cy ~z:cz)
      (Gpu_sim.read sim ~x:(cx + 1) ~y:cy ~z:cz)
  done

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
  (* the qualifiers sit on the body function's parameters *)
  Alcotest.(check bool) "read-only buffer is const restrict" true
    (has "const double * restrict curr,");
  Alcotest.(check bool) "nbrs is const restrict" true
    (has "const int64_t * restrict nbrs,");
  Alcotest.(check bool) "written buffer is restrict but not const" true
    (has "double * restrict next," && not (has "const double * restrict next"));
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

(* A probe whose answer depends on whether the C compiler trusts
   [restrict]: each work item runs dst[i] = src[i] + 1, then dst[i] =
   dst[i] + src[i].  Launched with dst == src, [Exec] reads the first
   store back through src and computes 2x + 2, while a build that keeps
   src[i] in a register across the store to dst computes 2x + 1.  So the
   launcher must dispatch the no-restrict build on that launch, for real
   and byte buffers alike, and keep the restrict build, with no further
   cc run, on a disjoint one. *)
let test_aliased_probe_answer () =
  use_scratch_cache ();
  List.iter
    (fun (what, ty, one, fresh) ->
      let k =
        {
          name = "native_alias_answer_" ^ what;
          precision = Double;
          params = [ param "dst" ty; param "src" ty ];
          global_size = [ Int_lit 8 ];
          local_size = [];
          body =
            [
              Store ("dst", Global_id 0, Load ("src", Global_id 0) +: one);
              Store ("dst", Global_id 0, Load ("dst", Global_id 0) +: Load ("src", Global_id 0));
            ];
        }
      in
      let k = if ty = Int then with_u8 "dst" (with_u8 "src" k) else k in
      let ints b = Array.init 8 (Vgpu.Buffer.get_int b) in
      let c = Vgpu.Native.compile k in
      let want = fresh () in
      Vgpu.Exec.launch k ~args:[ Vgpu.Args.Buf want; Vgpu.Args.Buf want ] ~global:[ 8 ];
      Alcotest.(check (array int)) (what ^ ": Exec computes 2x + 2 in place")
        (Array.init 8 (fun x -> (2 * x) + 2))
        (ints want);
      Vgpu.Native.reset_counters ();
      let got = fresh () in
      Vgpu.Native.launch c ~args:[ Vgpu.Args.Buf got; Vgpu.Args.Buf got ] ~global:[ 8 ];
      Alcotest.(check (array int)) (what ^ ": the aliased launch matches Exec") (ints want)
        (ints got);
      Alcotest.(check int) (what ^ ": the no-restrict build was compiled") 1
        (Vgpu.Native.counters ()).Vgpu.Native.c_compiles;
      Vgpu.Native.reset_counters ();
      let dst = fresh () and src = fresh () in
      Vgpu.Native.launch c ~args:[ Vgpu.Args.Buf dst; Vgpu.Args.Buf src ] ~global:[ 8 ];
      Alcotest.(check (array int)) (what ^ ": a disjoint launch computes 2x + 1")
        (Array.init 8 (fun x -> (2 * x) + 1))
        (ints dst);
      Alcotest.(check int) (what ^ ": the disjoint launch keeps the restrict build") 0
        (Vgpu.Native.counters ()).Vgpu.Native.c_compiles)
    [
      ("f", Real, Real_lit 1.0, fun () -> Vgpu.Buffer.F (Array.init 8 float_of_int));
      ("u8", Int, Int_lit 1, fun () -> Vgpu.Buffer.U8 (Bytes.init 8 Char.chr));
    ]

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
        [
          Vgpu.Runtime.Launch
            { kernel = k; args = [ Vgpu.Runtime.A_buf "out" ]; global = [ 8 ]; spans = None };
        ];
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

(* With [RACS_CC] naming a missing program, or a file without the
   execute bit, the default engine runs each kernel on the interpreter:
   FD-MM on one device and on two shards matches [`Interp] bit-for-bit,
   the native engine was asked for every kernel, and nothing was
   compiled or loaded.  A compiler that runs and fails is a codegen
   bug, and still raises. *)
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
      (* a working compiler wrapper, were it executable *)
      let noexec = Filename.concat dir "cc-without-exec-bit" in
      Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 noexec (fun oc ->
          output_string oc "#!/bin/sh\nexec cc \"$@\"\n");
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
        (fun (what, cc) ->
          Unix.putenv "RACS_CC" cc;
          Vgpu.Native.reset_counters ();
          List.iter
            (fun shards ->
              let sim = run ?shards () in
              let label =
                Printf.sprintf "%s, %s" what
                  (match shards with None -> "one device" | Some n -> Printf.sprintf "%d shards" n)
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
          Alcotest.(check int) (what ^ ": nothing compiled") 0 c.Vgpu.Native.c_compiles;
          Alcotest.(check int) (what ^ ": nothing loaded") 0 c.Vgpu.Native.c_disk_hits;
          match Vgpu.Native.compile (unique_kernel ()) with
          | exception Vgpu.Native.No_compiler _ -> ()
          | _ -> Alcotest.failf "%s: compiled without a compiler" what)
        [ ("missing cc", Filename.concat dir "missing-cc"); ("cc without the exec bit", noexec) ];
      Unix.putenv "RACS_CC" "false";
      match run () with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "a compiler that fails was not reported")

(* -- Batch builds: one cc run per simulation set-up ------------------- *)

(* Run [f] against a fresh cache directory [name] under the scratch
   cache, with the memo and the counters dropped. *)
let with_fresh_cache name f =
  let dir = Filename.concat (Lazy.force scratch_cache) name in
  Fun.protect
    ~finally:(fun () -> Vgpu.Native.set_cache_dir (Lazy.force scratch_cache))
    (fun () ->
      Vgpu.Native.set_cache_dir dir;
      Vgpu.Native.reset_memo ();
      Vgpu.Native.reset_counters ();
      f dir)

let files_with_suffix dir suffix =
  List.length (List.filter (fun f -> Filename.check_suffix f suffix) (Array.to_list (Sys.readdir dir)))

(* FD-MM from an impulse on a 12x10x8 box: its two kernels as the
   simulation dispatches them. *)
let fdmm_sim ?shards ?schedule ?tblock ~engine ~steps () =
  let open Acoustics in
  let kernels =
    [ Hand_kernels.volume ~precision:Double; Hand_kernels.boundary_fd_mm ~precision:Double ~mb:3 ]
  in
  let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:12 ~ny:10 ~nz:8) in
  let sim = Gpu_sim.create ~engine ?shards ?schedule ?tblock ~n_branches:3 Params.default room in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Gpu_sim.step sim kernels
  done;
  Gpu_sim.sync sim;
  sim

let check_state msg (a : Acoustics.Gpu_sim.t) (b : Acoustics.Gpu_sim.t) =
  let open Acoustics in
  Test_util.check_bits (msg ^ " curr") a.Gpu_sim.state.State.curr b.Gpu_sim.state.State.curr;
  Test_util.check_bits (msg ^ " g1") a.Gpu_sim.state.State.g1 b.Gpu_sim.state.State.g1

let check_counters msg ~cc ~built ~disk ~memo =
  let c = Vgpu.Native.counters () in
  Alcotest.(check (list int))
    (msg ^ ": cc runs, kernels built, disk hits, memo hits")
    [ cc; built; disk; memo ]
    Vgpu.Native.[ c.c_compiles; c.c_kernels_built; c.c_disk_hits; c.c_memo_hits ]

(* A cold one-device FD-MM step builds both kernels in one cc run and
   installs each under its own key; a fresh memo then loads both from
   disk.  Every run matches the interpreter bit for bit. *)
let test_cold_step_one_cc_run () =
  let reference = fdmm_sim ~engine:`Interp ~steps:3 () in
  with_fresh_cache "batch-cold" (fun dir ->
      check_state "cold" reference (fdmm_sim ~engine:`Native ~steps:3 ());
      check_counters "cold" ~cc:1 ~built:2 ~disk:0 ~memo:0;
      Alcotest.(check int) "both kernels installed" 2 (files_with_suffix dir ".so");
      Alcotest.(check int) "one unit's source" 1 (files_with_suffix dir ".c");
      Vgpu.Native.reset_memo ();
      Vgpu.Native.reset_counters ();
      check_state "warm" reference (fdmm_sim ~engine:`Native ~steps:3 ());
      check_counters "warm" ~cc:0 ~built:0 ~disk:2 ~memo:0)

(* With one member already on disk, the batch compiles only the other,
   as a unit of its own. *)
let test_batch_builds_only_missing () =
  with_fresh_cache "batch-partial" (fun dir ->
      let a = unique_kernel () and b = unique_kernel () in
      ignore (Vgpu.Native.compile a);
      Vgpu.Native.reset_memo ();
      Vgpu.Native.reset_counters ();
      match Vgpu.Native.build [ a; b ] with
      | [ Ok ca; Ok cb ] ->
          check_counters "one on disk" ~cc:1 ~built:1 ~disk:1 ~memo:0;
          Alcotest.(check bool) "the unit is the missing kernel's own" true
            (Sys.file_exists (Filename.concat dir (Vgpu.Native.cache_key b ^ ".c")));
          Test_util.check_bits "the loaded kernel" (expected_of a) (launch_and_read ca);
          Test_util.check_bits "the built kernel" (expected_of b) (launch_and_read cb)
      | _ -> Alcotest.fail "expected two built kernels")

(* A unit the compiler rejects is rebuilt one kernel at a time: the
   error names the kernel at fault, and the other one loads. *)
let test_batch_failure_names_kernel () =
  with_fresh_cache "batch-fail" (fun _ ->
      let good = unique_kernel () in
      let bad =
        {
          (unique_kernel ()) with
          name = "native_array_too_big";
          body =
            [
              Decl_arr (Real, "huge", 1 lsl 60);
              Store ("out", Global_id 0, Load ("huge", Int_lit 0));
            ];
        }
      in
      match Vgpu.Native.build [ good; bad ] with
      | [ Ok c; Error (Failure msg) ] ->
          Alcotest.(check bool) "the error names the kernel" true
            (Test_util.contains msg "C compilation failed for kernel native_array_too_big");
          Test_util.check_bits "the other kernel runs" (expected_of good) (launch_and_read c);
          check_counters "after the failure" ~cc:1 ~built:1 ~disk:0 ~memo:0
      | _ -> Alcotest.fail "expected the good kernel built and the bad one failed")

(* A step whose second launch [--verify] refuses builds nothing and runs
   nothing, not even its first launch. *)
let test_refused_step_builds_nothing () =
  let oob =
    {
      name = "native_oob_shift";
      precision = Double;
      params = [ param "next" Real; param ~kind:Scalar_param "N" Int ];
      global_size = [ Var "N" ];
      local_size = [];
      body = [ Store ("next", Global_id 0 +: Int_lit 1, Real_lit 1.0) ];
    }
  in
  with_fresh_cache "batch-refused" (fun dir ->
      let open Acoustics in
      let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:12 ~ny:10 ~nz:8) in
      let sim = Gpu_sim.create ~engine:`Native ~verify:true ~n_branches:3 Params.default room in
      let cx, cy, cz = State.centre sim.Gpu_sim.state in
      State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
      let before = Array.copy sim.Gpu_sim.state.State.curr in
      (match Gpu_sim.step sim [ Hand_kernels.volume ~precision:Double; oob ] with
      | exception Vgpu.Runtime.Unsafe_kernel _ -> ()
      | () -> Alcotest.fail "an out-of-bounds launch was dispatched");
      check_counters "refused step" ~cc:0 ~built:0 ~disk:0 ~memo:0;
      Alcotest.(check int) "nothing installed" 0 (files_with_suffix dir ".so");
      Alcotest.(check int) "no launch ran" 0 (Gpu_sim.stats sim).Vgpu.Runtime.s_launches;
      Test_util.check_bits "the field is untouched" before sim.Gpu_sim.state.State.curr)

(* Each schedule prepares a cold 2-shard step with one build for both
   devices, and a warm set-up loads each kernel once from disk: no memo
   hits (each device used to look up every kernel).  An overlapped
   temporal block of 2 steps launches two kernels: the volume kernel's
   one ranged form (split at the block's first step, over the live
   planes at its second) and the boundary kernel, both built in the
   block's first batch. *)
let test_shards_one_build () =
  let reference = fdmm_sim ~engine:`Interp ~steps:4 () in
  List.iter
    (fun (name, schedule, tblock, n) ->
      let run () = fdmm_sim ~shards:2 ~schedule ~tblock ~engine:`Native ~steps:4 () in
      with_fresh_cache ("batch-shards-" ^ name) (fun _ ->
          check_state name reference (run ());
          check_counters (name ^ ", cold") ~cc:1 ~built:n ~disk:0 ~memo:0;
          Vgpu.Native.reset_memo ();
          Vgpu.Native.reset_counters ();
          check_state name reference (run ());
          check_counters (name ^ ", warm") ~cc:0 ~built:0 ~disk:n ~memo:0))
    [
      ("seq", `Seq, 1, 2);
      ("concurrent", `Concurrent, 1, 2);
      ("overlap", `Overlap, 1, 2);
      ("overlap-t2", `Overlap, 2, 2);
    ]

(* The NDRange rank rule: a 1-D kernel launched with [n; 2] is refused
   by every engine and by [Check]; [n; 1; 1] runs, the same everywhere.
   Its entry loops over the one dimension it declares, which runs over
   the launch's span table.  A kernel with a
   work-group size is refused before anything runs: by the C renderer,
   every engine and [Check], with or without an explicit NDRange. *)
let test_ndrange_rank_rule () =
  use_scratch_cache ();
  let k =
    {
      name = "native_rank_probe";
      precision = Double;
      params = [ param "out" Real ];
      global_size = [ Int_lit 8 ];
      local_size = [];
      body = [ Store ("out", Global_id 0, Unop (To_real, Global_id 0 +: Global_id 1) +: Real_lit 0.5) ];
    }
  in
  let src = Vgpu.Native.source k in
  Alcotest.(check bool) "one NDRange loop, over the span table" true
    (Test_util.contains src "rk_g0 < rk_e0" && not (Test_util.contains src "rk_g1 < rk_gs1"));
  let c = Vgpu.Native.compile k in
  let san = Vgpu.Sanitizer.create () in
  let engines =
    [
      ("interp", fun ~args ~global -> Vgpu.Exec.launch k ~args ~global);
      ("native", fun ~args ~global -> Vgpu.Native.launch c ~args ~global);
      ("sanitizer", fun ~args ~global -> Vgpu.Sanitizer.launch san k ~args ~global);
      ( "check",
        fun ~args:_ ~global ->
          ignore (Kernel_ast.Check.check (Kernel_ast.Check.env ~global ()) k) );
    ]
  in
  List.iter
    (fun (name, run) ->
      let out = Array.make 8 0. in
      let args = [ Vgpu.Args.Buf (Vgpu.Buffer.F out) ] in
      (match run ~args ~global:[ 8; 2 ] with
      | exception Kernel_ast.Cast.Ndrange_rank { dims = 1; _ } -> ()
      | () -> Alcotest.failf "%s ran a 1-D kernel over [8; 2]" name);
      Alcotest.(check (array (float 0.))) (name ^ ": the refused launch wrote nothing")
        (Array.make 8 0.) out;
      run ~args ~global:[ 8; 1; 1 ];
      if name <> "check" then
        Alcotest.(check (array (float 0.))) (name ^ ": [8; 1; 1] runs")
          (Array.init 8 (fun i -> float_of_int i +. 0.5))
          out)
    engines;
  let grouped = { k with name = "native_grouped_probe"; local_size = [ 4 ] } in
  let out = Array.make 8 0. in
  let args = [ Vgpu.Args.Buf (Vgpu.Buffer.F out) ] in
  List.iter
    (fun (name, run) ->
      match run () with
      | exception Kernel_ast.Cast.Work_group_size { local_size = [ 4 ]; _ } -> ()
      | () -> Alcotest.failf "%s accepted a kernel with local_size [4]" name)
    [
      ("entry_source", fun () -> ignore (Kernel_ast.Native_c.entry_source grouped));
      ("compile", fun () -> ignore (Vgpu.Native.compile grouped));
      ("interp", fun () -> Vgpu.Exec.launch grouped ~args ~global:[ 8 ]);
      ("sanitizer", fun () -> Vgpu.Sanitizer.launch san grouped ~args ~global:[ 8 ]);
      ( "check, explicit NDRange",
        fun () -> ignore (Kernel_ast.Check.check (Kernel_ast.Check.env ~global:[ 8 ] ()) grouped)
      );
      ("check, symbolic NDRange", fun () -> ignore (Kernel_ast.Check.check (Kernel_ast.Check.env ()) grouped));
    ];
  Alcotest.(check (array (float 0.))) "the refused kernel wrote nothing" (Array.make 8 0.) out

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
    Alcotest.test_case "sources include no header" `Quick test_sources_include_no_header;
    Alcotest.test_case "a binary importing memset from libc loads" `Quick test_libc_import_loads;
    Alcotest.test_case "RACS_CFLAGS without -nostdlib: new key, same bits" `Quick
      test_cflags_override;
    Alcotest.test_case "GC safety: launches on moving int arrays" `Quick test_gc_safety;
    Alcotest.test_case "simulation bit-identical: schemes x precisions x shards" `Quick
      test_sim_differential;
    Alcotest.test_case "runtime cache counters in stats" `Quick test_runtime_cache_counters;
    Alcotest.test_case "steady step: few words, none for verification" `Quick
      test_steady_step_allocation;
    Alcotest.test_case "rebinding a shorter array is re-verified" `Quick
      test_rebind_shorter_refused;
    Alcotest.test_case "one launch op, rebound to alias: no-restrict variant" `Quick
      test_launch_op_alias_rebind;
    Alcotest.test_case "reset between steps: one launch per kernel" `Quick test_reset_then_step;
    Alcotest.test_case "one device: state names the bound arrays" `Quick
      test_single_device_state_live;
    Alcotest.test_case "a first launch's compile is not kernel time" `Quick test_compile_not_timed;
    Alcotest.test_case "LRU eviction at capacity" `Quick test_lru_eviction;
    Alcotest.test_case "no C compiler: the interpreter runs, bit-identically" `Quick
      test_no_compiler_fallback;
    Alcotest.test_case "a cold step: one cc run for both kernels, then disk hits" `Quick
      test_cold_step_one_cc_run;
    Alcotest.test_case "a batch builds only the kernels missing on disk" `Quick
      test_batch_builds_only_missing;
    Alcotest.test_case "a failing unit is rebuilt kernel by kernel" `Quick
      test_batch_failure_names_kernel;
    Alcotest.test_case "a step --verify refuses builds and runs nothing" `Quick
      test_refused_step_builds_nothing;
    Alcotest.test_case "2 shards: one build, then one disk hit per kernel" `Quick
      test_shards_one_build;
    Alcotest.test_case "NDRange rank rule on every engine and Check" `Quick
      test_ndrange_rank_rule;
    Alcotest.test_case "libm linked only where an entry calls it" `Quick
      test_libm_only_where_called;
    Alcotest.test_case "aliased launch: Exec's answer where restrict would differ" `Quick
      test_aliased_probe_answer;
  ]
