(* Cross-engine conformance harness for the work-group execution tier.

   One harness, two engines (reference interpreter, native compiled C),
   two precisions, optimizer on and off: every output buffer must match
   the interpreter bit-for-bit in all eight configurations.  The torture
   kernel from the native suite is re-run through the harness, and three
   grouped kernels exercise what the flat suites cannot: barriers
   ordering local-memory traffic (reduction), cross-work-item data
   exchange through __local (tiled transpose), and the group/local
   builtin family (addressing).

   Negative paths mirror test_check's racy/off-by-one pairs at the
   work-group tier: a local-memory race and a divergent barrier are each
   caught by BOTH the static verifier (Kernel_ast.Check) and the
   shadow-memory sanitizer (Vgpu.Sanitizer).  A qcheck property pins
   the soundness direction: statically Safe grouped kernels run
   sanitizer-clean.

   Byte storage ([Cast.U8], OpenCL [uchar *]) gets its own case: stores
   wrap mod 256 and loads zero-extend identically on every engine and
   under the sanitizer, and a launch whose buffer storage does not match
   the parameter's is rejected by native. *)

open Kernel_ast.Cast
module Check = Kernel_ast.Check

(* Compiled-C artefacts go to a scratch cache, not the user's. *)
let scratch_cache =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "racs-conformance-test-%d" (Unix.getpid ()))
     in
     Vgpu.Native.set_cache_dir dir;
     dir)

let use_scratch_cache () = ignore (Lazy.force scratch_cache)

(* -- The harness ----------------------------------------------------- *)

type case = {
  c_kernel : precision -> kernel;
  c_args : unit -> Vgpu.Args.t list;  (** fresh buffers on every call *)
  c_global : int list;
}

let engines =
  [
    ("interp", fun k args global -> Vgpu.Exec.launch k ~args ~global);
    ("native", fun k args global -> Vgpu.Native.launch (Vgpu.Native.compile k) ~args ~global);
  ]

let buffers args = List.filter_map (function Vgpu.Args.Buf b -> Some b | _ -> None) args

let check_buffers msg ref_bufs bufs =
  List.iteri
    (fun i (r, b) ->
      match (r, b) with
      | Vgpu.Buffer.F a, Vgpu.Buffer.F b -> Test_util.check_bits (Printf.sprintf "%s buf %d" msg i) a b
      | Vgpu.Buffer.I a, Vgpu.Buffer.I b ->
          Alcotest.(check (array int)) (Printf.sprintf "%s buf %d" msg i) a b
      | Vgpu.Buffer.U8 a, Vgpu.Buffer.U8 b ->
          Alcotest.(check string) (Printf.sprintf "%s buf %d" msg i) (Bytes.to_string a)
            (Bytes.to_string b)
      | _ -> Alcotest.failf "%s buf %d: buffer kinds differ" msg i)
    (List.combine ref_bufs bufs)

(* Run the case on every engine x precision x optimizer setting; the
   interpreter (first engine) is the reference within each
   configuration, so bit-identity holds across all eight runs. *)
let conform ~name case =
  use_scratch_cache ();
  List.iter
    (fun (precision, plabel) ->
      List.iter
        (fun optimize ->
          let k = case.c_kernel precision in
          let k = if optimize then fst (Kernel_ast.Opt.optimize k) else k in
          let runs =
            List.map
              (fun (elabel, run) ->
                let args = case.c_args () in
                run k args case.c_global;
                (elabel, buffers args))
              engines
          in
          match runs with
          | (ref_label, ref_bufs) :: rest ->
              List.iter
                (fun (elabel, bufs) ->
                  check_buffers
                    (Printf.sprintf "%s %s opt=%b: %s vs %s" name plabel optimize elabel
                       ref_label)
                    ref_bufs bufs)
                rest
          | [] -> assert false)
        [ false; true ])
    [ (Double, "double"); (Single, "single") ]

(* -- Torture kernel, re-run through the harness ---------------------- *)

let test_torture () =
  conform ~name:"torture"
    {
      c_kernel = (fun precision -> Test_native.torture_kernel ~precision);
      c_args =
        (fun () ->
          let _, _, args = Test_native.torture_args () in
          args);
      c_global = [ Test_native.n ];
    }

(* -- Grouped kernels ------------------------------------------------- *)

(* Barrier-ordered reduction: every lane stages src[gid] in __local,
   lane 0 sums the tile in lane order after the barrier and writes one
   cell per group.  The serial lane-order sum makes the FP association
   deterministic, so cross-engine agreement is exact, not approximate. *)
let groups = 6
let lanes = 8

let reduce_kernel ~precision =
  {
    name = "wg_reduce";
    precision;
    params = [ param "out" Real; param "src" Real ];
    global_size = [ Int_lit (groups * lanes) ];
    local_size = [ lanes ];
    body =
      [
        Decl_local (Real, "scratch", lanes);
        Store ("scratch", Local_id 0, Load ("src", Global_id 0));
        Barrier;
        If
          ( Local_id 0 =: Int_lit 0,
            [
              Decl (Real, "acc", Some (Real_lit 0.0));
              for_ "i" ~from:(Int_lit 0) ~below:(Local_size 0)
                [ Assign ("acc", Var "acc" +: Load ("scratch", Var "i")) ];
              Store ("out", Group_id 0, Var "acc");
            ],
            [] );
      ];
  }

let test_barrier_reduction () =
  let mk_args () =
    let src = Array.init (groups * lanes) (fun i -> (float_of_int i *. 0.37) -. 7.5) in
    Vgpu.Args.[ Buf (Vgpu.Buffer.F (Array.make groups 0.)); Buf (Vgpu.Buffer.F src) ]
  in
  conform ~name:"reduce"
    { c_kernel = (fun precision -> reduce_kernel ~precision); c_args = mk_args; c_global = [ groups * lanes ] };
  (* and the interpreter result is the actual group sums *)
  let args = mk_args () in
  Vgpu.Exec.launch (reduce_kernel ~precision:Double) ~args ~global:[ groups * lanes ];
  match buffers args with
  | [ Vgpu.Buffer.F out; Vgpu.Buffer.F src ] ->
      for g = 0 to groups - 1 do
        let expect = ref 0. in
        for l = 0 to lanes - 1 do
          expect := !expect +. src.((g * lanes) + l)
        done;
        Test_util.check_bits "group sum" [| !expect |] [| out.(g) |]
      done
  | _ -> assert false

(* Tiled transpose: dst[x*H + y] = src[y*W + x], staged through a TxT
   __local tile so every work-item reads a slot another lane wrote —
   the data exchange only a barrier makes well-defined. *)
let tr_t = 4
let tr_w = 16
let tr_h = 8

let transpose_kernel ~precision =
  let t = Int_lit tr_t in
  {
    name = "wg_transpose";
    precision;
    params = [ param "dst" Real; param "src" Real ];
    global_size = [ Int_lit tr_w; Int_lit tr_h ];
    local_size = [ tr_t; tr_t ];
    body =
      [
        Decl_local (Real, "tile", tr_t * tr_t);
        Store
          ( "tile",
            (Local_id 1 *: t) +: Local_id 0,
            Load ("src", (Global_id 1 *: Int_lit tr_w) +: Global_id 0) );
        Barrier;
        Decl (Int, "r", Some ((Group_id 0 *: t) +: Local_id 1));
        Decl (Int, "c", Some ((Group_id 1 *: t) +: Local_id 0));
        Store ("dst", (Var "r" *: Int_lit tr_h) +: Var "c", Load ("tile", (Local_id 0 *: t) +: Local_id 1));
      ];
  }

let test_local_transpose () =
  let mk_args () =
    let src = Array.init (tr_w * tr_h) (fun i -> float_of_int ((i * 7 mod 83) - 41) *. 0.625) in
    Vgpu.Args.[ Buf (Vgpu.Buffer.F (Array.make (tr_w * tr_h) nan)); Buf (Vgpu.Buffer.F src) ]
  in
  conform ~name:"transpose"
    {
      c_kernel = (fun precision -> transpose_kernel ~precision);
      c_args = mk_args;
      c_global = [ tr_w; tr_h ];
    };
  let args = mk_args () in
  Vgpu.Exec.launch (transpose_kernel ~precision:Double) ~args ~global:[ tr_w; tr_h ];
  match buffers args with
  | [ Vgpu.Buffer.F dst; Vgpu.Buffer.F src ] ->
      for x = 0 to tr_w - 1 do
        for y = 0 to tr_h - 1 do
          Test_util.check_bits "transposed cell" [| src.((y * tr_w) + x) |] [| dst.((x * tr_h) + y) |]
        done
      done
  | _ -> assert false

(* Group/local builtin addressing: every lane encodes its coordinates
   through all five id builtins; any engine disagreeing on the
   group decomposition of the NDRange diverges immediately. *)
let ids_kernel ~precision =
  {
    name = "wg_ids";
    precision;
    params = [ param "out" Int ];
    global_size = [ Int_lit 12; Int_lit 6 ];
    local_size = [ 4; 3 ];
    body =
      [
        Decl
          ( Int,
            "tag",
            Some
              ((Group_id 0 *: Int_lit 100000)
              +: (Group_id 1 *: Int_lit 10000)
              +: (Local_id 0 *: Int_lit 1000)
              +: (Local_id 1 *: Int_lit 100)
              +: (Local_size 0 *: Int_lit 10)
              +: Local_size 1) );
        Store ("out", (Global_id 1 *: Global_size 0) +: Global_id 0, Var "tag");
      ];
  }

let test_group_id_addressing () =
  let mk_args () = Vgpu.Args.[ Buf (Vgpu.Buffer.I (Array.make (12 * 6) (-1))) ] in
  conform ~name:"ids"
    { c_kernel = (fun precision -> ids_kernel ~precision); c_args = mk_args; c_global = [ 12; 6 ] };
  let args = mk_args () in
  Vgpu.Exec.launch (ids_kernel ~precision:Double) ~args ~global:[ 12; 6 ];
  match buffers args with
  | [ Vgpu.Buffer.I out ] ->
      for x = 0 to 11 do
        for y = 0 to 5 do
          let expect =
            ((x / 4) * 100000) + ((y / 3) * 10000) + ((x mod 4) * 1000) + ((y mod 3) * 100) + 43
          in
          Alcotest.(check int) (Printf.sprintf "tag at (%d,%d)" x y) expect out.((y * 12) + x)
        done
      done
  | _ -> assert false

(* -- Byte storage ------------------------------------------------------ *)

(* Three work-items store k+1 = 256, -1 and 300 through a byte-stored
   parameter and read them back in the same launch (0, 255 and 44: the
   low 8 bits), then copy three host-written bytes (7, 200, 255) to a
   word buffer and, widened, to a real one (zero extension).  A
   zero-length byte binding rides along unread. *)
let u8_kernel ~precision =
  let g = Global_id 0 in
  with_u8 "bytes"
    (with_u8 "empty"
       {
         name = "u8_storage";
         precision;
         params =
           [
             param "bytes" Int;
             param "empty" Int;
             param "out" Int;
             param "rout" Real;
             param ~kind:Scalar_param "k" Int;
           ];
         global_size = [ Int_lit 3 ];
         local_size = [];
         body =
           [
             Store
               ( "bytes",
                 g,
                 Ternary
                   ( g =: Int_lit 0,
                     Var "k" +: Int_lit 1,
                     Ternary (g =: Int_lit 1, Unop (Neg, Int_lit 1), Int_lit 300) ) );
             Store ("out", g, Load ("bytes", g));
             Store ("out", g +: Int_lit 3, Load ("bytes", g +: Int_lit 3));
             Store ("rout", g, Load ("bytes", g +: Int_lit 3) *: Real_lit 0.5);
           ];
       })

let u8_args () =
  Vgpu.Args.
    [
      Buf (Vgpu.Buffer.U8 (Bytes.of_string "\000\000\000\007\200\255"));
      Buf (Vgpu.Buffer.U8 (Bytes.create 0));
      Buf (Vgpu.Buffer.I (Array.make 6 0));
      Buf (Vgpu.Buffer.F (Array.make 3 0.));
      Int_arg 255;
    ]

let test_u8_storage () =
  conform ~name:"u8"
    { c_kernel = (fun precision -> u8_kernel ~precision); c_args = u8_args; c_global = [ 3 ] };
  (* the reference values themselves, and the sanitizer as a fifth leg *)
  List.iter
    (fun (label, run) ->
      let args = u8_args () in
      run args;
      match buffers args with
      | [ Vgpu.Buffer.U8 bytes; Vgpu.Buffer.U8 empty; Vgpu.Buffer.I out; Vgpu.Buffer.F rout ] ->
          Alcotest.(check string) (label ^ ": stored bytes wrap mod 256")
            "\000\255\044\007\200\255" (Bytes.to_string bytes);
          Alcotest.(check int) (label ^ ": empty binding untouched") 0 (Bytes.length empty);
          Alcotest.(check (array int))
            (label ^ ": loads zero-extend")
            [| 0; 255; 44; 7; 200; 255 |] out;
          Alcotest.(check (array (float 0.)))
            (label ^ ": widened to real")
            [| 3.5; 100.; 127.5 |] rout
      | _ -> assert false)
    [
      ("interp", fun args -> Vgpu.Exec.launch (u8_kernel ~precision:Double) ~args ~global:[ 3 ]);
      ( "sanitizer",
        fun args ->
          let s = Vgpu.Sanitizer.create () in
          Vgpu.Sanitizer.launch s (u8_kernel ~precision:Double) ~args ~global:[ 3 ];
          Alcotest.(check int) "sanitizer: no violations" 0
            (Vgpu.Sanitizer.total (Vgpu.Sanitizer.counts s)) );
    ]

(* A byte buffer bound to a word parameter, or a word buffer to a byte
   parameter: native refuses the launch. *)
let test_u8_mismatch () =
  use_scratch_cache ();
  let u8 = u8_kernel ~precision:Double in
  let word = { u8 with params = List.map (fun p -> { p with p_storage = Word }) u8.params } in
  let word_args () =
    Vgpu.Args.
      [
        Buf (Vgpu.Buffer.I (Array.make 6 0));
        Buf (Vgpu.Buffer.I [||]);
        Buf (Vgpu.Buffer.I (Array.make 6 0));
        Buf (Vgpu.Buffer.F (Array.make 3 0.));
        Int_arg 255;
      ]
  in
  List.iter
    (fun (elabel, run) ->
      List.iter
        (fun (klabel, k, args) ->
          match run k (args ()) [ 3 ] with
          | () -> Alcotest.failf "%s accepted %s" elabel klabel
          | exception Invalid_argument _ -> ())
        [
          ("a word buffer for a byte parameter", u8, word_args);
          ("a byte buffer for a word parameter", word, u8_args);
        ])
    (List.filter (fun (l, _) -> l = "native") engines)

(* -- Negative paths: both legs must catch the hazard ----------------- *)

(* Every lane of a group stores __local slot 0 in the same barrier
   phase: a write-write race on local memory.  The store index is
   constant — affine with every local dimension dropped — so the static
   leg must produce a concrete Unsafe witness, not Unproven. *)
let local_race_kernel =
  {
    name = "local_race";
    precision = Double;
    params = [ param "out" Real ];
    global_size = [ Int_lit 8 ];
    local_size = [ 4 ];
    body =
      [
        Decl_local (Real, "tile", 4);
        Store ("tile", Int_lit 0, Unop (To_real, Local_id 0));
        Barrier;
        Store ("out", Global_id 0, Load ("tile", Int_lit 0));
      ];
  }

let buf_report r name = List.find (fun b -> b.Check.b_name = name) r.Check.r_bufs

let test_local_race_static () =
  let env = Check.env ~buffer_elems:(function "out" -> Some 8 | _ -> None) () in
  let r = Check.check env local_race_kernel in
  match (buf_report r "tile").Check.b_race with
  | Check.Unsafe w ->
      Alcotest.(check string) "witness names the local buffer" "tile" w.Check.w_buf;
      Alcotest.(check int) "witness names two work-items" 2 (List.length w.Check.w_gids);
      Alcotest.(check int) "colliding slot" 0 w.Check.w_index;
      Alcotest.(check bool) "report not ok" false (Check.ok r)
  | v ->
      Alcotest.failf "local race: expected Unsafe, got %s"
        (Format.asprintf "%a" Check.pp_verdict v)

let test_local_race_dynamic () =
  let s = Vgpu.Sanitizer.create () in
  let out = Vgpu.Buffer.F (Array.make 8 0.) in
  Vgpu.Sanitizer.note_host_write s out;
  Vgpu.Sanitizer.launch s local_race_kernel ~args:[ Vgpu.Args.Buf out ] ~global:[ 8 ];
  let c = Vgpu.Sanitizer.counts s in
  Alcotest.(check bool) "local hazards detected" true (c.Vgpu.Sanitizer.n_local > 0);
  let is_local_race v =
    match v.Vgpu.Sanitizer.v_kind with
    | Vgpu.Sanitizer.Local_race _ -> v.Vgpu.Sanitizer.v_buf = "tile" && v.Vgpu.Sanitizer.v_idx = 0
    | _ -> false
  in
  Alcotest.(check bool) "a Local_race on tile[0] retained" true
    (List.exists is_local_race (Vgpu.Sanitizer.violations s))

(* A barrier under lane-dependent control flow: lanes 0-1 reach it,
   lanes 2-3 do not.  Statically r_barrier must be Unsafe (with two
   work-items of one group disagreeing on their barrier count); the
   sanitizer records the divergence instead of aborting. *)
let divergent_barrier_kernel =
  {
    name = "divergent_barrier";
    precision = Double;
    params = [ param "out" Real ];
    global_size = [ Int_lit 8 ];
    local_size = [ 4 ];
    body =
      [
        Decl_local (Real, "tile", 4);
        Store ("tile", Local_id 0, Real_lit 1.0);
        If (Local_id 0 <: Int_lit 2, [ Barrier ], []);
        Store ("out", Global_id 0, Load ("tile", Local_id 0));
      ];
  }

let test_divergent_barrier_static () =
  let env = Check.env ~buffer_elems:(function "out" -> Some 8 | _ -> None) () in
  let r = Check.check env divergent_barrier_kernel in
  match r.Check.r_barrier with
  | Check.Unsafe w ->
      Alcotest.(check int) "witness names two work-items" 2 (List.length w.Check.w_gids);
      Alcotest.(check bool) "report not ok" false (Check.ok r)
  | v ->
      Alcotest.failf "divergent barrier: expected Unsafe, got %s"
        (Format.asprintf "%a" Check.pp_verdict v)

let test_divergent_barrier_dynamic () =
  let s = Vgpu.Sanitizer.create () in
  let out = Vgpu.Buffer.F (Array.make 8 0.) in
  Vgpu.Sanitizer.note_host_write s out;
  Vgpu.Sanitizer.launch s divergent_barrier_kernel ~args:[ Vgpu.Args.Buf out ] ~global:[ 8 ];
  let c = Vgpu.Sanitizer.counts s in
  Alcotest.(check bool) "divergence recorded" true (c.Vgpu.Sanitizer.n_barrier > 0);
  Alcotest.(check bool) "a Barrier_divergence violation retained" true
    (List.exists
       (fun v -> v.Vgpu.Sanitizer.v_kind = Vgpu.Sanitizer.Barrier_divergence)
       (Vgpu.Sanitizer.violations s))

(* -- qcheck: statically Safe grouped kernels run sanitizer-clean ----- *)

(* Random grouped kernels: each lane stores __local slot a*lid + b,
   optionally hits a (possibly divergent) barrier, then reads slot
   c*lid + d.  Coefficients keep every index inside the 24-slot tile, so
   the only hazards are local races, missing-barrier read hazards,
   unwritten-slot reads and barrier divergence.  Soundness: a Safe
   static race verdict must mean zero dynamic Local_race violations, and
   a Safe barrier verdict zero divergence events. *)
let qcheck_safe_grouped_is_clean =
  let gen =
    QCheck.Gen.(
      tup6 (int_range 1 4) (* groups *)
        (int_range 2 8) (* lanes *)
        (int_range 0 2) (* a *)
        (int_range 0 4) (* b *)
        (pair (int_range 0 2) (int_range 0 4)) (* c, d *)
        (int_range 0 2) (* 0: no barrier, 1: uniform, 2: divergent *))
  in
  let print (g, l, a, b, (c, d), bar) =
    Printf.sprintf "groups=%d lanes=%d store lmem[%d*lid+%d] read lmem[%d*lid+%d] barrier=%s" g l
      a b c d
      (match bar with 0 -> "none" | 1 -> "uniform" | _ -> "divergent")
  in
  QCheck.Test.make ~name:"static Safe grouped kernel => sanitizer-clean" ~count:200
    (QCheck.make ~print gen)
    (fun (g, l, a, b, (c, d), bar) ->
      let barrier =
        match bar with
        | 0 -> []
        | 1 -> [ Barrier ]
        | _ -> [ If (Local_id 0 <: Int_lit (l / 2), [ Barrier ], []) ]
      in
      let k =
        {
          name = "qc_grouped";
          precision = Double;
          params = [ param "out" Real ];
          global_size = [ Int_lit (g * l) ];
          local_size = [ l ];
          body =
            [ Decl_local (Real, "lmem", 24);
              Store ("lmem", (Int_lit a *: Local_id 0) +: Int_lit b, Unop (To_real, Global_id 0)) ]
            @ barrier
            @ [ Store ("out", Global_id 0, Load ("lmem", (Int_lit c *: Local_id 0) +: Int_lit d)) ];
        }
      in
      let env = Check.env ~buffer_elems:(function "out" -> Some (g * l) | _ -> None) () in
      let r = Check.check env k in
      let s = Vgpu.Sanitizer.create () in
      let out = Vgpu.Buffer.F (Array.make (g * l) 0.) in
      Vgpu.Sanitizer.note_host_write s out;
      Vgpu.Sanitizer.launch s k ~args:[ Vgpu.Args.Buf out ] ~global:[ g * l ];
      let counts = Vgpu.Sanitizer.counts s in
      let local_races =
        List.exists
          (fun v -> match v.Vgpu.Sanitizer.v_kind with Vgpu.Sanitizer.Local_race _ -> true | _ -> false)
          (Vgpu.Sanitizer.violations s)
      in
      let race_sound =
        match (buf_report r "lmem").Check.b_race with
        | Check.Safe -> not local_races
        | Check.Unsafe _ -> local_races
        | Check.Unproven _ -> true
      in
      let barrier_sound =
        match r.Check.r_barrier with
        | Check.Safe -> counts.Vgpu.Sanitizer.n_barrier = 0
        | Check.Unsafe _ -> counts.Vgpu.Sanitizer.n_barrier > 0
        | Check.Unproven _ -> true
      in
      race_sound && barrier_sound)

let suite =
  [
    Alcotest.test_case "torture kernel, all engines x precisions x opt" `Quick test_torture;
    Alcotest.test_case "barrier reduction" `Quick test_barrier_reduction;
    Alcotest.test_case "local-memory transpose" `Quick test_local_transpose;
    Alcotest.test_case "group-id addressing" `Quick test_group_id_addressing;
    Alcotest.test_case "u8 storage: wrap, zero-extend, empty binding" `Quick test_u8_storage;
    Alcotest.test_case "u8 storage mismatch rejected (native)" `Quick test_u8_mismatch;
    Alcotest.test_case "local race: static leg" `Quick test_local_race_static;
    Alcotest.test_case "local race: dynamic leg" `Quick test_local_race_dynamic;
    Alcotest.test_case "divergent barrier: static leg" `Quick test_divergent_barrier_static;
    Alcotest.test_case "divergent barrier: dynamic leg" `Quick test_divergent_barrier_dynamic;
    QCheck_alcotest.to_alcotest qcheck_safe_grouped_is_clean;
  ]
