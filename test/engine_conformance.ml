(* Cross-engine conformance harness.

   One harness, two engines (reference interpreter, native compiled C),
   two precisions, optimizer on and off: every output buffer must match
   the interpreter bit-for-bit in all eight configurations.  The torture
   kernel from the native suite is re-run through the harness.

   Byte storage ([Cast.U8], OpenCL [uchar *]) gets its own case: stores
   wrap mod 256 and loads zero-extend identically on every engine and
   under the sanitizer, and a launch whose buffer storage does not match
   the parameter's is rejected by native. *)

open Kernel_ast.Cast

(* Compiled-C artefacts go to a scratch cache, not the user's. *)
let scratch_cache =
  lazy
    (let dir = Test_util.scratch_dir "conformance" in
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

let suite =
  [
    Alcotest.test_case "torture kernel, all engines x precisions x opt" `Quick test_torture;
    Alcotest.test_case "u8 storage: wrap, zero-extend, empty binding" `Quick test_u8_storage;
    Alcotest.test_case "u8 storage mismatch rejected (native)" `Quick test_u8_mismatch;
  ]
