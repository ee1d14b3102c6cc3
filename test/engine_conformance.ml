(* Cross-engine conformance harness.

   One harness, two engines (reference interpreter, native compiled C),
   two precisions, optimizer on and off: every output buffer must match
   the interpreter bit-for-bit in all eight configurations.  The torture
   kernel from the native suite is re-run through the harness.

   Byte storage ([Cast.U8], OpenCL [uchar *]) gets its own case: stores
   wrap mod 256 and loads zero-extend identically on every engine and
   under the sanitizer, and a launch whose buffer storage does not match
   the parameter's is rejected by native.

   Span launches ([Vgpu.Spans]) get a property: on every engine and
   under the sanitizer a launch writes exactly the work items its spans
   hold. *)

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

(* -- Span launches ------------------------------------------------------ *)

(* A pointwise kernel: work item i writes out[i] = 2 src[i] + 1. *)
let span_kernel =
  {
    name = "span_probe";
    precision = Double;
    params = [ param "out" Real; param "src" Real ];
    global_size = [ Int_lit 1 ];
    local_size = [];
    body = [ Store ("out", Global_id 0, (Load ("src", Global_id 0) *: Real_lit 2.) +: Real_lit 1.) ];
  }

(* Spans of [0, n) from (gap, length) steps: a gap of 0 makes two spans
   adjacent. *)
let spans_of n steps =
  let rec go p acc = function
    | (gap, len) :: rest when p + gap < n -> go (min n (p + gap + len)) ((p + gap, min n (p + gap + len)) :: acc) rest
    | _ -> List.rev acc
  in
  go 0 [] steps

let gen_span_launch =
  QCheck.Gen.(
    int_range 0 40 >>= fun n ->
    frequency
      [
        (1, return []);
        (1, return (if n = 0 then [] else [ (0, n) ]));
        (6, map (spans_of n) (list_size (int_range 0 12) (pair (int_range 0 3) (int_range 1 6))));
      ]
    >|= fun spans -> (n, spans))

(* Interp, native and the sanitizer: a span launch writes exactly the
   work items of its spans (the empty set, one full span, adjacent
   spans included) and leaves every other cell as it was. *)
let qcheck_span_launches =
  let native = lazy (use_scratch_cache (); Vgpu.Native.compile span_kernel) in
  QCheck.Test.make ~name:"span launches write exactly their spans, on every engine" ~count:150
    (QCheck.make
       ~print:(fun (n, l) ->
         Printf.sprintf "n=%d spans=[%s]" n
           (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l)))
       gen_span_launch)
    (fun (n, ranges) ->
      let spans = Vgpu.Spans.of_list ranges in
      let engines =
        [
          ("interp", fun args -> Vgpu.Exec.launch ~spans span_kernel ~args ~global:[ n ]);
          ("native", fun args -> Vgpu.Native.launch ~spans (Lazy.force native) ~args ~global:[ n ]);
          ( "sanitizer",
            fun args ->
              let s = Vgpu.Sanitizer.create () in
              Vgpu.Sanitizer.launch ~spans s span_kernel ~args ~global:[ n ];
              if Vgpu.Sanitizer.total (Vgpu.Sanitizer.counts s) <> 0 then
                QCheck.Test.fail_report "sanitizer: violations" );
        ]
      in
      List.for_all
        (fun (label, launch) ->
          let out = Array.init n (fun i -> -1000. -. float_of_int i) in
          let src = Array.init n (fun i -> float_of_int ((3 * i) + 1)) in
          launch Vgpu.Args.[ Buf (Vgpu.Buffer.F out); Buf (Vgpu.Buffer.F src) ];
          Array.iteri
            (fun i v ->
              let inside = List.exists (fun (a, b) -> a <= i && i < b) ranges in
              let want = if inside then (src.(i) *. 2.) +. 1. else -1000. -. float_of_int i in
              if Int64.bits_of_float v <> Int64.bits_of_float want then
                QCheck.Test.fail_reportf "%s: cell %d holds %g, want %g" label i v want)
            out;
          true)
        engines)

(* [Spans.inter] and [Spans.shift], which cut and re-base a shard's
   spans for each ranged launch, agree with a list model. *)
let qcheck_span_algebra =
  QCheck.Test.make ~name:"span intersection and shift match a list model" ~count:300
    QCheck.(
      make
        ~print:(fun ((n, l), (a, b)) ->
          Printf.sprintf "n=%d spans=[%s] range [%d, %d)" n
            (String.concat "; " (List.map (fun (x, y) -> Printf.sprintf "%d,%d" x y) l))
            a b)
        Gen.(pair gen_span_launch (pair (int_range 0 45) (int_range 0 45))))
    (fun ((_, ranges), (a, b)) ->
      let s = Vgpu.Spans.of_list ranges in
      let model =
        List.filter_map
          (fun (x, y) ->
            let x = max x a and y = min y b in
            if x < y then Some (x, y) else None)
          ranges
      in
      Vgpu.Spans.to_list (Vgpu.Spans.inter s ~lo:a ~hi:b) = model
      && Vgpu.Spans.to_list (Vgpu.Spans.shift (Vgpu.Spans.inter s ~lo:a ~hi:b) 7)
         = List.map (fun (x, y) -> (x + 7, y + 7)) model
      && Vgpu.Spans.items s = List.fold_left (fun acc (x, y) -> acc + y - x) 0 ranges)

(* A span past the NDRange is refused by every engine before it runs. *)
let test_span_past_ndrange () =
  use_scratch_cache ();
  let spans = Vgpu.Spans.of_list [ (2, 9) ] in
  let args () = Vgpu.Args.[ Buf (Vgpu.Buffer.F (Array.make 9 0.)); Buf (Vgpu.Buffer.F (Array.make 9 0.)) ] in
  List.iter
    (fun (label, launch) ->
      match launch (args ()) with
      | () -> Alcotest.failf "%s: a span past the NDRange ran" label
      | exception Invalid_argument _ -> ())
    [
      ("interp", fun args -> Vgpu.Exec.launch ~spans span_kernel ~args ~global:[ 8 ]);
      ( "native",
        fun args -> Vgpu.Native.launch ~spans (Vgpu.Native.compile span_kernel) ~args ~global:[ 8 ] );
      ( "sanitizer",
        fun args -> Vgpu.Sanitizer.launch ~spans (Vgpu.Sanitizer.create ()) span_kernel ~args ~global:[ 8 ] );
    ];
  match Vgpu.Spans.of_list [ (0, 4); (3, 6) ] with
  | _ -> Alcotest.fail "overlapping spans accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "torture kernel, all engines x precisions x opt" `Quick test_torture;
    Alcotest.test_case "u8 storage: wrap, zero-extend, empty binding" `Quick test_u8_storage;
    Alcotest.test_case "u8 storage mismatch rejected (native)" `Quick test_u8_mismatch;
    QCheck_alcotest.to_alcotest qcheck_span_launches;
    QCheck_alcotest.to_alcotest qcheck_span_algebra;
    Alcotest.test_case "a span past the NDRange is refused" `Quick test_span_past_ndrange;
  ]
