(* Vgpu.Buffer's allocator of large zeroed host arrays: for each kind,
   sizes on either side of the huge-page threshold come back at the
   requested length and all zero, also where malloc hands out memory
   freed dirty, and stay so across minor and major collections (CI also
   runs this group under OCAMLRUNPARAM=s=4k).  The GC scans an int
   array, so a field left unset by the stub would show here as a crash
   or a non-zero element. *)

open Vgpu

let large = Buffer.large_bytes

(* Minor collections, a full major one, and garbage in between. *)
let churn () =
  for i = 1 to 20_000 do
    ignore (Sys.opaque_identity (List.init 8 (fun j -> (i, j))))
  done;
  Gc.minor ();
  Gc.full_major ()

(* Leave dirty freed memory behind for the next request of about
   [bytes]: a larger block first, whose release raises malloc's mmap
   threshold, so that the next ones come from (and return to) its heap
   instead of fresh zero pages from the kernel. *)
let dirty bytes =
  ignore (Sys.opaque_identity (Bytes.make (2 * bytes) 'x'));
  Gc.full_major ();
  ignore (Sys.opaque_identity (Bytes.make bytes 'x'));
  Gc.full_major ()

let check_zeros name n len get =
  Alcotest.(check int) (name ^ " length") n len;
  for i = 0 to n - 1 do
    if get i <> 0 then Alcotest.failf "%s: element %d of %d is not zero" name i n
  done

let sizes elem = [ (large / elem) - 1; large / elem; (large / elem) + 4099 ]

let test_floats () =
  List.iter
    (fun n ->
      dirty (8 * n);
      let a = Buffer.zeros_float n in
      churn ();
      check_zeros (Printf.sprintf "float %d" n) n (Array.length a) (fun i ->
          if a.(i) = 0. && not (Float.sign_bit a.(i)) then 0 else 1))
    (sizes 8)

let test_ints () =
  List.iter
    (fun n ->
      dirty (8 * n);
      let a = Buffer.zeros_int n in
      churn ();
      check_zeros (Printf.sprintf "int %d" n) n (Array.length a) (Array.get a);
      (* the array stays a live, scanned block the program can write *)
      a.(n - 1) <- n;
      churn ();
      Alcotest.(check int) "last element kept" n a.(n - 1))
    (sizes 8)

let test_bytes () =
  List.iter
    (fun n ->
      dirty n;
      let b = Buffer.zeros_bytes n in
      churn ();
      check_zeros (Printf.sprintf "bytes %d" n) n (Bytes.length b) (Bytes.get_uint8 b))
    (sizes 1)

let test_empty_and_buffers () =
  Alcotest.(check int) "empty floats" 0 (Array.length (Buffer.zeros_float 0));
  Alcotest.(check int) "empty ints" 0 (Array.length (Buffer.zeros_int 0));
  Alcotest.(check int) "empty bytes" 0 (Bytes.length (Buffer.zeros_bytes 0));
  let n = large / 8 in
  List.iter
    (fun (name, b) ->
      churn ();
      check_zeros name n (Buffer.length b) (fun i -> if Buffer.get_real b i = 0. then 0 else 1))
    [ ("create_real", Buffer.create_real n); ("create_int", Buffer.create_int n) ]

let suite =
  [
    Alcotest.test_case "float arrays across the threshold" `Quick test_floats;
    Alcotest.test_case "int arrays across the threshold" `Quick test_ints;
    Alcotest.test_case "byte arrays across the threshold" `Quick test_bytes;
    Alcotest.test_case "empty requests and device buffers" `Quick test_empty_and_buffers;
  ]
