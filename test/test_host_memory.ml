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

(* Floats take one path at every size: also across the minor heap's
   largest block (256 words) and at a small room's grid (32x24x20). *)
let test_floats () =
  List.iter
    (fun n ->
      dirty (8 * n);
      let a = Buffer.zeros_float n in
      churn ();
      check_zeros (Printf.sprintf "float %d" n) n (Array.length a) (fun i ->
          if a.(i) = 0. && not (Float.sign_bit a.(i)) then 0 else 1))
    ([ 0; 1; 255; 256; 257; 32 * 24 * 20 ] @ sizes 8)

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

(* [ints_of_bytes] across the int threshold: every byte value, high
   bits included, read back as its unsigned int, and the array stays a
   live, scanned block. *)
let test_ints_of_bytes () =
  List.iter
    (fun n ->
      dirty (8 * n);
      let b = Bytes.init n (fun i -> Char.unsafe_chr (i * 37 land 255)) in
      let a = Buffer.ints_of_bytes b in
      churn ();
      Alcotest.(check int) (Printf.sprintf "ints of %d bytes: length" n) n (Array.length a);
      for i = 0 to n - 1 do
        if a.(i) <> i * 37 land 255 then
          Alcotest.failf "ints of %d bytes: element %d is %d, byte %d" n i a.(i) (i * 37 land 255)
      done)
    (0 :: sizes 8)

(* The room's int grid of [nbrs] is its byte grid, element for element,
   for every shape: at a small size and at one whose grids both take
   the large path. *)
let test_room_nbrs_of_bytes () =
  let open Acoustics in
  List.iter
    (fun dims ->
      List.iter
        (fun shape ->
          let room = Geometry.build shape dims in
          churn ();
          let n = Bytes.length room.Geometry.nbrs_u8 in
          let where = Printf.sprintf "%s, %d voxels" (Geometry.shape_label shape) n in
          Alcotest.(check int) (where ^ ": length") n (Array.length room.Geometry.nbrs);
          for i = 0 to n - 1 do
            if room.Geometry.nbrs.(i) <> Char.code (Bytes.get room.Geometry.nbrs_u8 i) then
              Alcotest.failf "%s: nbrs.(%d) = %d, byte %d" where i room.Geometry.nbrs.(i)
                (Char.code (Bytes.get room.Geometry.nbrs_u8 i))
          done)
        [ Geometry.Box; Geometry.Dome; Geometry.L_shape ])
    [ Geometry.dims ~nx:13 ~ny:11 ~nz:9; Geometry.dims ~nx:161 ~ny:161 ~nz:162 ]

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
    Alcotest.test_case "ints of bytes across the threshold" `Quick test_ints_of_bytes;
    Alcotest.test_case "room nbrs: the byte grid as ints" `Quick test_room_nbrs_of_bytes;
    Alcotest.test_case "empty requests and device buffers" `Quick test_empty_and_buffers;
  ]
