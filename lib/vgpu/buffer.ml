(* Device global-memory buffers.

   Numeric execution is IEEE double internally; single-precision kernels
   round on store (see [Exec] and [Kernel_ast.Native_c]) so that float
   and double runs produce genuinely different numerics, as on real
   hardware.

   [U8] is the byte storage kind of an int buffer (OpenCL [uchar *]): it
   holds ints, loads zero-extend and stores keep the low 8 bits. *)

type t =
  | F of float array
  | I of int array
  | U8 of Bytes.t

let create_real n = F (Array.make n 0.)
let create_int n = I (Array.make n 0)

let create (ty : Kernel_ast.Cast.ty) n =
  match ty with Real -> create_real n | Int -> create_int n

let of_float_array a = F a
let of_int_array a = I a

(* A tight loop: the paper room's nbrs grid has 9.27M entries. *)
let u8_of_int_array a =
  let n = Array.length a in
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get a i in
    if v land lnot 0xff <> 0 then
      invalid_arg (Printf.sprintf "Buffer.u8_of_int_array: element %d is %d" i v);
    Bytes.unsafe_set b i (Char.unsafe_chr v)
  done;
  U8 b

let length = function F a -> Array.length a | I a -> Array.length a | U8 b -> Bytes.length b

let ty = function
  | F _ -> Kernel_ast.Cast.Real
  | I _ | U8 _ -> Kernel_ast.Cast.Int

let get_real t i =
  match t with
  | F a -> a.(i)
  | I a -> float_of_int a.(i)
  | U8 b -> float_of_int (Bytes.get_uint8 b i)

let get_int t i =
  match t with
  | I a -> a.(i)
  | F a -> int_of_float a.(i)
  | U8 b -> Bytes.get_uint8 b i

let set_real t i v =
  match t with
  | F a -> a.(i) <- v
  | I a -> a.(i) <- int_of_float v
  | U8 b -> Bytes.set_uint8 b i (int_of_float v land 0xff)

let set_int t i v =
  match t with
  | I a -> a.(i) <- v
  | F a -> a.(i) <- float_of_int v
  | U8 b -> Bytes.set_uint8 b i (v land 0xff)

let to_float_array = function
  | F a -> Array.copy a
  | I a -> Array.map float_of_int a
  | U8 b -> Array.init (Bytes.length b) (fun i -> float_of_int (Bytes.get_uint8 b i))

let to_int_array = function
  | I a -> Array.copy a
  | F a -> Array.map int_of_float a
  | U8 b -> Array.init (Bytes.length b) (Bytes.get_uint8 b)

let copy = function
  | F a -> F (Array.copy a)
  | I a -> I (Array.copy a)
  | U8 b -> U8 (Bytes.copy b)

(* Sub-buffer copy between buffers of one storage kind, as
   clEnqueueCopyBuffer. *)
let blit ~src ~src_off ~dst ~dst_off ~elems =
  match (src, dst) with
  | F a, F b -> Array.blit a src_off b dst_off elems
  | I a, I b -> Array.blit a src_off b dst_off elems
  | U8 a, U8 b -> Bytes.blit a src_off b dst_off elems
  | _ -> invalid_arg "Buffer.blit: buffers of different storage kinds"

let fill_real t v =
  match t with F a -> Array.fill a 0 (Array.length a) v | I _ | U8 _ -> invalid_arg "fill_real"

(* Round a double to the nearest representable float32, used to emulate
   single-precision stores. *)
let round32 (x : float) = Int32.float_of_bits (Int32.bits_of_float x)
