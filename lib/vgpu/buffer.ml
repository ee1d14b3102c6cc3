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

(* Large zeroed host arrays.  A block of [large_bytes] or more comes
   from the major heap's large-object path without its pages touched;
   the stubs mark its 2 MiB-aligned interior for transparent huge pages,
   and only then zero it, so the zeroing faults it in 2 MiB at a time
   instead of 4 KiB.  4 MiB is the smallest size whose every placement
   holds a whole aligned 2 MiB page.  Without the advice (non-Linux, or
   refused) the zeroing faults as [Array.make] does. *)
let large_bytes = 4 lsl 20

(* Advise a block's aligned interior (none below 2 MiB), then zero its
   first [n] bytes with libc's [memset]. *)
external zero_huge : 'a -> int -> unit = "racs_zero_huge" [@@noalloc]

(* the GC scans an int array, so this stub stores every zero before it
   returns, as [Array.make] does *)
external zeros_int_huge : int -> int array = "racs_zeros_int"

(* A float array of every size is zeroed by [memset]: the GC never scans
   its contents, so it may stay unset until then.  [Array.make]'s store
   loop, the runtime's [caml_make_vect], sits after all OCaml code in the
   binary, so its speed moved with the size of the program (set-up read
   up to 25% slower after code elsewhere grew: EXPERIMENTS.md). *)
let zeros_float n =
  let a = Array.create_float n in
  zero_huge a (n * 8);
  a

let zeros_int n = if n * 8 < large_bytes then Array.make n 0 else zeros_int_huge n

(* the same for an int array filled from bytes, in one pass *)
external ints_of_bytes_huge : Bytes.t -> int array = "racs_ints_of_bytes"

let ints_of_bytes b =
  let n = Bytes.length b in
  if n * 8 >= large_bytes then ints_of_bytes_huge b
  else begin
    (* a store loop on an [int array]: no write barrier, unlike [Array.init] *)
    let a = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set a i (Bytes.get_uint8 b i)
    done;
    a
  end

let zeros_bytes n =
  if n < large_bytes then Bytes.make n '\000'
  else begin
    let b = Bytes.create n in
    zero_huge b n;
    b
  end

let create_real n = F (zeros_float n)
let create_int n = I (zeros_int n)

let create (ty : Kernel_ast.Cast.ty) n =
  match ty with Real -> create_real n | Int -> create_int n

let of_float_array a = F a
let of_int_array a = I a

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
