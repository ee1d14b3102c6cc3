(** Device global-memory buffers.

    Numeric execution is IEEE double internally; single-precision kernels
    round on store (see {!module:Exec} and {!module:Jit}) so float and
    double runs produce genuinely different numerics, as on real
    hardware. *)

type t =
  | F of float array
  | I of int array
  | U8 of Bytes.t
      (** An [Int] buffer stored as unsigned bytes, the device form of a
          {!Kernel_ast.Cast.U8} parameter: loads zero-extend, stores keep
          the low 8 bits; one byte per element in transfer accounting. *)

val create_real : int -> t
val create_int : int -> t
val create : Kernel_ast.Cast.ty -> int -> t

val of_float_array : float array -> t
(** Shares the array: kernel stores are visible to the caller. *)

val of_int_array : int array -> t

val u8_of_int_array : int array -> t
(** A fresh [U8] copy.
    @raise Invalid_argument on an element outside [0..255]. *)

val length : t -> int
val ty : t -> Kernel_ast.Cast.ty

val get_real : t -> int -> float
val get_int : t -> int -> int
val set_real : t -> int -> float -> unit
val set_int : t -> int -> int -> unit

val to_float_array : t -> float array
(** Copies. *)

val to_int_array : t -> int array
val copy : t -> t

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> elems:int -> unit
(** Sub-buffer copy between two buffers of one storage kind.
    @raise Invalid_argument on different kinds or a range out of
    bounds. *)

val fill_real : t -> float -> unit

val round32 : float -> float
(** Round a double to the nearest representable float32; used to emulate
    single-precision stores. *)
