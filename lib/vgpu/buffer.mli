(** Device global-memory buffers.

    Numeric execution is IEEE double internally; single-precision kernels
    round on store (see {!module:Exec} and {!module:Kernel_ast.Native_c})
    so float and double runs produce genuinely different numerics, as on
    real hardware. *)

type t =
  | F of float array
  | I of int array
  | U8 of Bytes.t
      (** An [Int] buffer stored as unsigned bytes, the device form of a
          {!Kernel_ast.Cast.U8} parameter: loads zero-extend, stores keep
          the low 8 bits; one byte per element in transfer accounting. *)

(** {2 Large zeroed host arrays}

    The one allocator for zero-filled grids, host and device alike
    ([State], [Shard], [Geometry.build] and the [create_*] below).  A
    request of [large_bytes] or more is allocated without touching its
    pages, its 2 MiB-aligned interior is advised for transparent huge
    pages ([madvise (MADV_HUGEPAGE)]), and only then is it zeroed, so it
    faults in 2 MiB pages.  Where the advice is unavailable or refused
    the result is the same array, faulted in 4 KiB pages.  A float array
    of any size is zeroed by libc's [memset]; smaller int and byte
    requests are plain [Array.make]/[Bytes.make]. *)

val large_bytes : int
(** 4 MiB: the smallest block every placement of which holds a whole
    2 MiB-aligned page. *)

val zeros_float : int -> float array
val zeros_int : int -> int array
val zeros_bytes : int -> Bytes.t

val ints_of_bytes : Bytes.t -> int array
(** The int array of [b]'s unsigned bytes ([Geometry.build]'s int grid
    of [nbrs]).  From [large_bytes] on it is allocated and advised as
    {!zeros_int} allocates and written once, with no zeroing first;
    below, it is an [Array.make] filled by a store loop. *)

val create_real : int -> t
val create_int : int -> t
val create : Kernel_ast.Cast.ty -> int -> t

val of_float_array : float array -> t
(** Shares the array: kernel stores are visible to the caller. *)

val of_int_array : int array -> t

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
