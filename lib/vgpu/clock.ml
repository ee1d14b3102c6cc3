(* The monotonic clock behind every duration the runtime measures
   (stub in native_stubs.c). *)

external now_ns : unit -> int = "racs_monotonic_ns" [@@noalloc]

let now () = float_of_int (now_ns ()) *. 1e-9
