(** The monotonic clock that times launches and async-plan commands. *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds: never steps when the wall clock
    is adjusted, and resolves sub-microsecond launches. *)

val now : unit -> float
(** {!now_ns} in seconds. *)
