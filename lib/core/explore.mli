(** Rewrite-space exploration.

    Lift's optimisation story (paper §III): one high-level program is
    rewritten into many semantically equal variants and the best is
    selected for the target hardware.  Bounded breadth-first closure of
    the rewrite rules, plus compilation and ranking with the virtual
    GPU's performance model. *)

type variant = {
  v_program : Ast.lam;
  v_trace : string list;  (** rule names applied, in order *)
}

val key : Ast.lam -> string
(** Alpha-insensitive structural key used for deduplication. *)

val variants : ?rules:Rewrite.rule list -> ?depth:int -> Ast.lam -> variant list
(** All distinct variants reachable in at most [depth] rule sweeps,
    including the original program. *)

type ranked = {
  r_variant : variant;
  r_kernel : Kernel_ast.Cast.kernel;
  r_time_s : float;
}

val rank :
  ?precision:Kernel_ast.Cast.precision ->
  device:Vgpu.Device.t ->
  workload:Vgpu.Perf_model.workload ->
  variant list ->
  ranked list
(** Compile each variant and sort by predicted runtime (fastest first);
    variants that fail to compile are dropped. *)

val best :
  ?rules:Rewrite.rule list ->
  ?depth:int ->
  ?precision:Kernel_ast.Cast.precision ->
  device:Vgpu.Device.t ->
  workload:Vgpu.Perf_model.workload ->
  Ast.lam ->
  ranked option
(** Explore, lower every variant's outer map to the GPU, compile, rank,
    and return the fastest variant if any compiles. *)
