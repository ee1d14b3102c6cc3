(** Static per-work-item resource analysis of a kernel AST.

    Extracts, per update, the global-memory traffic (per buffer, with an
    indirect-access flag for gather/scatter through loaded indices) and
    the floating-point work.  Loops multiply their body by the trip
    count; conditionals count the then-branch — the guarded fast path
    that active work-items execute.

    This feeds the roofline model ({!module:Vgpu.Perf_model}); the counts
    correspond to the per-update operation counts the paper reports in
    §VII-B2. *)

(** Access statistics for one global buffer. *)
type access = {
  mutable loads : float;
  mutable stores : float;
  mutable indirect : bool;
      (** true when any access index depends on a value loaded from
          memory (the [idx = boundaryIndices[i]] idiom) *)
  buf_ty : Cast.ty;
}

type t = {
  per_buffer : (string, access) Hashtbl.t;
  mutable flops : float;
  mutable iops : float;
}

val kernel_counts : ?param_value:(string -> int option) -> Cast.kernel -> t
(** Per-work-item resource usage.  [param_value] resolves scalar
    parameters appearing as loop bounds. *)

(** {1 Aggregates} *)

val fold_buffers : t -> ('a -> string -> access -> 'a) -> 'a -> 'a
val total_loads : t -> float
val total_stores : t -> float
val global_accesses : t -> float

val elem_bytes : precision:Cast.precision -> Cast.ty -> float
(** Bytes per element of a buffer type at a given precision. *)

val bytes : precision:Cast.precision -> t -> float
(** Total bytes of global traffic per work-item, before the performance
    model's caching/coalescing refinements. *)

val pp : Format.formatter -> t -> unit
