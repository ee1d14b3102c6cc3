(** On-disk best-plan cache for the autotuner.

    One line-oriented text file per tuning key under {!cache_dir},
    installed atomically (process-unique temp file + rename, the same
    discipline as the native backend's binary cache), so concurrent
    tuners never expose a torn entry.  Corrupt or truncated entries
    parse to a miss and are overwritten by the next {!store} — never
    trusted, never fatal.

    The directory also persists the {!Vgpu.Perf_model.Calibration}
    correction table. *)

type schedule = [ `Seq | `Concurrent | `Overlap ]

(** An execution plan: every knob the autotuner searches that changes
    what runs.  The volume kernel is always the flat one. *)
type plan = {
  pl_unroll : int option;  (** optimizer unroll-budget override *)
  pl_shards : int;  (** Z-slab shard count (1 = single device) *)
  pl_schedule : schedule;
  pl_tblock : int;
      (** temporal block depth T: depth-T ghost zones, one halo-exchange
          round per T steps; 1 = the per-step cadence *)
}

val default_plan : plan
(** One device, sequential schedule, default optimizer budget, T = 1 —
    the plan [racs simulate] runs with no flags. *)

val string_of_schedule : schedule -> string
(** ["seq"], ["concurrent"] or ["overlap"]: the schedule's name in a
    plan file, a plan label and the tuner's JSON. *)

type key = {
  k_scheme : string;  (** fi | fi-mm | fd-mm *)
  k_shape : string;
  k_dims : int * int * int;
  k_precision : string;
  k_device : string;
  k_engine : string;
  k_digest : string;
      (** digest of the candidate kernel code — a kernel change
          invalidates cached plans *)
}

type entry = {
  e_plan : plan;
  e_predicted_s : float;  (** model per-step time of the winning plan *)
  e_measured_s : float;  (** measured median per-step time of the winner *)
  e_default_s : float;  (** measured median per-step time of the default *)
  e_samples : int;  (** measurement repeats behind the medians *)
}

val find : key -> entry option
(** Look the key up on disk.  Corrupt, torn, missing or key-mismatched
    entries all return [None] (counted as a miss). *)

val store : key -> entry -> unit
(** Atomically install the entry (temp file + rename), creating the
    cache directory as needed. *)

val cache_dir : unit -> string
(** Resolution order: {!set_cache_dir} override, [RACS_PLAN_DIR],
    [$XDG_CACHE_HOME/racs/plans], [$HOME/.cache/racs/plans], then the
    system temp directory. *)

val set_cache_dir : string -> unit
(** Process-wide override, for tests and hermetic runs. *)

val counters : unit -> int * int * int
(** [(hits, misses, stores)] since start or {!reset_counters} — the
    warm-cache CI assertion reads these. *)

val reset_counters : unit -> unit

val save_calibration : Vgpu.Perf_model.Calibration.t -> unit
(** Atomically persist the correction table into {!cache_dir}. *)

val load_calibration : unit -> Vgpu.Perf_model.Calibration.t
(** Load the persisted correction table; an absent or corrupt file
    yields an empty table. *)

val key_digest : key -> string
(** The hex digest naming the entry file — stable across runs. *)
