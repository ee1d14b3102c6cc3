(** Bounded LRU cache keyed by content digest.

    Backs the runtime's per-kernel caches (optimizer output, clean
    verification verdicts, native binaries): O(1) digest-keyed
    lookup, bounded size with least-recently-used eviction, and
    hit/miss/eviction counters surfaced through [Runtime.stats]. *)

type 'a t

type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_entries : int;  (** current size (at snapshot time) *)
}

val default_capacity : int
(** 128 — far above the distinct-kernel count of any simulation, so
    eviction only triggers under genuinely unbounded kernel streams. *)

val create : ?capacity:int -> string -> 'a t
(** [create label] makes an empty cache; [label] names it in stats.
    @raise Invalid_argument if [capacity < 1]. *)

val label : 'a t -> string

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** Cached value under a digest key, computing (and caching) it on a
    miss; eviction removes the least-recently-used entry when the
    cache is full.  If the computation raises, nothing is cached. *)

val note_hit : 'a t -> unit
(** Count a hit for a lookup the caller skipped because it kept the
    value of an earlier one (the runtime's prepared launches do), so the
    counters read as if every lookup had been made.  Recency is not
    touched. *)

val mem : 'a t -> string -> bool
val length : 'a t -> int
val counters : 'a t -> counters

val reset_counters : 'a t -> unit
(** Zero the counters; cached entries are kept. *)

val add_counters : counters -> counters -> counters
val pp_counters : Format.formatter -> counters -> unit
