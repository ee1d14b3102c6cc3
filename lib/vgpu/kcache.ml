(* Bounded LRU cache keyed by content digest.

   The runtime's per-kernel caches (optimizer output, clean
   verification verdicts, native binaries) were previously name-keyed
   unbounded lists scanned by structural equality: colliding names
   degraded every lookup to O(n * |AST|) and entries were never
   evicted.  Here the key is a structural hash computed once per
   kernel value, lookups are O(1), and the cache holds at most
   [capacity] entries with least-recently-used eviction (an O(n) scan
   at eviction time — capacities are small and evictions rare).

   Hit/miss/eviction counters surface in [Runtime.stats]. *)

type 'a entry = { value : 'a; mutable last_use : int }

type 'a t = {
  label : string;
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_entries : int;
}

let default_capacity = 128

let create ?(capacity = default_capacity) label =
  if capacity < 1 then invalid_arg "Kcache.create: capacity must be positive";
  {
    label;
    capacity;
    table = Hashtbl.create 16;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let label t = t.label

let touch t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_use <= e.last_use -> acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1
  | None -> ()

(* [find_or_add t key make]: cached value for [key], calling [make]
   once on a miss.  If [make] raises, nothing is cached and the next
   lookup retries. *)
let find_or_add t key make =
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.hits <- t.hits + 1;
      touch t e;
      e.value
  | None ->
      t.misses <- t.misses + 1;
      let v = make () in
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let e = { value = v; last_use = 0 } in
      touch t e;
      Hashtbl.replace t.table key e;
      v

(* A lookup the caller answered from its own copy of an earlier result
   (a prepared launch) still counts as a hit, so the counters read as if
   every lookup had been made.  The entry's recency is left alone. *)
let note_hit t = t.hits <- t.hits + 1

let mem t key = Hashtbl.mem t.table key
let length t = Hashtbl.length t.table

let counters t =
  {
    c_hits = t.hits;
    c_misses = t.misses;
    c_evictions = t.evictions;
    c_entries = Hashtbl.length t.table;
  }

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let add_counters a b =
  {
    c_hits = a.c_hits + b.c_hits;
    c_misses = a.c_misses + b.c_misses;
    c_evictions = a.c_evictions + b.c_evictions;
    c_entries = a.c_entries + b.c_entries;
  }

let pp_counters ppf c =
  Fmt.pf ppf "%d hit(s), %d miss(es), %d eviction(s), %d entrie(s)" c.c_hits c.c_misses
    c.c_evictions c.c_entries
