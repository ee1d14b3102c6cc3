(** Persistent OCaml 5 domain pool.

    Runs a fixed number of independent tasks in parallel; the sharded
    simulation's [`Concurrent] schedule runs each device's launches of a
    time step as one task.  Workers are spawned on first use, parked
    between runs, grown on demand and joined from [at_exit]. *)

type t

val global : t
(** The shared process-wide pool. *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes [f 0 .. f (n-1)] in parallel ([f 0] on the
    calling domain), growing the pool as needed, and waits for all of
    them.  The first exception is re-raised after every task finished. *)

val shutdown : t -> unit
(** Stop and join every worker.  The pool can be reused; workers are
    respawned on demand.  Called on {!global} automatically at exit. *)
