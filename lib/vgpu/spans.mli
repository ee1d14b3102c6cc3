(** Span sets: the dimension-0 work items a launch visits.

    A span set is a list of ascending, disjoint, non-empty half-open
    ranges [[lo, hi)] of dimension-0 work items, kept flat in one int
    array ([[| lo0; hi0; lo1; hi1; ... |]]) so that an engine reads it
    in place: the native entry receives the array itself.  A launch
    that carries one visits, for every index of its other dimensions,
    only the dimension-0 work items its spans hold; a plain launch is
    the one-span case [[0, global0)].  The constructors check the
    invariant, so every value of this type holds it. *)

type t = private int array

val of_list : (int * int) list -> t
(** Ranges [(lo, hi)] in ascending order; empty ranges ([lo = hi]) are
    dropped.
    @raise Invalid_argument on a negative [lo], a range with [lo > hi],
    or a range starting before the previous one ends. *)

val of_flat : int array -> n:int -> t
(** [of_flat a ~n]: the [n] spans [[a.(2i), a.(2i+1))], checked as
    {!of_list} checks them, except that an empty span is refused.  It
    takes [a] itself when [a] holds exactly [2n] ints, so the caller
    gives [a] up. *)

val full : int -> t
(** [full n]: the one span [[0, n)] (no span when [n] is 0). *)

val length : t -> int
(** The number of spans. *)

val lo : t -> int -> int
val hi : t -> int -> int

val items : t -> int
(** The work items the spans hold. *)

val inter : t -> lo:int -> hi:int -> t
(** The spans clipped to [[lo, hi)]; the set itself when the range holds
    all of it. *)

val shift : t -> int -> t
(** Every span moved by [d] (re-basing, e.g. onto a launch's [goff]).
    @raise Invalid_argument if a span would start below 0. *)

val check : t -> n:int -> unit
(** Do the spans lie inside an NDRange of [n] dimension-0 work items?
    Constant time and allocation-free.
    @raise Invalid_argument when the last span ends past [n]. *)

val to_list : t -> (int * int) list
