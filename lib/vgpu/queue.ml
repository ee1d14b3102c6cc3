(* Asynchronous per-device command queues for the virtual GPU.

   Each queue owns one OCaml domain that drains a FIFO of commands, the
   shape of an in-order OpenCL command queue.  Cross-queue ordering is
   expressed with explicit event objects: a command lists the events it
   waits on and may signal one when it retires, so an exchange waits
   only on the producing launches (same-queue FIFO order) and its
   consumer waits only on the exchange — never on unrelated devices.

   Timing is *virtual*.  The host this repo targets may expose a single
   core, so wall-clock overlap is not observable; instead every queue
   advances a virtual clock (nanoseconds) by each command's duration —
   measured wall time for launches, a modeled cost for exchanges — and a
   waiting command starts no earlier than the [ready_at] stamp of the
   events it waits on.  A process-wide execution lock runs one command
   body at a time, so the measured durations are clean single-command
   times (this is how a performance-model simulator must measure; it
   does not change results, which depend only on the event order).  The
   overlapped time of a schedule is then the critical path:
   [max over queues of vclock], versus the sequential sum. *)

type event = {
  ev_id : int;
  mutable fired : bool;
  mutable ready_at : float;  (* virtual ns when the signaling cmd retired *)
  em : Mutex.t;
  ecv : Condition.t;
}

type cmd = {
  c_label : string;
  c_waits : event list;
  c_signal : event option;
  c_vcost : float option;  (* virtual ns; [None] = use measured wall time *)
  c_run : unit -> unit;
}

type stats = {
  q_vclock : float;  (* virtual ns at which the queue's last cmd retired *)
  q_vspan_ns : float;  (* vclock advance since the last reset *)
  q_busy_ns : float;  (* sum of command durations since reset *)
  q_enqueued : int;  (* commands accepted since reset *)
  q_depth_hw : int;  (* high-water mark of pending commands *)
}

type t = {
  q : cmd Stdlib.Queue.t;
  m : Mutex.t;
  arrive : Condition.t;  (* signals a command (or stop) to the worker *)
  drained : Condition.t;  (* signals pending = 0 to [finish] *)
  mutable pending : int;
  mutable vclock : float;
  mutable vbase : float;  (* vclock at the last stats reset *)
  mutable busy_ns : float;
  mutable enqueued : int;
  mutable depth_hw : int;
  mutable err : exn option;  (* first command failure, kept for [finish] *)
  mutable stop : bool;
  mutable dom : unit Domain.t option;
}

let next_event_id = Atomic.make 0

let fresh_event () =
  {
    ev_id = Atomic.fetch_and_add next_event_id 1;
    fired = false;
    ready_at = 0.;
    em = Mutex.create ();
    ecv = Condition.create ();
  }

let signal_event ev ~at =
  Mutex.lock ev.em;
  ev.ready_at <- at;
  ev.fired <- true;
  Condition.broadcast ev.ecv;
  Mutex.unlock ev.em

(* Block until [ev] fires; return its retirement stamp.  Safe from any
   queue's worker: waits reference only events created by earlier
   submissions, so the dependence graph is acyclic, and a signaling
   command always fires its event — even when skipped after an error —
   so no waiter is stranded. *)
let await_event ev =
  Mutex.lock ev.em;
  while not ev.fired do
    Condition.wait ev.ecv ev.em
  done;
  let at = ev.ready_at in
  Mutex.unlock ev.em;
  at

(* One command body at a time, process-wide, so measured durations are
   not inflated by preemption between queues. *)
let exec_lock = Mutex.create ()

let worker_loop (t : t) =
  let rec loop () =
    Mutex.lock t.m;
    while Stdlib.Queue.is_empty t.q && not t.stop do
      Condition.wait t.arrive t.m
    done;
    if Stdlib.Queue.is_empty t.q then Mutex.unlock t.m (* stop requested *)
    else begin
      let c = Stdlib.Queue.pop t.q in
      let poisoned = t.err <> None in
      Mutex.unlock t.m;
      (* Wait dependencies first, outside the execution lock. *)
      let deps_ready = List.fold_left (fun acc ev -> Float.max acc (await_event ev)) 0. c.c_waits in
      let dur_ns =
        if poisoned then Option.value c.c_vcost ~default:0.
        else begin
          Mutex.lock exec_lock;
          let t0 = Clock.now_ns () in
          let err = try c.c_run (); None with e -> Some e in
          let wall_ns = float_of_int (Clock.now_ns () - t0) in
          Mutex.unlock exec_lock;
          (match err with
          | Some e ->
              Mutex.lock t.m;
              if t.err = None then t.err <- Some e;
              Mutex.unlock t.m
          | None -> ());
          Option.value c.c_vcost ~default:wall_ns
        end
      in
      Mutex.lock t.m;
      let start_v = Float.max t.vclock deps_ready in
      t.vclock <- start_v +. dur_ns;
      t.busy_ns <- t.busy_ns +. dur_ns;
      let at = t.vclock in
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.drained;
      Mutex.unlock t.m;
      (* Fire after the clock update so waiters see the retirement
         stamp; fire even on the error path so no consumer deadlocks. *)
      Option.iter (fun ev -> signal_event ev ~at) c.c_signal;
      loop ()
    end
  in
  loop ()

let create () =
  let t =
    {
      q = Stdlib.Queue.create ();
      m = Mutex.create ();
      arrive = Condition.create ();
      drained = Condition.create ();
      pending = 0;
      vclock = 0.;
      vbase = 0.;
      busy_ns = 0.;
      enqueued = 0;
      depth_hw = 0;
      err = None;
      stop = false;
      dom = None;
    }
  in
  t.dom <- Some (Domain.spawn (fun () -> worker_loop t));
  t

let enqueue t c =
  Mutex.lock t.m;
  if t.stop then begin
    Mutex.unlock t.m;
    invalid_arg "Vgpu.Queue.enqueue: queue is shut down"
  end;
  Stdlib.Queue.push c t.q;
  t.pending <- t.pending + 1;
  t.enqueued <- t.enqueued + 1;
  if t.pending > t.depth_hw then t.depth_hw <- t.pending;
  Condition.signal t.arrive;
  Mutex.unlock t.m

(* Drain the queue; re-raise the first command failure, once. *)
let finish t =
  Mutex.lock t.m;
  while t.pending > 0 do
    Condition.wait t.drained t.m
  done;
  let e = t.err in
  t.err <- None;
  Mutex.unlock t.m;
  match e with Some e -> raise e | None -> ()

let vclock t =
  Mutex.lock t.m;
  let v = t.vclock in
  Mutex.unlock t.m;
  v

let stats t =
  Mutex.lock t.m;
  let s =
    {
      q_vclock = t.vclock;
      q_vspan_ns = t.vclock -. t.vbase;
      q_busy_ns = t.busy_ns;
      q_enqueued = t.enqueued;
      q_depth_hw = t.depth_hw;
    }
  in
  Mutex.unlock t.m;
  s

(* Advance the virtual clock to [at] (never backwards): lets a caller
   owning several queues re-align their timelines before a measurement
   interval, so cross-queue skew left by earlier work doesn't distort
   the critical path.  Only meaningful on a drained queue. *)
let align t ~at =
  Mutex.lock t.m;
  if at > t.vclock then t.vclock <- at;
  Mutex.unlock t.m

(* Counters reset; the virtual clock keeps running (callers measure
   intervals as vclock deltas, like a device timestamp counter). *)
let reset_stats t =
  Mutex.lock t.m;
  t.vbase <- t.vclock;
  t.busy_ns <- 0.;
  t.enqueued <- 0;
  t.depth_hw <- 0;
  Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.arrive;
  Mutex.unlock t.m;
  (match t.dom with Some d -> Domain.join d | None -> ());
  t.dom <- None

(* -- Process-wide registry ------------------------------------------- *)

(* Domains are heavyweight and capped, so queues are shared by device
   index across every [Multi] instance in the process (one simulation
   drives them at a time; [finish] fully drains between users), grown on
   demand and shut down from at_exit. *)

let registry : t list ref = ref []
let reg_m = Mutex.create ()

let global i =
  if i < 0 then invalid_arg "Vgpu.Queue.global: negative index";
  Mutex.lock reg_m;
  while List.length !registry <= i do
    registry := !registry @ [ create () ]
  done;
  let q = List.nth !registry i in
  Mutex.unlock reg_m;
  q

(* The queue for device [i] if one was ever spawned — stats queries must
   not spawn domains as a side effect. *)
let global_opt i =
  Mutex.lock reg_m;
  let q = List.nth_opt !registry i in
  Mutex.unlock reg_m;
  q

let shutdown_all () =
  Mutex.lock reg_m;
  let qs = !registry in
  registry := [];
  Mutex.unlock reg_m;
  List.iter shutdown qs

let () = at_exit shutdown_all
