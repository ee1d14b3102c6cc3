(* Persistent OCaml 5 domain pool for the virtual GPU.

   [run] executes a fixed number of independent tasks in parallel: the
   sharded simulation's [`Concurrent] schedule runs each device's
   launches of a step as one task.  Tasks share only what their callers
   hand them; each device owns its buffers, so any schedule is
   observationally equivalent to the sequential one, bit for bit.

   Workers are spawned once and parked on a condition variable between
   runs; a step is millisecond-scale, so spawning a domain per step
   would dominate the runtime.  The pool grows on demand and is shut
   down from at_exit so test binaries terminate cleanly. *)

type worker = {
  mutable dom : unit Domain.t option;
  m : Mutex.t;
  arrive : Condition.t; (* signals a job (or stop) to the worker *)
  finish : Condition.t; (* signals completion to the submitter *)
  mutable job : (unit -> unit) option;
  mutable busy : bool;
  mutable err : exn option;
  mutable stop : bool;
}

type t = {
  mutable workers : worker array;
  grow : Mutex.t; (* guards pool growth and shutdown *)
  use : Mutex.t;  (* serialises scatter/gather cycles *)
}

let worker_loop (w : worker) =
  let rec loop () =
    Mutex.lock w.m;
    while w.job = None && not w.stop do
      Condition.wait w.arrive w.m
    done;
    match w.job with
    | None -> Mutex.unlock w.m (* stop requested *)
    | Some f ->
        Mutex.unlock w.m;
        let err = try f (); None with e -> Some e in
        Mutex.lock w.m;
        w.job <- None;
        w.err <- err;
        w.busy <- false;
        Condition.signal w.finish;
        Mutex.unlock w.m;
        loop ()
  in
  loop ()

let spawn_worker () =
  let w =
    {
      dom = None;
      m = Mutex.create ();
      arrive = Condition.create ();
      finish = Condition.create ();
      job = None;
      busy = false;
      err = None;
      stop = false;
    }
  in
  w.dom <- Some (Domain.spawn (fun () -> worker_loop w));
  w

let submit (w : worker) f =
  Mutex.lock w.m;
  w.busy <- true;
  w.err <- None;
  w.job <- Some f;
  Condition.signal w.arrive;
  Mutex.unlock w.m

(* Wait for the worker's current job; return the exception it raised,
   if any. *)
let await (w : worker) =
  Mutex.lock w.m;
  while w.busy do
    Condition.wait w.finish w.m
  done;
  let e = w.err in
  w.err <- None;
  Mutex.unlock w.m;
  e

let create () = { workers = [||]; grow = Mutex.create (); use = Mutex.create () }

(* Grow the pool to at least [n] spawned workers. *)
let ensure t n =
  Mutex.lock t.grow;
  let have = Array.length t.workers in
  if have < n then
    t.workers <- Array.append t.workers (Array.init (n - have) (fun _ -> spawn_worker ()));
  Mutex.unlock t.grow

let shutdown t =
  Mutex.lock t.grow;
  let ws = t.workers in
  t.workers <- [||];
  Mutex.unlock t.grow;
  Array.iter
    (fun w ->
      Mutex.lock w.m;
      w.stop <- true;
      Condition.signal w.arrive;
      Mutex.unlock w.m)
    ws;
  Array.iter (fun w -> Option.iter Domain.join w.dom) ws

(* Run [f 0 .. f (n-1)] in parallel, [f 0] on the calling domain, and
   wait for all of them.  Re-raises the first failure after every task
   has completed, so buffers are never left mid-write by an early exit. *)
let run t ~n f =
  if n <= 1 then f 0
  else begin
    ensure t (n - 1);
    Mutex.lock t.use;
    let finally () = Mutex.unlock t.use in
    (try
       for i = 1 to n - 1 do
         submit t.workers.(i - 1) (fun () -> f i)
       done
     with e -> finally (); raise e);
    let err0 = try f 0; None with e -> Some e in
    let errs = List.init (n - 1) (fun i -> await t.workers.(i)) in
    finally ();
    match List.filter_map Fun.id (err0 :: errs) with
    | [] -> ()
    | e :: _ -> raise e
  end

(* The shared process-wide pool.  One pool per process: domains are
   heavyweight, runtimes are not. *)
let global = create ()

let () = at_exit (fun () -> shutdown global)
