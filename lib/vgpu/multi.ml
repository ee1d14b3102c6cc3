(* Multi-device virtual GPU.

   A [Multi.t] is an array of independent [Runtime.t] devices — each with
   its own buffer table, kernel caches and launch statistics — plus one extra
   plan primitive, [Exchange], that moves a sub-buffer slice from one
   device's buffer to another's.  That is the halo-exchange step of the
   Z-sharded acoustics backend: every other op addresses exactly one
   device, so a multi-device plan is a single-device plan tagged with
   device indices, interleaved with exchanges.

   Exchange bytes are accounted once, on the *source* device, at its
   transfer precision — the same convention a real driver would use for
   a peer-to-peer copy — and surface as [Runtime.stats.s_d2d_bytes] both
   per device and in the aggregate view. *)

type t = { devices : Runtime.t array }

let create ?(engine = Runtime.Native) ?(optimize = true) ?unroll_budget
    ?(precision = Kernel_ast.Cast.Double) ?verify ?(sanitize = false) ~devices () =
  if devices < 1 then invalid_arg "Vgpu.Multi.create: need at least one device";
  {
    devices =
      Array.init devices (fun _ ->
          Runtime.create ~engine ~optimize ?unroll_budget ~precision ?verify
            ~sanitize ());
  }

let n_devices t = Array.length t.devices

let device t i =
  if i < 0 || i >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Vgpu.Multi.device: no device %d" i);
  t.devices.(i)

let bind t i name buf = Runtime.bind (device t i) name buf

type op =
  | Dev of int * Runtime.op
  | Exchange of {
      src_dev : int;
      src : string;
      src_off : int;
      dst_dev : int;
      dst : string;
      dst_off : int;
      elems : int;
    }

type plan = op list

let run_op t = function
  | Dev (i, op) -> Runtime.run_op (device t i) op
  | Exchange { src_dev; src; src_off; dst_dev; dst; dst_off; elems } ->
      let sdev = device t src_dev and ddev = device t dst_dev in
      let sb = Runtime.buffer sdev src and db = Runtime.buffer ddev dst in
      Runtime.blit_buffers ~src:sb ~src_off ~dst:db ~dst_off ~elems;
      (* the destination device's sanitizer sees the halo cells as
         defined once the exchange lands *)
      (match Runtime.sanitizer ddev with
      | Some s -> Sanitizer.note_blit s db ~off:dst_off ~len:elems
      | None -> ());
      Runtime.account_d2d sdev (Runtime.slice_bytes ~precision:sdev.Runtime.precision sb elems)

let run t (plan : plan) = List.iter (run_op t) plan

(* -- Asynchronous execution ------------------------------------------ *)

(* An async plan is a plan whose ops carry explicit event dependencies:
   integer event ids chosen by the builder, turned into [Queue.event]
   objects at submission.  An op runs on its device's queue ([Exchange]
   on the *source* device's queue, where a driver would enqueue the
   peer-to-peer copy), so per-queue FIFO order plus the signal→wait
   edges is the complete happens-before relation. *)

type async_op = {
  a_op : op;
  a_waits : int list;  (* event ids that must fire before the op runs *)
  a_signal : int option;  (* event id fired when the op retires *)
}

type async_plan = async_op list

let default_link_gb_s = 12.

(* A plan op compiled for deferred execution: device names resolved to
   buffers *now* (the clSetKernelArg moment), so worker domains never
   read a buffer table and host-side rebinding between steps cannot
   race a queued op.  Host-only ops — [Alloc], [Swap] — execute during
   compilation, in submission order, and produce no command. *)
type ccmd = {
  cc_queue : int;
  cc_label : string;
  cc_waits : int list;
  cc_signal : int option;
  cc_vcost : float option;  (* virtual ns; None = measured wall time *)
  cc_run : unit -> unit;
}

let compile_async t ~link_gb_s (plan : async_plan) : ccmd list =
  List.filter_map
    (fun { a_op; a_waits; a_signal } ->
      let cmd cc_queue cc_label cc_vcost cc_run =
        Some { cc_queue; cc_label; cc_waits = a_waits; cc_signal = a_signal; cc_vcost; cc_run }
      in
      match a_op with
      | Dev (i, ((Runtime.Alloc _ | Runtime.Swap _) as op)) ->
          (* host-side bookkeeping: runs at submission *)
          Runtime.run_op (device t i) op;
          None
      | Dev (i, Runtime.Launch { kernel; args; global }) ->
          let d = device t i in
          let rargs = List.map (Runtime.resolve_arg d) args in
          cmd i kernel.Kernel_ast.Cast.name None (fun () ->
              Runtime.launch_resolved d kernel ~args:rargs ~global)
      | Dev (i, Runtime.Copy_to_gpu name) ->
          let d = device t i in
          let b = Runtime.buffer d name in
          let bytes = Runtime.slice_bytes ~precision:d.Runtime.precision b (Buffer.length b) in
          cmd i ("h2d " ^ name) None (fun () ->
              d.Runtime.h2d_bytes <- d.Runtime.h2d_bytes + bytes)
      | Dev (i, Runtime.Copy_to_host name) ->
          let d = device t i in
          let b = Runtime.buffer d name in
          let bytes = Runtime.slice_bytes ~precision:d.Runtime.precision b (Buffer.length b) in
          cmd i ("d2h " ^ name) None (fun () ->
              d.Runtime.d2h_bytes <- d.Runtime.d2h_bytes + bytes)
      | Dev (i, Runtime.Copy_buffer { src; src_off; dst; dst_off; elems }) ->
          let d = device t i in
          let sb = Runtime.buffer d src and db = Runtime.buffer d dst in
          cmd i ("copy " ^ src ^ "->" ^ dst) None (fun () ->
              Runtime.blit_buffers ~src:sb ~src_off ~dst:db ~dst_off ~elems;
              (match Runtime.sanitizer d with
              | Some s -> Sanitizer.note_blit s db ~off:dst_off ~len:elems
              | None -> ());
              Runtime.account_d2d d
                (Runtime.slice_bytes ~precision:d.Runtime.precision sb elems))
      | Exchange { src_dev; src; src_off; dst_dev; dst; dst_off; elems } ->
          let sdev = device t src_dev and ddev = device t dst_dev in
          let sb = Runtime.buffer sdev src and db = Runtime.buffer ddev dst in
          let bytes = Runtime.slice_bytes ~precision:sdev.Runtime.precision sb elems in
          (* priced, not measured: a memcpy's wall time on the host says
             nothing about a PCIe/NVLink transfer, so the queue advances
             its virtual clock by bytes / link bandwidth instead *)
          let vcost = float_of_int bytes /. link_gb_s in
          cmd src_dev
            (Printf.sprintf "exchange d%d->d%d" src_dev dst_dev)
            (Some vcost)
            (fun () ->
              Runtime.blit_buffers ~src:sb ~src_off ~dst:db ~dst_off ~elems;
              (match Runtime.sanitizer ddev with
              | Some s -> Sanitizer.note_blit s db ~off:dst_off ~len:elems
              | None -> ());
              Runtime.account_d2d sdev bytes))
    plan

let sanitizing t = Array.exists (fun d -> Runtime.sanitizer d <> None) t.devices

(* Submit an async plan to the per-device queues and return the events
   it signals, keyed by plan event id, for import into a later
   submission (cross-step dependencies under pipelining). *)
let submit_async ?(imports : (int * Queue.event) list = []) ?(link_gb_s = default_link_gb_s) t
    (plan : async_plan) : (int * Queue.event) list =
  if sanitizing t then
    invalid_arg
      "Vgpu.Multi.submit_async: sanitizers need deterministic scheduling — use run_async_with";
  let events : (int, Queue.event) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (id, ev) -> Hashtbl.replace events id ev) imports;
  let exports = ref [] in
  List.iter
    (fun (c : ccmd) ->
      let waits =
        List.map
          (fun id ->
            match Hashtbl.find_opt events id with
            | Some ev -> ev
            | None ->
                failwith
                  (Printf.sprintf
                     "Vgpu.Multi.submit_async: wait on event %d that is neither imported nor \
                      signaled earlier in the plan"
                     id))
          c.cc_waits
      in
      let signal =
        Option.map
          (fun id ->
            if Hashtbl.mem events id then
              failwith (Printf.sprintf "Vgpu.Multi.submit_async: event %d signaled twice" id);
            let ev = Queue.fresh_event () in
            Hashtbl.replace events id ev;
            exports := (id, ev) :: !exports;
            ev)
          c.cc_signal
      in
      Queue.enqueue (Queue.global c.cc_queue)
        {
          Queue.c_label = c.cc_label;
          c_waits = waits;
          c_signal = signal;
          c_vcost = c.cc_vcost;
          c_run = c.cc_run;
        })
    (compile_async t ~link_gb_s plan);
  List.rev !exports

(* Drain every device queue; re-raise the first failure after all have
   drained (buffers are never left mid-plan by an early exit). *)
let finish_async t =
  let errs =
    List.filter_map
      (fun i ->
        match Queue.global_opt i with
        | None -> None
        | Some q -> ( try Queue.finish q; None with e -> Some e))
      (List.init (n_devices t) Fun.id)
  in
  match errs with [] -> () | e :: _ -> raise e

let run_async ?imports ?link_gb_s t plan =
  let exports = submit_async ?imports ?link_gb_s t plan in
  finish_async t;
  exports

(* Critical path of everything retired so far: the maximum virtual
   clock across this instance's device queues (ns, monotonic — measure
   intervals as deltas). *)
let async_vclock t =
  List.fold_left
    (fun acc i ->
      match Queue.global_opt i with Some q -> Float.max acc (Queue.vclock q) | None -> acc)
    0.
    (List.init (n_devices t) Fun.id)

(* Deterministic single-threaded replay of an async plan: the same
   compile step as [submit_async] (so buffer resolution is identical),
   but commands run on the calling domain in an order chosen by [pick]
   among the ready queue heads.  Any [pick] yields a legal queue
   interleaving — the qcheck harness for the bit-identity invariant —
   and sanitizers are allowed because nothing runs concurrently.
   [imports] lists event ids assumed already fired. *)
let run_async_with ?(imports : int list = []) ?(pick = fun _ -> 0) t (plan : async_plan) =
  let cmds = compile_async t ~link_gb_s:default_link_gb_s plan in
  let queue_ids =
    List.fold_left (fun acc c -> if List.mem c.cc_queue acc then acc else c.cc_queue :: acc) [] cmds
    |> List.rev
  in
  let fifos =
    List.map (fun q -> (q, ref (List.filter (fun c -> c.cc_queue = q) cmds))) queue_ids
  in
  let fired : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace fired id ()) imports;
  let step = ref 0 in
  let rec loop () =
    let live = List.filter (fun (_, r) -> !r <> []) fifos in
    if live <> [] then begin
      let ready =
        List.filter
          (fun (_, r) ->
            match !r with
            | c :: _ -> List.for_all (Hashtbl.mem fired) c.cc_waits
            | [] -> false)
          live
      in
      (match ready with
      | [] ->
          failwith
            (Printf.sprintf
               "Vgpu.Multi.run_async_with: deadlock — %d queue(s) blocked on events that never \
                fire (first blocked op: %s)"
               (List.length live)
               (match !(snd (List.hd live)) with c :: _ -> c.cc_label | [] -> "?"))
      | _ ->
          let n = List.length ready in
          let k = (((pick !step) mod n) + n) mod n in
          incr step;
          let _, r = List.nth ready k in
          let c = List.hd !r in
          r := List.tl !r;
          c.cc_run ();
          Option.iter (fun id -> Hashtbl.replace fired id ()) c.cc_signal);
      loop ()
    end
  in
  loop ()

(* -- Aggregated observability --------------------------------------- *)

let per_device_stats t =
  Array.to_list (Array.mapi (fun i d -> (i, Runtime.stats d)) t.devices)

(* Merge the per-device stats into one [Runtime.stats]: counters and
   bytes sum; per-kernel entries sharing a name merge (min of mins, max
   of maxes). *)
let stats t : Runtime.stats =
  let merged : (string, Runtime.kernel_stats) Hashtbl.t = Hashtbl.create 8 in
  let launches = ref 0 and h2d = ref 0 and d2h = ref 0 and d2d = ref 0 in
  let violations = ref None in
  let caches = ref [] in
  (* sum per-cache counters across devices, label by label; every device
     reports the same labels in the same order, so the first device's
     list is the template *)
  let merge_caches per_device =
    if !caches = [] then caches := per_device
    else
      caches :=
        List.map
          (fun (label, acc) ->
            match List.assoc_opt label per_device with
            | Some c -> (label, Kcache.add_counters acc c)
            | None -> (label, acc))
          !caches
  in
  Array.iter
    (fun d ->
      let s = Runtime.stats d in
      launches := !launches + s.Runtime.s_launches;
      h2d := !h2d + s.Runtime.s_h2d_bytes;
      d2h := !d2h + s.Runtime.s_d2h_bytes;
      d2d := !d2d + s.Runtime.s_d2d_bytes;
      (match (s.Runtime.s_violations, !violations) with
      | Some c, Some acc -> violations := Some (Sanitizer.add_counts acc c)
      | Some c, None -> violations := Some c
      | None, _ -> ());
      merge_caches s.Runtime.s_caches;
      List.iter
        (fun (name, (k : Runtime.kernel_stats)) ->
          match Hashtbl.find_opt merged name with
          | None ->
              Hashtbl.replace merged name
                {
                  Runtime.k_launches = k.Runtime.k_launches;
                  total_s = k.Runtime.total_s;
                  min_s = k.Runtime.min_s;
                  max_s = k.Runtime.max_s;
                  arg_bytes = k.Runtime.arg_bytes;
                  k_opt = k.Runtime.k_opt;
                }
          | Some m ->
              m.Runtime.k_launches <- m.Runtime.k_launches + k.Runtime.k_launches;
              m.Runtime.total_s <- m.Runtime.total_s +. k.Runtime.total_s;
              m.Runtime.min_s <- Float.min m.Runtime.min_s k.Runtime.min_s;
              m.Runtime.max_s <- Float.max m.Runtime.max_s k.Runtime.max_s;
              m.Runtime.arg_bytes <- m.Runtime.arg_bytes + k.Runtime.arg_bytes;
              (* every device optimizes the same kernel: keep the first *)
              if m.Runtime.k_opt = None then m.Runtime.k_opt <- k.Runtime.k_opt)
        s.Runtime.per_kernel)
    t.devices;
  let per_kernel =
    Hashtbl.fold (fun name k acc -> (name, k) :: acc) merged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    Runtime.s_launches = !launches;
    s_h2d_bytes = !h2d;
    s_d2h_bytes = !d2h;
    s_d2d_bytes = !d2d;
    s_violations = !violations;
    s_caches = !caches;
    per_kernel;
  }

(* Per-queue counters for this instance's device indices — only queues
   that were actually spawned (an all-sequential run reports none). *)
let queue_stats t =
  List.filter_map
    (fun i -> Option.map (fun q -> (i, Queue.stats q)) (Queue.global_opt i))
    (List.init (n_devices t) Fun.id)

type overlap_stats = {
  o_busy_ns : float;  (* sum of command durations across queues *)
  o_span_ns : float;  (* critical path: max per-queue vclock span *)
  o_saved_ns : float;  (* busy - span: time hidden by overlap *)
  o_queues : (int * Queue.stats) list;
}

let overlap_stats t =
  let qs = queue_stats t in
  let busy = List.fold_left (fun a (_, s) -> a +. s.Queue.q_busy_ns) 0. qs in
  let span = List.fold_left (fun a (_, s) -> Float.max a s.Queue.q_vspan_ns) 0. qs in
  { o_busy_ns = busy; o_span_ns = span; o_saved_ns = Float.max 0. (busy -. span); o_queues = qs }

let reset_stats t =
  Array.iter Runtime.reset_stats t.devices;
  (* re-align the queues' virtual clocks before resetting, so the next
     measurement interval starts with a level timeline — cross-queue skew
     left by earlier work would otherwise hide or inflate the critical
     path (caller is expected to have drained: see [finish_async]) *)
  let qs =
    List.filter_map (fun i -> Queue.global_opt i) (List.init (n_devices t) Fun.id)
  in
  let horizon = List.fold_left (fun a q -> Float.max a (Queue.vclock q)) 0. qs in
  List.iter
    (fun q ->
      Queue.align q ~at:horizon;
      Queue.reset_stats q)
    qs

let pp_stats ppf t =
  let n = n_devices t in
  Fmt.pf ppf "aggregate over %d device(s): %a" n Runtime.pp_stats (stats t);
  if n > 1 then
    Array.iteri
      (fun i d -> Fmt.pf ppf "@.device %d: %a" i Runtime.pp_stats (Runtime.stats d))
      t.devices;
  let o = overlap_stats t in
  if List.exists (fun (_, s) -> s.Queue.q_enqueued > 0) o.o_queues then begin
    Fmt.pf ppf "@.async queues: busy %.3f ms, critical path %.3f ms, overlap saved %.3f ms@."
      (o.o_busy_ns /. 1e6) (o.o_span_ns /. 1e6) (o.o_saved_ns /. 1e6);
    List.iter
      (fun (i, s) ->
        Fmt.pf ppf "queue %d: %d cmd(s), depth high-water %d, busy %.3f ms@." i
          s.Queue.q_enqueued s.Queue.q_depth_hw (s.Queue.q_busy_ns /. 1e6))
      o.o_queues
  end
