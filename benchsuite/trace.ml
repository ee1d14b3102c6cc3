(* Spans recorded by the benchmark around its calls into each layer.

   Events are kept in memory in the order they happen (begin and end of
   every span), so the exported stream is balanced and correctly nested
   by construction, and written once at exit as Chrome trace-event JSON
   (opens in Perfetto).  With tracing off, [span None] costs one match. *)

type event = {
  e_begin : bool;
  e_name : string;
  e_ts : float;  (* seconds since the trace started *)
  e_id : int;
  e_parent : int;  (* 0 for a root span *)
  e_workload : string;
}

type t = {
  origin : float;
  mutable events : event list;  (* newest first *)
  mutable stack : int list;  (* ids of the open spans, innermost first *)
  mutable next_id : int;
  mutable workload : string;
}

let create () =
  { origin = Host.now (); events = []; stack = []; next_id = 1; workload = "" }

let set_workload t w = t.workload <- w

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match t.stack with p :: _ -> p | [] -> 0 in
      let mk b =
        {
          e_begin = b;
          e_name = name;
          e_ts = Host.now () -. t.origin;
          e_id = id;
          e_parent = parent;
          e_workload = t.workload;
        }
      in
      t.events <- mk true :: t.events;
      t.stack <- id :: t.stack;
      let close () =
        t.stack <- List.tl t.stack;
        t.events <- mk false :: t.events
      in
      (match f () with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e)

(* Written event by event: a traced suite records a few hundred
   thousand spans. *)
let write_file t path =
  let ev e =
    let base =
      [
        ("name", Json.Str e.e_name);
        ("cat", Json.Str "bench");
        ("ph", Json.Str (if e.e_begin then "B" else "E"));
        ("ts", Json.Float (e.e_ts *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
      ]
    in
    let args =
      Json.Obj
        [ ("id", Json.Int e.e_id); ("parent", Json.Int e.e_parent); ("workload", Json.Str e.e_workload) ]
    in
    Json.Obj (if e.e_begin then base @ [ ("args", args) ] else base)
  in
  let oc = open_out_bin path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Json.to_string (ev e)))
    (List.rev t.events);
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* Check that a Chrome trace read back from disk is balanced: every "E"
   closes the innermost open "B" of the same name, and none stay open. *)
let balanced json =
  match Json.member "traceEvents" json with
  | Some (Json.Arr evs) ->
      let rec go stack = function
        | [] -> stack = []
        | e :: rest -> (
            match (Json.member "ph" e, Json.member "name" e) with
            | Some (Json.Str "B"), Some (Json.Str n) -> go (n :: stack) rest
            | Some (Json.Str "E"), Some (Json.Str n) -> (
                match stack with top :: st when top = n -> go st rest | _ -> false)
            | _ -> false)
      in
      go [] evs
  | _ -> false
