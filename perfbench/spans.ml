(* In-memory span recorder for the traced benchmark run.

   Spans are recorded around the calls the benchmark itself makes into
   each library's public functions (there is no tracing inside the
   libraries yet). A span's layer is its name up to the first '.'.
   Every span carries the id of the request it belongs to; spans opened
   while no other span is open are roots. A request root is named
   "request"; a shadow root marks work done only to attribute time
   hidden inside another call (it is excluded from the request spans
   and from coverage). Nothing is written until [write_chrome]. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  request : int;
  shadow : bool;
  start : float;
  mutable stop : float;
}

type t = {
  origin : float;
  mutable spans : span list;  (** Closed spans, most recent first. *)
  mutable open_spans : span list;
  mutable next_id : int;
  mutable request : int;
  counts : (string, float) Hashtbl.t;
  derived : (string, float) Hashtbl.t;
}

let create () =
  {
    origin = Unix.gettimeofday ();
    spans = [];
    open_spans = [];
    next_id = 0;
    request = 0;
    counts = Hashtbl.create 32;
    derived = Hashtbl.create 16;
  }

let with_span t ?(shadow = false) name f =
  let parent, inherited =
    match t.open_spans with
    | p :: _ -> (Some p.id, p.shadow)
    | [] -> (None, false)
  in
  let s =
    {
      id = t.next_id;
      name;
      parent;
      request = t.request;
      shadow = shadow || inherited;
      start = Unix.gettimeofday ();
      stop = nan;
    }
  in
  t.next_id <- t.next_id + 1;
  t.open_spans <- s :: t.open_spans;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      t.open_spans <- List.tl t.open_spans;
      t.spans <- s :: t.spans)
    f

let request t id f =
  t.request <- id;
  with_span t "request" f

let shadow t f = with_span t ~shadow:true "shadow" f

let get tbl key = Option.value ~default:0. (Hashtbl.find_opt tbl key)
let bump tbl key v = Hashtbl.replace tbl key (v +. get tbl key)

(* Named counters, read back as per-layer counts. *)
let count t name n = bump t.counts name (float_of_int n)
let counted t name = get t.counts name

(* Time measured by the library itself inside one of our spans (the
   [Ec.Term.Stats] stage timers, certificate seconds), attributed to a
   finer layer when the per-layer split is computed. *)
let attribute t name seconds = bump t.derived name seconds
let attributed t name = get t.derived name

let duration s = s.stop -. s.start

(* Self time per span name: a span's duration minus the part its
   children cover. Returns request-internal and shadow totals apart. *)
let self_times t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Option.iter (fun p -> bump children p (duration s)) s.parent)
    t.spans;
  let inside = Hashtbl.create 32 and shadowed = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let own = duration s -. get children s.id in
      if s.name <> "request" && s.name <> "shadow" then
        bump (if s.shadow then shadowed else inside) s.name own)
    t.spans;
  (inside, shadowed)

let total_named t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. t.spans

(* Chrome trace-event JSON ("X" complete events, microseconds), the
   format chrome://tracing and Perfetto load. Span names are plain ASCII
   identifiers, so OCaml's %S quoting is valid JSON. *)
let write_chrome t path =
  let micros x = Printf.sprintf "%.3f" ((x -. t.origin) *. 1e6) in
  let event s =
    let layer =
      match String.index_opt s.name '.' with
      | Some i -> String.sub s.name 0 i
      | None -> s.name
    in
    Printf.sprintf
      "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%s,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%s,\"request\":%d%s}}"
      s.name layer (micros s.start)
      (duration s *. 1e6) s.id
      (match s.parent with Some p -> string_of_int p | None -> "null")
      s.request
      (if s.shadow then ",\"shadow\":true" else "")
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      output_string oc
        (String.concat ",\n" (List.rev_map event t.spans));
      output_string oc "\n]}\n")
