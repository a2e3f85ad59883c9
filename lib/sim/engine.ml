exception Combinational_loop of string
exception Drive_conflict of string

(* Growable array: the first [len] slots of [items] are live. *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let vec () = { items = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let items = Array.make (max 8 (2 * v.len)) x in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

type signal = {
  sid : int;
  sname : string;
  swidth : int;
  mutable cur : Bitvec.t;
  mutable staged : Bitvec.t;  (* next-delta assignment, valid when [is_staged] *)
  mutable is_staged : bool;
  sensitive : process vec;  (* registration order *)
  mutable hooks : (unit -> unit) list;  (* on_change callbacks, registration order *)
  mutable corrupt : (Bitvec.t -> Bitvec.t) option;
      (* fault-injection transform applied to every committed value *)
}

and process = {
  pid : int;
  pname : string;
  body : unit -> unit;
  mutable queued : bool;  (* in the run set or queued for the next delta *)
}

type event = Assign of signal * Bitvec.t | Activate of process

type stop_reason =
  | Finished
  | Stop_requested of string
  | Max_time_reached
  | Max_events_reached

type stats = {
  events : int;
  activations : int;
  deltas : int;
  time_points : int;
  drive_collisions : int;
}

(* The run queue is a pair of bitsets over pids, [Sys.int_size] pids per
   word: [run] holds the processes of the delta being executed and is
   scanned in ascending pid order; [next] collects activations for the
   following delta. They swap at every delta. *)
let word_bits = Sys.int_size

type t = {
  heap : event Event_heap.t;
  strict : bool;
  max_deltas : int;
  mutable time : int;
  mutable next_sid : int;
  procs : process vec;  (* pid -> process *)
  mutable run : int array;
  mutable next : int array;
  mutable n_run : int;  (* bits set in [run] *)
  mutable n_next : int;  (* bits set in [next] *)
  to_commit : signal vec;  (* signals with a staged value, in staging order *)
  changed : signal vec;  (* this delta's changed signals that have hooks *)
  mutable stop : string option;
  mutable n_events : int;
  mutable n_activations : int;
  mutable n_deltas : int;
  mutable n_time_points : int;
  mutable n_collisions : int;
}

let create ?(strict_drivers = false) ?(max_deltas = 10_000) () =
  {
    heap = Event_heap.create ();
    strict = strict_drivers;
    max_deltas;
    time = 0;
    next_sid = 0;
    procs = vec ();
    run = [||];
    next = [||];
    n_run = 0;
    n_next = 0;
    to_commit = vec ();
    changed = vec ();
    stop = None;
    n_events = 0;
    n_activations = 0;
    n_deltas = 0;
    n_time_points = 0;
    n_collisions = 0;
  }

let now t = t.time

let signal t ~name ?initial width =
  let initial =
    match initial with
    | Some v ->
        if Bitvec.width v <> width then
          invalid_arg
            (Printf.sprintf "Engine.signal %s: initial width %d <> %d" name
               (Bitvec.width v) width);
        v
    | None -> Bitvec.zero width
  in
  let s =
    {
      sid = t.next_sid;
      sname = name;
      swidth = width;
      cur = initial;
      staged = initial;
      is_staged = false;
      sensitive = vec ();
      hooks = [];
      corrupt = None;
    }
  in
  t.next_sid <- t.next_sid + 1;
  s

let name s = s.sname
let width s = s.swidth
let value s = s.cur
let value_int s = Bitvec.to_int s.cur

let apply_corruption s v =
  match s.corrupt with
  | None -> v
  | Some f ->
      let v' = f v in
      if Bitvec.width v' <> s.swidth then
        invalid_arg
          (Printf.sprintf "Engine: corruption on %s changed width %d -> %d"
             s.sname s.swidth (Bitvec.width v'))
      else v'

let corrupt_signal t s f =
  ignore t;
  s.corrupt <- Some f;
  (* The fault holds from the start: rewrite the current value too, so a
     stuck-at bit is wrong even before the first commit touches it. *)
  s.cur <- apply_corruption s s.cur

let clear_corruption s = s.corrupt <- None

let stage t s v =
  let v = apply_corruption s v in
  if s.is_staged then begin
    t.n_collisions <- t.n_collisions + 1;
    if t.strict then
      raise
        (Drive_conflict
           (Printf.sprintf "signal %s driven twice in one delta at t=%d"
              s.sname t.time))
  end
  else begin
    s.is_staged <- true;
    push t.to_commit s
  end;
  s.staged <- v

let drive t s ?(delay = 0) v =
  if delay < 0 then invalid_arg "Engine.drive: negative delay";
  if Bitvec.width v <> s.swidth then
    invalid_arg
      (Printf.sprintf "Engine.drive %s: value width %d <> signal width %d"
         s.sname (Bitvec.width v) s.swidth);
  if delay = 0 then stage t s v
  else Event_heap.push t.heap ~time:(t.time + delay) (Assign (s, v))

let force _t s v =
  if Bitvec.width v <> s.swidth then
    invalid_arg (Printf.sprintf "Engine.force %s: width mismatch" s.sname);
  s.cur <- apply_corruption s v

let on_change _t s f = s.hooks <- s.hooks @ [ f ]

let set_bit bits pid =
  let w = pid / word_bits in
  bits.(w) <- bits.(w) lor (1 lsl (pid - (w * word_bits)))

(* Index of the lowest set bit of a nonzero word. *)
let lowest_bit w =
  let w = ref (w land -w) and n = ref 0 in
  if !w land 0xFFFF_FFFF = 0 then (n := 32; w := !w lsr 32);
  if !w land 0xFFFF = 0 then (n := !n + 16; w := !w lsr 16);
  if !w land 0xFF = 0 then (n := !n + 8; w := !w lsr 8);
  if !w land 0xF = 0 then (n := !n + 4; w := !w lsr 4);
  if !w land 0x3 = 0 then (n := !n + 2; w := !w lsr 2);
  if !w land 0x1 = 0 then incr n;
  !n

(* Queue for the next delta. *)
let queue_process t p =
  if not p.queued then begin
    p.queued <- true;
    set_bit t.next p.pid;
    t.n_next <- t.n_next + 1
  end

let process t ~name ?(sensitivity = []) body =
  let p = { pid = t.procs.len; pname = name; body; queued = false } in
  push t.procs p;
  let words = (t.procs.len + word_bits - 1) / word_bits in
  if words > Array.length t.run then begin
    let grow bits =
      let b = Array.make (max 1 (2 * Array.length bits)) 0 in
      Array.blit bits 0 b 0 (Array.length bits);
      b
    in
    t.run <- grow t.run;
    t.next <- grow t.next
  end;
  List.iter (fun s -> push s.sensitive p) sensitivity;
  (* Initialization pass: every process runs once when simulation reaches
     the current time, mirroring VHDL elaboration. *)
  queue_process t p;
  p

let add_sensitivity p s = push s.sensitive p

let wake_at t p ~delay =
  if delay < 0 then invalid_arg "Engine.wake_at: negative delay";
  if delay = 0 then queue_process t p
  else Event_heap.push t.heap ~time:(t.time + delay) (Activate p)

let on_rising_edge t ~clock ~name body =
  let last = ref (Bitvec.to_bool clock.cur) in
  let wrapped () =
    let level = Bitvec.to_bool clock.cur in
    if level && not !last then body ();
    last := level
  in
  process t ~name ~sensitivity:[ clock ] wrapped

let request_stop t reason = if t.stop = None then t.stop <- Some reason

let pending t = t.to_commit.len > 0 || t.n_next > 0

let no_convergence t =
  (* The most recently staged signals, newest first. *)
  let last =
    List.init (min 5 t.to_commit.len) (fun i ->
        t.to_commit.items.(t.to_commit.len - 1 - i).sname)
  in
  Combinational_loop
    (Printf.sprintf
       "no convergence after %d delta cycles at t=%d (last signals: %s)"
       t.max_deltas t.time (String.concat ", " last))

(* Phase 1 of a delta: commit the staged assignments in staging order and
   add every process sensitive to a changed signal to the run set. *)
let commit_staged t =
  let to_commit = t.to_commit in
  for i = 0 to to_commit.len - 1 do
    let s = to_commit.items.(i) in
    s.is_staged <- false;
    t.n_events <- t.n_events + 1;
    if not (Bitvec.equal s.cur s.staged) then begin
      s.cur <- s.staged;
      let sensitive = s.sensitive in
      for j = 0 to sensitive.len - 1 do
        let p = sensitive.items.(j) in
        if not p.queued then begin
          p.queued <- true;
          set_bit t.run p.pid;
          t.n_run <- t.n_run + 1
        end
      done;
      if s.hooks <> [] then push t.changed s
    end
  done;
  to_commit.len <- 0

(* Phase 2: run the run set in ascending pid order. Zero-delay drives and
   wake-ups made by the bodies go to the next delta. *)
let run_processes t =
  let w = ref 0 in
  while t.n_run > 0 do
    let bits = t.run.(!w) in
    if bits = 0 then incr w
    else begin
      t.run.(!w) <- bits land (bits - 1);
      t.n_run <- t.n_run - 1;
      let p = t.procs.items.((!w * word_bits) + lowest_bit bits) in
      p.queued <- false;
      t.n_activations <- t.n_activations + 1;
      p.body ()
    end
  done

(* Execute every delta cycle of the current time point. *)
let run_time_point t max_events =
  t.n_time_points <- t.n_time_points + 1;
  let deltas_here = ref 0 in
  while pending t && (!deltas_here = 0 || t.n_events < max_events) do
    incr deltas_here;
    t.n_deltas <- t.n_deltas + 1;
    if !deltas_here > t.max_deltas then raise (no_convergence t);
    (* The activations queued last delta form this delta's run set. The
       previous run set was drained by its scan unless a process body
       raised; its unscanned processes then stay flagged as queued and
       never run again. *)
    let drained = t.run in
    if t.n_run > 0 then Array.fill drained 0 (Array.length drained) 0;
    t.run <- t.next;
    t.n_run <- t.n_next;
    t.next <- drained;
    t.n_next <- 0;
    commit_staged t;
    (* Hooks run after the wake-ups, in commit order. *)
    let changed = t.changed in
    let n = changed.len in
    changed.len <- 0;
    for i = 0 to n - 1 do
      List.iter (fun f -> f ()) changed.items.(i).hooks
    done;
    run_processes t
    (* A requested stop still lets the current time point settle (all
       remaining deltas run); the outer loop honours it afterwards. *)
  done

let drain_due_events t =
  let due = Event_heap.pop_at t.heap t.time in
  List.iter
    (function
      | Assign (s, v) -> stage t s v
      | Activate p -> queue_process t p)
    due

let run ?(max_time = max_int) ?(max_events = max_int) t =
  let rec loop () =
    match t.stop with
    | Some reason ->
        t.stop <- None;
        Stop_requested reason
    | None ->
        if t.n_events >= max_events then Max_events_reached
        else if pending t then begin
          run_time_point t max_events;
          loop ()
        end
        else begin
          match Event_heap.min_time t.heap with
          | None -> Finished
          | Some next ->
              if next > max_time then begin
                t.time <- max_time;
                Max_time_reached
              end
              else begin
                t.time <- next;
                drain_due_events t;
                run_time_point t max_events;
                loop ()
              end
        end
  in
  loop ()

let run_for t d = run ~max_time:(t.time + d) t

let stats t =
  {
    events = t.n_events;
    activations = t.n_activations;
    deltas = t.n_deltas;
    time_points = t.n_time_points;
    drive_collisions = t.n_collisions;
  }

let pp_stop_reason ppf = function
  | Finished -> Format.pp_print_string ppf "finished (event queue empty)"
  | Stop_requested r -> Format.fprintf ppf "stop requested: %s" r
  | Max_time_reached -> Format.pp_print_string ppf "max simulation time reached"
  | Max_events_reached -> Format.pp_print_string ppf "max event count reached"
