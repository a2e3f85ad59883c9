(** Event-driven simulation kernel.

    The engine plays the role Hades plays in the paper: a discrete-event
    simulator whose components are behavioral host-language closures.

    Semantics, in VHDL-like terms:
    - signals carry {!Bitvec.t} values and have a set of sensitive
      processes;
    - {!drive} schedules a transport-delay assignment; a zero [delay]
      lands in the next {e delta cycle} of the current time point;
    - at each time point, pending assignments are applied as a batch, the
      processes sensitive to any {e changed} signal run exactly once, and
      the resulting zero-delay assignments open the next delta cycle;
    - the time point ends when a delta produces no further activity.

    Determinism: processes run in creation order within a delta; multiple
    drives to the same signal within one delta take the last write (a
    diagnostic counter records such collisions).

    Implementation: a delta allocates nothing. A drive stores its value
    in the signal and flags it, appending the signal to a growable array
    of signals staged for the next delta. Each signal keeps its sensitive
    processes in a registration-order array. The run queue is a bitset
    over process ids: committing a changed signal sets the bits of its
    sensitive processes, and the run phase scans the bitset in ascending
    id order. Activations requested while a delta runs go to a second
    bitset, which becomes the run set of the next delta. A process that
    is already in either set is not added again, so it runs at most once
    per delta. Only delayed drives and timed wake-ups go through the
    event heap. *)

type t
(** A simulation engine instance. *)

type signal
type process

exception Combinational_loop of string
(** Raised when one time point exceeds the delta-cycle bound. *)

exception Drive_conflict of string
(** Raised on multi-driver collisions when the engine was created with
    [~strict_drivers:true]. *)

type stop_reason =
  | Finished  (** The event queue drained. *)
  | Stop_requested of string  (** A component called {!request_stop}. *)
  | Max_time_reached
  | Max_events_reached

val create : ?strict_drivers:bool -> ?max_deltas:int -> unit -> t
(** [max_deltas] bounds delta cycles per time point (default 10_000). *)

val now : t -> int
(** Current simulation time (abstract ticks; the flows use 1 tick = 1 ns). *)

(** {1 Signals} *)

val signal : t -> name:string -> ?initial:Bitvec.t -> int -> signal
(** [signal t ~name width] creates a signal; initial value defaults to 0. *)

val name : signal -> string
val width : signal -> int
val value : signal -> Bitvec.t
val value_int : signal -> int

val drive : t -> signal -> ?delay:int -> Bitvec.t -> unit
(** Schedule an assignment after [delay] ticks (default 0 = next delta).
    Raises [Invalid_argument] on negative delay or width mismatch. *)

val force : t -> signal -> Bitvec.t -> unit
(** Immediately overwrite a signal value {e without} waking processes.
    For initialization before {!run} only. *)

val on_change : t -> signal -> (unit -> unit) -> unit
(** Register a callback invoked (after processes are woken) whenever the
    signal's value changes. Used by probes and the VCD tracer. *)

val corrupt_signal : t -> signal -> (Bitvec.t -> Bitvec.t) -> unit
(** Fault injection: apply [f] to every value committed to the signal
    (drives, delayed assignments and {!force}), and to its current value
    immediately. Used by the mutation-campaign infrastructure to model
    stuck-at and bit-flip hardware defects. [f] must preserve the width;
    a later call replaces the previous transform. *)

val clear_corruption : signal -> unit
(** Remove a {!corrupt_signal} transform (already-committed values keep
    their corrupted state). *)

(** {1 Processes} *)

val process : t -> name:string -> ?sensitivity:signal list -> (unit -> unit) -> process
(** Create a process woken by changes of its sensitivity signals. The body
    runs once at time 0 (initialization pass) before any event. *)

val add_sensitivity : process -> signal -> unit
val wake_at : t -> process -> delay:int -> unit
(** Schedule an explicit activation after [delay] ticks, independent of
    sensitivity (timed processes, clock generators). *)

val on_rising_edge : t -> clock:signal -> name:string -> (unit -> unit) -> process
(** Convenience: a process that runs [f] only on 0→1 transitions of
    [clock]. *)

(** {1 Control} *)

val request_stop : t -> string -> unit
(** Ask the engine to stop once the current time point has settled (its
    remaining delta cycles still run, so staged assignments apply). *)

val run : ?max_time:int -> ?max_events:int -> t -> stop_reason
(** Run until the queue drains, a stop is requested, or a bound trips.
    Can be called again to resume after a stop. *)

val run_for : t -> int -> stop_reason
(** [run_for t d] runs at most [d] ticks past the current time. *)

(** {1 Statistics} *)

type stats = {
  events : int;  (** signal-assignment events applied *)
  activations : int;  (** process executions *)
  deltas : int;  (** delta cycles executed *)
  time_points : int;  (** distinct simulation times visited *)
  drive_collisions : int;  (** same-delta multiple writes to one signal *)
}

val stats : t -> stats
val pp_stop_reason : Format.formatter -> stop_reason -> unit
