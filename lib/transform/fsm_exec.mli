(** Behavioral execution of an FSM dialect document inside a simulation.

    The executable counterpart of the generated controller code (the
    paper's "fsm.java"): a synchronous Moore machine driving the control
    signals of an elaborated datapath and branching on its status
    signals. State updates happen on rising clock edges, reading the
    status values settled during the previous cycle. *)

type t

val attach :
  ?enable:Sim.Engine.signal -> design:Elaborate.t -> Fsmkit.Fsm.t -> t
(** Validate the FSM ({!Fsmkit.Fsm.validate}), check it against the design
    (every FSM output must be a design control of equal width, every FSM
    input a design status of equal width — [Failure] otherwise), assert the
    initial state's outputs, and register the clocked process.

    Every name is resolved here, once ({!Fsmkit.Fsm_index}): the clocked
    process only indexes arrays. Validation (FSM010) guarantees every
    guard reads a declared input and the design check guarantees each
    input has a status signal, so no status read can fail while
    simulating.

    When [enable] (a 1-bit signal) is given, the machine holds its state
    on edges where it reads 0 — the hold/start interface a host processor
    uses in co-simulation. *)

val current_state : t -> string
val in_done_state : t -> bool
val transitions_taken : t -> int
(** State {e changes} (self-loops via no matching guard don't count). *)

val cycles_seen : t -> int
(** Rising edges processed. *)

val on_enter_done : t -> (unit -> unit) -> unit
(** Callback fired each time the machine {e enters} a done state (not on
    every cycle spent there). Multiple callbacks run in registration
    order. *)

val state_signal : t -> Sim.Engine.signal
(** A numeric signal tracking the state index (order of declaration in the
    FSM document); useful for tracing and waveform dumps. *)
