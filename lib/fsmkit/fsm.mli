(** The FSM (control unit) XML dialect.

    Synchronous Moore machines: on each clock edge the machine takes the
    first transition of the current state whose guard holds (staying put
    when none does); control outputs are a combinational function of the
    current state. States flagged [done] mark completion of the
    configuration the FSM controls — the Reconfiguration Transition Graph
    uses them to sequence temporal partitions.

    Concrete XML:
    {v
<fsm name="ctl" initial="s0">
  <inputs><signal name="lt" width="1"/></inputs>
  <outputs><signal name="acc_en" width="1" default="0"/></outputs>
  <state name="s0">
    <set signal="acc_en" value="1"/>
    <next to="s1" on="lt==1"/>
    <next to="halt"/>
  </state>
  <state name="halt" done="true"/>
</fsm>
    v} *)

type transition = { guard : Guard.t; target : string }

type state = {
  sname : string;
  is_done : bool;
  settings : (string * int) list;
      (** Control outputs asserted in this state; unlisted outputs take
          their declared default. *)
  transitions : transition list;  (** Evaluated in order; no match = stay. *)
}

type io = { io_name : string; io_width : int; default : int }

type t = {
  fsm_name : string;
  inputs : io list;  (** Status signals (defaults unused, kept 0). *)
  outputs : io list;  (** Control signals with their idle defaults. *)
  initial : string;
  states : state list;
}

val find_state : t -> string -> state option
val state_count : t -> int
val output_in_state : t -> state -> string -> int
(** Value of a control output in a state (its default when not set).
    Raises [Failure] on undeclared outputs. *)

val done_states : t -> string list

(** {1 Validation} *)

val check_diags : t -> Diag.t list
(** Structural diagnostics; empty = well-formed. Checks unique names
    (FSM001–FSM003), non-emptiness and initial state (FSM004, FSM005),
    declared signals in settings and guards (FSM006, FSM010), values
    within output widths (FSM007), single settings (FSM008), transition
    targets (FSM009), and that at least one done state is reachable from
    the initial state when any exists (FSM011). State-reachability and
    guard analyses live in the [Lint] library. *)

exception Invalid of string list

val validate : t -> unit

(** {1 XML} *)

val to_xml : t -> Xmlkit.Xml.t
val of_xml : Xmlkit.Xml.t -> t
val save : string -> t -> unit
val load : string -> t
