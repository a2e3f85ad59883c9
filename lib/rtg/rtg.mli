(** The Reconfiguration Transition Graph (RTG) XML dialect.

    When the compiler splits an algorithm into several configurations
    (temporal partitions), the RTG records the order in which they must be
    loaded onto the reconfigurable fabric: one node per configuration
    (a datapath / FSM pair, referenced by name), and an edge [a -> b]
    meaning "when [a]'s controller reaches a done state, reconfigure to
    [b]". A configuration with no outgoing edge terminates the run.

    Concrete XML:
    {v
<rtg name="fdct2" initial="part1">
  <configuration name="part1" datapath="part1_dp" fsm="part1_fsm"/>
  <configuration name="part2" datapath="part2_dp" fsm="part2_fsm"/>
  <transition from="part1" to="part2"/>
</rtg>
    v} *)

type configuration = {
  cfg_name : string;
  datapath_ref : string;  (** Name of the datapath document. *)
  fsm_ref : string;  (** Name of the FSM document. *)
}

type transition = { src : string; dst : string }

type t = {
  rtg_name : string;
  initial : string;
  configurations : configuration list;
  transitions : transition list;
}

val singleton : name:string -> datapath_ref:string -> fsm_ref:string -> t
(** The trivial RTG of a single-configuration implementation. *)

val find_configuration : t -> string -> configuration option
val successor : t -> string -> string option
(** Next configuration after the named one completes. *)

val execution_order : t -> string list
(** Configuration names from [initial] following successors; stops on the
    first configuration visited twice (cycle guard). *)

val configuration_count : t -> int

(** {1 Validation} *)

val check_diags : t -> Diag.t list
(** Diagnostics; empty = well-formed. Checks unique names (RTG001),
    non-emptiness (RTG002), the initial configuration (RTG003), at most
    one outgoing transition per configuration (RTG004), transition
    endpoints (RTG005), acyclicity (RTG006), and that every configuration
    is reachable from the initial one (RTG007). *)

exception Invalid of string list

val validate : t -> unit

(** {1 XML} *)

val to_xml : t -> Xmlkit.Xml.t
val of_xml : Xmlkit.Xml.t -> t
val save : string -> t -> unit
val load : string -> t
