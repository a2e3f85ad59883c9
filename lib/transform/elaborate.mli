(** Elaboration of a datapath document into a live simulation.

    The "to hds" translation of the paper: the datapath XML becomes engine
    signals plus operator models from the {!Operators} library. Nets are
    pure connectivity — each operator output port (and each control input)
    owns one signal, and sinks alias the driving signal. *)

type t = {
  engine : Sim.Engine.t;
  clock : Sim.Clock.t;
  datapath : Netlist.Datapath.t;
  controls : (string * Sim.Engine.signal) list;
      (** Control inputs, to be driven by a controller (FSM). *)
  statuses : (string * Sim.Engine.signal) list;
      (** Status outputs, read by the controller. *)
  ports : (string * Sim.Engine.signal) list;
      (** Every operator output port's signal, keyed ["inst.port"]. *)
  notifications : Models_log.t;
      (** Probe samples and check failures raised by test-aid operators. *)
}

val datapath :
  ?engine:Sim.Engine.t ->
  ?clock:Sim.Clock.t ->
  memories:(string -> Operators.Memory.t) ->
  Netlist.Datapath.t ->
  t
(** Validate and elaborate. Creates a fresh engine and a period-10 clock
    unless provided. [memories] resolves SRAM/ROM backing stores by name;
    it may raise [Not_found]-style exceptions for unknown names.

    Raises {!Netlist.Datapath.Invalid} when the datapath does not pass
    {!Netlist.Datapath.check_diags}. *)

val control : t -> string -> Sim.Engine.signal
(** Raises [Failure] on unknown names. *)

val status : t -> string -> Sim.Engine.signal
val port_signal : t -> string -> Sim.Engine.signal
(** Signal of an operator output port, by ["inst.port"] name (probing
    internal connections). *)
