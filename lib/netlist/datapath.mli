(** The datapath XML dialect.

    A datapath is a netlist of operator instances (from the {!Opspec}
    catalogue) plus its control/status interface to the FSM:
    - {e control} signals are inputs driven by the controller (register
      enables, mux selects, memory write enables, ...);
    - {e status} signals are operator outputs the controller branches on
      (comparison results, counters' flags, ...).

    Concrete XML:
    {v
<datapath name="fdct">
  <operators>
    <operator id="add1" kind="add" width="16"/>
    <operator id="m0" kind="sram" width="16" memory="input" addr-width="12"/>
  </operators>
  <control>
    <signal name="acc_en" width="1"/>
  </control>
  <status>
    <signal name="done_cmp" from="lt1.y"/>
  </status>
  <nets>
    <net id="n1" width="16" from="add1.y"><sink to="acc.d"/></net>
    <net id="n2" width="1" from="ctl.acc_en"><sink to="acc.en"/></net>
  </nets>
</datapath>
    v}
    A net's [from] is either [instance.port] or [ctl.<control-name>]. *)

type endpoint = { inst : string; port : string }

type operator = {
  id : string;
  kind : string;
  width : int;
  params : Operators.Opspec.params;
      (** Every XML attribute other than id/kind/width. *)
}

type source =
  | From_op of endpoint
  | From_control of string  (** Driven by the named control signal. *)

type net = {
  net_id : string;
  net_width : int;
  source : source;
  sinks : endpoint list;
}

type control = { ctl_name : string; ctl_width : int }

type status = { st_name : string; st_source : endpoint }

type t = {
  dp_name : string;
  operators : operator list;
  controls : control list;
  statuses : status list;
  nets : net list;
}

val endpoint_of_string : string -> endpoint
(** Parses ["inst.port"]. Raises [Failure] — naming the offending string
    — when the dot is missing or either part is empty. *)

val endpoint_to_string : endpoint -> string

val find_operator : t -> string -> operator option

val operator_spec : operator -> Operators.Opspec.t
(** Port interface of an instance. Raises {!Operators.Opspec.Spec_error}. *)

val functional_unit_count : t -> int
(** Operator instances excluding the test aids (probe/check/stop) —
    the paper's Table I "operators" column. *)

val status_width : t -> status -> int
(** Width of the port a status taps. Raises if the endpoint is invalid. *)

(** {1 Validation} *)

val check_diags : t -> Diag.t list
(** Structural diagnostics; empty means well-formed. Verifies id
    uniqueness (DP001–DP004), known kinds/parameters (DP005), existing
    endpoints (DP006–DP008), width agreement (DP009), port directions
    (DP010), and single-driver inputs (DP011 unconnected, DP012 multiple
    drivers). Locations are document-relative; whole-design analyses
    (combinational loops, dead units) live in the [Lint] library. *)

exception Invalid of string list

val validate : t -> unit
(** Raises {!Invalid} with the {!check_diags} diagnostics, rendered by
    [Diag.to_message], when there are any. *)

(** {1 XML} *)

val to_xml : t -> Xmlkit.Xml.t
val of_xml : Xmlkit.Xml.t -> t
(** Raises {!Xmlkit.Xml_query.Schema_error} on malformed documents. *)

val save : string -> t -> unit
val load : string -> t
