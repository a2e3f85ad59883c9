(** Structured static-analysis diagnostics.

    Every finding the dialect checkers and the {!Lint} passes produce is a
    value of {!t}: a stable code (e.g. [DP013], [FSM007], [RTG003],
    [XL002]) for programmatic filtering, a severity, a human location
    string ("datapath gcd8_dp / net n3"), the message itself, and an
    optional remediation hint. The dialects' [validate] entry points
    render these with {!to_message} into their [Invalid] exceptions. *)

type severity = Error | Warning | Note

type t = {
  code : string;  (** Stable diagnostic code, e.g. ["DP013"]. *)
  severity : severity;
  location : string;  (** Where, e.g. ["datapath gcd8_dp / net n3"]. *)
  message : string;
  hint : string option;  (** Optional remediation advice. *)
}

val error :
  ?hint:string -> code:string -> loc:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a
(** [error ~code ~loc fmt ...] builds an [Error]-severity diagnostic. *)

val warning :
  ?hint:string -> code:string -> loc:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val note :
  ?hint:string -> code:string -> loc:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a
(** [Note]-severity: informational findings, e.g. a property the deep
    analysis discharged (a DP013 warning proved dynamically acyclic). *)

val severity_to_string : severity -> string
(** ["error"] / ["warning"] / ["note"]. *)

val is_error : t -> bool

val errors : t list -> t list
(** Only the [Error]-severity diagnostics, in order. *)

val warnings : t list -> t list
val notes : t list -> t list

val to_message : t -> string
(** ["<location>: <message>"] — the legacy [check] string shape (the
    location is omitted when empty). Codes and hints are not included. *)

val to_string : t -> string
(** One-line rendering: ["error[DP013] <location>: <message>"], followed
    by an indented ["hint: ..."] line when a hint is present. *)

val render : t list -> string
(** Every diagnostic via {!to_string}, newline-separated, with a trailing
    summary line ("%d error(s), %d warning(s)", plus ", %d note(s)" when
    any notes are present); [""] on no diagnostics. *)

val to_json : t list -> string
(** JSON array of objects with fields [code], [severity], [location],
    [message] and (when present) [hint]. *)
