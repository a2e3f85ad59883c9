(** Resource governance for long-running campaigns.

    A campaign executes hundreds of independent simulations; any one of
    them can hang (a mutated controller that never reaches its done
    state) or crash. This module gives every pooled task a {e budget}: a
    cycle bound, an optional wall-clock deadline, and a cooperative
    cancellation token. The deadline and the token are enforced
    cooperatively — the simulator runs in bounded-cycle slices and
    consults {!check} between slices — so a hung mutant dies within its
    deadline instead of only when its (possibly enormous) cycle budget
    runs out, and a SIGINT cancels in-flight work at the next slice
    boundary rather than mid-delta.

    The failure taxonomy below is shared by the campaign drivers, the
    run journal and the reports, so every abnormal task ending has one
    canonical name. *)

(** {1 Failure taxonomy} *)

type failure =
  | Timeout_cycles  (** The cycle budget ran out. *)
  | Timeout_wall  (** The wall-clock deadline passed (watchdog). *)
  | Crashed of string  (** The task raised; the payload is the exception. *)
  | Cancelled  (** Cancellation (SIGINT / [--stop-after]) hit the task. *)
  | Retried_ok of int
      (** The task crashed, was retried, and then succeeded; the payload
          is the number of retries it took. *)

val failure_label : failure -> string
(** Stable one-word labels: ["timeout_cycles"], ["timeout_wall"],
    ["crashed"], ["cancelled"], ["retried_ok"]. Used by the journal. *)

(** {1 Cancellation tokens} *)

type token
(** A shared cancellation flag, safe to set from a signal handler or
    another domain and to poll from every worker. *)

val token : unit -> token
val cancel : token -> unit
val cancel_requested : token -> bool

val install_sigint : token -> unit
(** Route SIGINT to {!cancel} on [token]: the first Ctrl-C requests a
    graceful shutdown (in-flight tasks stop at the next slice boundary
    and the journal is finalized); a second one falls back to the
    default behaviour and kills the process. *)

(** {1 Budgets} *)

type t

val start : ?wall_seconds:float -> ?token:token -> ?slice_cycles:int -> unit -> t
(** Open a budget {e now}: [wall_seconds] (absolute deadline =
    now + [wall_seconds]; [<= 0.] or absent means no wall deadline),
    an optional cancellation [token], and the number of clock cycles to
    simulate between {!check}s ([slice_cycles], default 5000; raises
    [Invalid_argument] when [< 1]). *)

val check : t -> failure option
(** [Some Cancelled] when the token fired (checked first, so a SIGINT
    wins over an expired deadline), [Some Timeout_wall] when the wall
    deadline passed, [None] otherwise. *)

val slice_cycles : t -> int

val unlimited : t
(** No deadline, no token; slices of 5000 cycles. *)

(** {1 Overflow-safe budget arithmetic} *)

val saturating_mul : int -> int -> int
(** [a * b], clamped to [max_int] instead of wrapping. Both factors must
    be [>= 0]. *)

val cycle_budget : ?headroom:int -> max_cycles_factor:int -> int -> int
(** [cycle_budget ~max_cycles_factor clean_cycles] is
    [clean_cycles * max_cycles_factor + headroom] (default headroom
    1000), clamped to [max_int] on overflow — a campaign over a very
    long clean run must get [max_int], never a negative wrapped budget
    that would kill every mutant at cycle 0. Raises [Invalid_argument]
    when [clean_cycles < 0] or [max_cycles_factor < 1]. *)

(** {1 Per-fault-class deadline profiles} *)

val parse_deadline_profile :
  valid_classes:string list -> string -> (string * float) list
(** Parse a ["class=seconds,class=seconds"] specification (the
    [--deadline-profile] flag and its journal-header spelling) into an
    association list. Every class must be a member of [valid_classes]
    and listed at most once; seconds must be [>= 0] ([0] disables the
    watchdog for that class). The empty string is the empty profile.
    Raises [Invalid_argument] with a one-line message otherwise. *)

val seconds_to_string : float -> string
(** ["%g"] formatting when it parses back to the same float, ["%.17g"]
    otherwise: short for every value a user types, lossless always. *)

val render_deadline_profile : (string * float) list -> string
(** Inverse of {!parse_deadline_profile} (seconds via
    {!seconds_to_string}). *)
