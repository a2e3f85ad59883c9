(** An FSM resolved once to integer indices, for executing it cycle by
    cycle without looking up names.

    States are numbered in declaration order, outputs and inputs by their
    position in [outputs] and [inputs]. Both simulators that run a
    controller ([Transform.Fsm_exec] inside the event kernel, and
    [Cyclesim]) execute it through this index. *)

type t

val create : Fsm.t -> t
(** The FSM must be well-formed ({!Fsm.validate}); raises
    [Invalid_argument] when a transition target, the initial state or a
    guard names something undeclared. *)

val state_count : t -> int
val state : t -> int -> Fsm.state
val initial : t -> int
val is_done : t -> int -> bool

val vectors : t -> widths:int array -> Bitvec.t array array
(** Per state, each output's value (its default when the state does not
    set it) as a vector of [widths.(o)] bits. Equal vectors are shared,
    so the table costs one pointer per (state, output). Raises
    [Invalid_argument] when a setting names an undeclared output. *)

val next : t -> int -> (int -> int) -> int
(** [next ix s read] is the target of state [s]'s first transition whose
    guard holds, or [s] when none does. Guards read input [i]'s current
    unsigned value as [read i]. *)
