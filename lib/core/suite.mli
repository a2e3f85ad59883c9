(** Regression-suite runner.

    The paper's motivation: after every compiler change, the whole test
    suite must be re-verified, and doing that by hand "required long time
    efforts". A suite is a list of cases (program + stimuli); the runner
    verifies each one — optionally under several compiler variants
    (plain / operator sharing / optimizer), catching miscompilations that
    only one binding or optimization path exhibits. *)

type case = {
  case_name : string;
  source : string;  (** Program text. *)
  inits : (string * int list) list;  (** Initial memory contents. *)
}

(** One (case, variant) cell of the matrix. A freshly executed
    verification carries its full {!Verify.t}; a result replayed from a
    resume journal carries only what the journal recorded; a cancelled
    cell ran into a shutdown before finishing and will be re-executed by
    a resumed run. *)
type verdict =
  | Verified of Verify.t
  | Replayed of { rp_passed : bool; rp_seconds : float }
  | Cancelled_case

val verdict_passed : verdict -> bool option
(** [Some passed] for executed or replayed cells, [None] for cancelled. *)

type case_result = {
  case_name_r : string;
  outcomes : (string * verdict) list;  (** Per variant, in order. *)
  seconds : float;
}

type summary = {
  cases : int;
  variants_run : int;  (** Total (case, variant) verifications. *)
  failures : (string * string) list;  (** [(case, variant)] that failed. *)
  cancelled : int;  (** Verifications cancelled by a shutdown. *)
  total_seconds : float;
}

val default_variants : (string * Compiler.Compile.options) list
(** ["plain"], ["shared"], ["optimized"], ["folded"]. *)

val builtin_cases : unit -> case list
(** The standard workloads at regression-friendly sizes: FDCT1/FDCT2
    (16x16), Hamming, vecadd, sum, gcd, sort, edge detection. *)

val load_dir : string -> case list
(** Directory convention: every [<name>.alg] is a case; a file
    [<name>.<memory>.mem] initializes that memory ({!Memfile} format).
    Cases sort by name. Raises [Sys_error] / {!Memfile.Format_error}. *)

val run :
  ?variants:(string * Compiler.Compile.options) list ->
  ?max_cycles:int ->
  ?jobs:int ->
  ?cancel:Budget.token ->
  ?journal_path:string ->
  ?resume:bool ->
  case list ->
  case_result list * summary
(** Verify every case under every variant. Compile or verification
    exceptions are caught and reported as failures. [jobs] (default 1)
    fans the independent (case, variant) verifications out over a
    {!Pool} of worker domains; the report is deterministic — identical
    ordering and content for any job count (per-case [seconds] and
    [total_seconds] are wall-clock and naturally vary).

    Resilience controls, mirroring {!Faultcamp.campaign}:
    - [cancel] is polled before each task and between simulation slices
      (threaded into {!Verify} as a {!Budget}); once it fires, remaining
      cells become {!Cancelled_case}. Pair with
      {!Budget.install_sigint} for Ctrl-C.
    - [journal_path] checkpoints each completed (case, variant) cell to
      an append-only JSONL journal as it finishes (cancelled cells are
      not recorded).
    - [resume = true] (requires [journal_path]) reloads that journal,
      validates it was written for the same cases x variants matrix,
      replays completed cells as {!Replayed} and executes only the rest,
      appending to the same journal. Raises [Failure] on an empty,
      foreign or mismatched journal. *)

val render : case_result list * summary -> string
(** Per-case PASS/FAIL matrix plus totals. *)
