(** Sharded, self-healing campaign coordinator.

    One {!Faultcamp} plan, split into [shards] contiguous slices
    ({!Faultcamp.shard_slice}), each executed by a worker {e process}
    ([fpgatest campaign] re-execed with [--worker]) writing its own
    journal shard.
    The coordinator watches the workers — per-worker heartbeats arrive
    through the journal tail, a wall-clock watchdog declares silent
    workers dead — and respawns dead workers with exponential backoff,
    each respawn resuming its shard from the journal it left behind.
    A shard that kills two workers in a row without forward progress is
    {e quarantined}: the campaign degrades to a partial report with an
    [INCOMPLETE] section instead of aborting.

    The contract, pinned by the tests at every shard count and under
    every {!Chaos} schedule: {!merge_journals} produces a report
    byte-identical to an uninterrupted single-process run. The merge
    replays the shard journals through {!Faultcamp.campaign}'s replay table
    ([replay_only]), so journal validation, last-entry-wins semantics
    and report rendering are exactly the machinery the resume path
    already proves out.

    SIGINT reaches the coordinator only (workers run in their own
    session); it fans the signal out and drains every worker to a valid
    journal footer, then refuses to merge — the shard journals stay
    intact for a later resume. *)

type config = {
  campaign : Faultcamp.config;
      (** The campaign every worker runs and the merge reproduces. Its
          [shard] is ignored (each worker gets its own) and so is its
          [baseline] (the coordinator computes one with
          {!Faultcamp.prepare}). *)
  case : Suite.case;
      (** Must be one of {!Faultcamp.default_workloads} — workers are
          separate processes and look the workload up by name. *)
  shards : int;
  worker_jobs : int;  (** [-j] inside each worker. *)
  dir : string;  (** Shard journals live here (created if missing). *)
  worker_exe : string;
      (** The [fpgatest] executable, re-execed as
          [worker_exe campaign --worker ...]. *)
  watchdog_seconds : float;
      (** A worker whose journal shard shows no activity (heartbeats
          included) for this long is declared dead and SIGKILLed. *)
  respawn_backoff_seconds : float;
      (** Initial respawn delay after a worker death; doubles per
          consecutive death of the same shard. *)
  chaos : int option;
      (** [Some seed] arms the {!Chaos} harness: the seed's schedule
          kills workers mid-slice, stalls them to trip the watchdog and
          corrupts journal tails — and the merged report must still be
          byte-identical to an undisturbed run. *)
}
(** A campaign plus the coordinator's own knobs. *)

val default_config :
  case:Suite.case -> dir:string -> worker_exe:string -> config
(** {!Faultcamp.default_config} with backend [Auto], 1 shard, 1 job per
    worker, 10 s watchdog, 0.25 s respawn backoff, no chaos. *)

val journal_path : config -> int -> string
(** [journal_path cfg i] — where shard [i]'s journal lives
    ([dir/shard-<i>-of-<n>.jsonl]). *)

val worker_args : config -> baseline:Faultcamp.baseline -> shard:int ->
  chaos_exec:Chaos.disruption option -> string list
(** The argv (after the executable) the coordinator passes to shard
    [shard]'s worker — [campaign], the campaign flags and the
    [--worker] protocol flags, all rendered from [cfg.campaign]. Exposed
    so the CLI and the tests agree on the wire format. *)

(** {1 The worker side} *)

val worker :
  workload:string ->
  jobs:int ->
  journal_path:string ->
  chaos_exec:Chaos.disruption option ->
  Faultcamp.config ->
  int
(** The [--worker] entry point: run [workload] under the config — whose
    [shard] names this worker's slice and whose [baseline] is the
    coordinator's checkpoint — against [journal_path] with [jobs]
    domains. It detaches into a fresh session (Ctrl-C on the terminal
    reaches the coordinator only), resumes the shard's journal if one
    exists (compacting it first, so a corrupted tail is healed before
    appending), appends a heartbeat line to the journal every few
    hundred milliseconds, and returns the exit code (0 complete, 130
    interrupted). Obeys [chaos_exec]: [Kill_after k] SIGKILLs the
    process right after its [k]-th journal entry; [Stall] sleeps without
    heartbeating until the coordinator's watchdog kills it. A journal
    whose header records any other parameter (the backend aside), or a
    baseline that no longer matches the workload, is rejected with a
    one-line error (exit 1). *)

(** {1 Merging} *)

val merge_journals :
  ?cancel:Budget.token ->
  config ->
  baseline:Faultcamp.baseline ->
  plan:int ->
  string list ->
  Faultcamp.t
(** Merge the shard journals (one path per shard, in shard order) into
    a single campaign: require each journal's header to record
    [cfg.campaign] (every parameter but the verdict-neutral backend,
    with [baseline]) and the shard's identity, and its entries to lie in
    the shard's slice; then replay their union through
    {!Faultcamp.campaign} [~replay_only].
    With full coverage the result renders byte-identically to an
    uninterrupted single-process run; missing tasks (quarantined or
    unfinished shards, missing journal files) surface as cancelled
    mutants and an [INTERRUPTED] notice — a partial report, never an
    abort. Raises [Failure] with a named diagnostic on a foreign
    journal, a journal claiming the wrong shard identity, a task
    outside its shard's slice — and, {e before touching anything}, when
    [cancel] has fired ("interrupted — shard journals left intact"). *)

(** {1 The coordinator} *)

type shard_status = {
  s_index : int;
  s_slice : int * int;  (** Half-open task range [\[lo, hi)]. *)
  s_attempts : int;  (** Workers spawned for this shard. *)
  s_deaths : int;  (** Abnormal worker endings (watchdog included). *)
  s_quarantined : bool;
  s_last_death : string;  (** Diagnostic of the last death; [""] if none. *)
}

type result = {
  campaign : Faultcamp.t;  (** The merged campaign. *)
  statuses : shard_status list;
  plan : int;  (** Plan length the slices were computed over. *)
  respawns : int;  (** Workers spawned beyond the first per shard. *)
  wall_seconds : float;
}

val run : ?cancel:Budget.token -> config -> result
(** Run the whole sharded campaign: verify the clean design once
    ({!Faultcamp.prepare}), spawn one worker per non-empty slice, watch
    / respawn / quarantine per the config, then merge. Raises
    [Invalid_argument] on a bad config, [Failure] when the clean design
    fails verification or when [cancel] fires (after draining every
    worker to a valid journal footer; the shard journals are kept). *)

val render : ?verbose:bool -> result -> string
(** {!Report.campaign} of the merged campaign, followed by an
    [INCOMPLETE] section naming each quarantined shard, its task range
    and its last death — absent when nothing was quarantined, keeping
    healthy sharded reports byte-identical to single-process ones. *)
