(** Candidate evaluation for one synthesis run: the single place that
    decides between the {!Incremental} engine and a full
    {!Schedule.run}, runs the stage-1 bound, and owns the evaluator
    counters.

    Stage 1 is the admissible bound {!Schedule.estimate}: a candidate
    the bound already rules out is rejected without building a
    schedule.  Stage 2 is a prefix replay against the engine's
    recording of the last full run, or a full run when no recording
    fits.  Both stages are exact: the committed candidates, and so the
    results, are the same as with a full {!Schedule.run} per evaluation.

    With [~incremental:false] the handle is the {e reference evaluator}:
    every evaluation is a full {!Schedule.run}, with no stage 1 and no
    replay.  Tests and the fuzzer compare the default against it.

    A handle is created per synthesis run, so its counters attribute to
    exactly that run.  It may be shared by the domains of the parallel
    evaluation path. *)

type t

val create :
  ?incremental:bool ->
  ?basis_store:Incremental.Store.t ->
  ?trace:Crusade_util.Trace.t ->
  ?metrics:Crusade_util.Trace.Metrics.t ->
  unit ->
  t
(** [incremental] (default true) attaches the {!Incremental} engine and
    enables stage 1.  [?basis_store] hands the engine a shared recording
    store, so several runs (portfolio trajectories, warm re-synthesis
    attempts) seed each other's replay bases; ignored by the reference
    evaluator.  [?metrics] registers ["eval.pruned"] and the engine's
    counters in the given per-run registry.  [?trace] puts every
    {!Schedule.run} in a ["schedule.run"] span and every bound in a
    ["schedule.estimate"] span. *)

val run :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.t, string) result
(** Exactly {!Schedule.run}.  With the engine attached, the run also
    refreshes its recording. *)

val evaluate :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.verdict, string) result
(** The verdict of {!run} ([deadlines_met], [total_tardiness],
    [scheduled_tasks]), bit-identical, served by a prefix replay that
    materializes no schedule whenever the engine holds a usable
    recording.  Use {!run} when the schedule itself is needed. *)

val refresh :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  unit
(** Refreshes the engine's recording with a record-only run (no
    schedule is materialized).  For commit points, where the schedule
    would be discarded.  No-op on the reference evaluator. *)

val prune :
  t ->
  ?copy_cap:int ->
  ?settled:bool ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (int -> bool) ->
  bool
(** [prune t spec clustering arch rejects] is stage 1: true iff the
    bound settles the candidate as rejected, because {!Schedule.estimate}
    fails (exactly when {!Schedule.run} would) or [rejects lb] holds on
    its bound [lb].  [settled] (default false) is a rejection the caller
    already knows without the bound (an exact cost excess); the bound is
    then skipped.  A true answer is counted in {!prunes}.  Always false
    on the reference evaluator. *)

val estimate :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (int, string) result
(** Exactly {!Schedule.estimate}, in a ["schedule.estimate"] span.  For
    decisions other than candidate rejection (a portfolio abort). *)

val prunes : t -> int
(** Candidates rejected by {!prune}. *)

val replays : t -> int
(** Evaluations served by prefix replay; 0 on the reference evaluator. *)

val rebuilds : t -> int
(** Full scheduler runs through the engine (recording refreshes
    included); 0 on the reference evaluator. *)

val adoptions : t -> int
(** Replays served by a cross-clustering adopted basis (a subset of
    {!replays}). *)

val basis_cuts : t -> int
(** Recording steps the adopted bases could not cover. *)
