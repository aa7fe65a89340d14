(** Candidate evaluation for one synthesis run: the single place that
    runs the stage-1 bound, picks the stage-2 path and owns the
    evaluator counters.

    Stage 1 is the admissible bound {!Schedule.estimate}: a candidate
    the bound already rules out is rejected without building a
    schedule.  Stage 2 is a verdict-only full run
    ({!Schedule.run_verdict}), or, on a handle created with a warm
    [basis] compatible with the candidate, a prefix replay against that
    basis.  Both stages are exact: the committed candidates, and so the
    results, are the same as with a full {!Schedule.run} per evaluation.
    Nothing is recorded during evaluation.

    With [~incremental:false] the handle is the {e reference evaluator}:
    every evaluation is a full {!Schedule.run}, with no stage 1 and no
    replay.  Tests and the fuzzer compare the default against it.

    A handle is created per synthesis run, so its counters attribute to
    exactly that run.  It may be shared by the domains of the parallel
    evaluation path. *)

type t

val create :
  ?incremental:bool ->
  ?basis:Schedule.Replay.recording ->
  ?trace:Crusade_util.Trace.t ->
  ?metrics:Crusade_util.Trace.Metrics.t ->
  unit ->
  t
(** [incremental] (default true) enables stage 1 and the verdict-only
    stage 2; false selects the reference evaluator.  [?basis] is a warm
    replay basis (warm re-synthesis of a graph arrival or upgrade hands
    in one recording of the
    post-change architecture): every evaluation whose spec, clustering
    and copy cap it is {!Schedule.Replay.compatible} with replays
    against it; ignored by the reference evaluator.  [?metrics]
    registers ["eval.pruned"] and ["eval.replays"] in the given per-run
    registry.  [?trace] puts every full run in a ["schedule.run"] span,
    every bound in a ["schedule.estimate"] span, and marks every replay
    with an ["eval.replay"] instant. *)

val run :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.t, string) result
(** Exactly {!Schedule.run}, in a ["schedule.run"] span. *)

val evaluate :
  t ->
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (Schedule.verdict, string) result
(** The verdict of {!run} ([deadlines_met], [total_tardiness],
    [scheduled_tasks]), bit-identical, without materializing a schedule
    (except on the reference evaluator).  Use {!run} when the schedule
    itself is needed. *)

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
(** Evaluations served by prefix replay against the warm basis; 0
    without one. *)
