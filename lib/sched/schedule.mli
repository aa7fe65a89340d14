(** The static scheduler and finish-time estimator (Section 5).

    Deadline-based priority-level list scheduling over the hyperperiod:
    - every task-graph copy in the hyperperiod is instantiated (the
      association array), up to [copy_cap] explicit copies per graph —
      beyond the cap the explicit schedule is extrapolated periodically;
    - tasks become ready when their intra-copy predecessors finish and
      their input edges have been transferred over a connecting link;
    - general-purpose processors and links are serial resources scheduled
      by gap insertion, with restricted preemption on processors;
    - ASIC tasks own their circuits and run as soon as ready;
    - programmable-PE tasks additionally wait for their configuration
      mode: windows of different modes may not overlap, and switching
      modes costs the reboot task (Section 4.3).

    The same run yields finish-time estimation (deadline check and total
    tardiness), the per-graph activity windows used for compatibility
    detection (Fig. 3), and the per-device mode windows and switch counts
    used by reconfiguration generation. *)

type instance = {
  i_task : int;  (** global task id *)
  i_copy : int;
  arrival : int;
  abs_deadline : int;
  mutable start : int;
  mutable finish : int;
}

type t = {
  instances : instance array;
  hyperperiod : int;
  deadlines_met : bool;
  total_tardiness : int;
  graph_windows : Crusade_util.Intervals.t array;
      (** activity (execution + communication) per graph over the full
          hyperperiod, capped copies replicated periodically *)
  mode_switches : int array;  (** reconfigurations per PE instance *)
  scheduled_tasks : int;  (** tasks covered (placed clusters only) *)
}

val default_copy_cap : int
(** 64: graphs with more copies in the hyperperiod than this are
    scheduled for the first [copy_cap] copies and extrapolated — the
    association-array compromise documented in DESIGN.md. *)

val run :
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (t, string) result
(** Schedules every task whose cluster is placed in the architecture.
    Fails only when two communicating placed tasks sit on PEs with no
    connecting link (a broken allocation). *)

val estimate :
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (int, string) result
(** Stage-1 evaluator: an admissible lower bound on {!run}'s
    [total_tardiness] for the same placement, in O(V + E + I log I)
    without building any timeline.  Guarantees, for every architecture:
    - [estimate] never exceeds [run]'s total tardiness, so a positive
      bound proves the placement misses deadlines and a bound that
      already loses to the incumbent proves the candidate cannot win;
    - [estimate] is [Error] exactly when [run] is (two communicating
      placed tasks on unconnected PEs).
    Candidate evaluation consults it before paying for a full schedule;
    see DESIGN.md "Two-stage candidate evaluation". *)

val priorities :
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  int array
(** Deadline-based priority levels under the current (partial)
    allocation: allocated tasks use their actual execution time, edges
    internal to a cluster or PE cost zero. *)

type verdict = {
  v_tardiness : int;  (** {!t}[.total_tardiness] of the same run *)
  v_met : bool;  (** {!t}[.deadlines_met] *)
  v_scheduled : int;  (** {!t}[.scheduled_tasks] *)
}
(** What candidate evaluation actually consumes from a schedule. *)

val run_verdict :
  ?copy_cap:int ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  (verdict, string) result
(** The verdict of {!run} on the same inputs, bit-identical (including
    its [Error]), without materializing instance records, activity
    windows or mode-switch counts. *)

(** Record/replay (see DESIGN.md "Incremental rescheduling").  [record]
    captures, alongside a normal run, the pop sequence and the exact
    resource reservations of every step plus a snapshot of everything
    the scheduler read from the architecture.  [prepare] diffs a
    candidate architecture against that snapshot and computes the
    provably identical prefix; [replay_verdict] / [replay_run]
    fast-forward through it and schedule only the remainder.  Used by
    {!Evaluator}'s warm basis, the differential tests and the fuzzer's
    self-test. *)
module Replay : sig
  type recording

  val steps : recording -> int
  (** Number of recorded scheduling steps (pops). *)

  val compatible :
    recording ->
    ?copy_cap:int ->
    Crusade_taskgraph.Spec.t ->
    Crusade_cluster.Clustering.t ->
    bool
  (** A recording only applies to the same spec and clustering (by
      physical identity) and the same copy cap it was captured with. *)

  val record :
    ?copy_cap:int ->
    Crusade_taskgraph.Spec.t ->
    Crusade_cluster.Clustering.t ->
    Crusade_alloc.Arch.t ->
    (t * recording, string) result
  (** Runs the scheduler exactly as {!run} does while capturing a
      recording of the run.  The schedule returned is bit-identical to
      {!run}'s. *)

  val record_only :
    ?copy_cap:int ->
    Crusade_taskgraph.Spec.t ->
    Crusade_cluster.Clustering.t ->
    Crusade_alloc.Arch.t ->
    (recording, string) result
  (** Like {!record} but skips schedule materialization (no instance
      records, activity intervals or mode-switch counts are built).  For
      a replay basis whose schedule is not needed. *)

  type prep

  val prepare :
    recording ->
    Crusade_taskgraph.Spec.t ->
    Crusade_cluster.Clustering.t ->
    Crusade_alloc.Arch.t ->
    prep
  (** Diffs [arch] against the recording's snapshot and computes the
      replayable prefix.  The caller must have checked {!compatible}. *)

  val cut : prep -> int
  (** Steps of the recording that will be replayed verbatim — equals
      {!steps} when the candidate provably schedules identically. *)

  val replay_verdict : prep -> (verdict, string) result
  (** Replays the prefix and schedules the remainder, returning only the
      verdict (no instance records, activity windows or mode-switch
      counts are materialized).  Bit-identical to the verdict of a fresh
      {!run} against the same architecture. *)

  val replay_run : prep -> (t, string) result
  (** Like {!replay_verdict} but materializes the full schedule;
      bit-identical to a fresh {!run}. *)

  val corrupt_for_selftest : ?step:int -> recording -> bool
  (** Mutates the recording at [step] (default: the last step) so that
      any replay whose prefix includes it diverges from a fresh run
      (testing only: proves differential checks can fail).  Returns
      [false] when the recording has no such step. *)
end
