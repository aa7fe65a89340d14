(** Dynamic-reconfiguration generation (Sections 4.1 / 4.2 / Fig. 3).

    After an architecture meets its deadlines, CRUSADE computes its merge
    potential (number of PPEs plus links), builds a merge array of PPE
    pairs that could collapse into a single multi-mode device, and
    explores the merges in decreasing-saving order; a merge is kept when
    the re-scheduled architecture still meets every deadline and costs
    less.  A second pass combines modes of the same device when capacity
    allows, cutting configuration images and reboots.  The process
    repeats until neither the cost nor the merge potential improves. *)

type stats = {
  merges_accepted : int;
  merges_tried : int;
  modes_combined : int;
  iterations : int;
}

val merge_potential : Crusade_alloc.Arch.t -> int
(** Number of (occupied) programmable PEs plus links — the quantity the
    merge loop drives down. *)

val optimize :
  ?copy_cap:int ->
  ?max_trials_per_pass:int ->
  ?jobs:int ->
  ?fit_scale:float * float ->
  ?on_pass:(Crusade_alloc.Arch.t -> unit) ->
  ?trace:Crusade_util.Trace.t ->
  evaluator:Crusade_sched.Evaluator.t ->
  Crusade_taskgraph.Spec.t ->
  Crusade_cluster.Clustering.t ->
  Crusade_alloc.Arch.t ->
  Crusade_sched.Schedule.t ->
  Crusade_alloc.Arch.t * Crusade_sched.Schedule.t * stats
(** [optimize ~evaluator spec clustering arch schedule] returns the
    improved architecture with its final schedule; [schedule] must be
    the schedule of [arch].  The input architecture is never mutated:
    the trials run on one private copy, the live architecture.

    [jobs] (default 1) chooses the merge-trial producer.  At 1, each
    trial mutates the live architecture under a
    {!Crusade_alloc.Arch.checkpoint} and is rolled back unless accepted.
    Above 1, the trials of a pass are evaluated in index-ordered batches
    on per-trial copies on the {!Crusade_util.Pool} domain pool, and an
    accepted trial is re-applied to the live architecture.  Either way
    the trials are consumed in trial order by one loop, so results —
    including the [stats] counters — are the same at every [jobs].  Mode
    combines are always journaled trials on the live architecture.

    [evaluator] is the calling run's {!Crusade_sched.Evaluator}: its
    stage 1 rejects trials whose exact cost or tardiness bound already
    rules out acceptance, and its stage 2 judges the rest by verdict
    alone (replayed against warm re-synthesis's basis when it has one).
    [trace] adds ["merge.trial"] / ["merge.combine"] spans
    and a ["merge.pass"] instant per pass.

    [fit_scale] (default [(1.0, 1.0)]) scales the usable PFU/pin caps
    used by the fit checks; portfolio trajectories perturb it
    {e downward} only, so a scaled pass can only reject merges the
    unperturbed pass would accept — never produce an over-capacity
    architecture.  [on_pass] is called with the current architecture at
    the start of every pass; a portfolio trajectory's incumbent-bound /
    budget check may raise from it to abort the optimization. *)
