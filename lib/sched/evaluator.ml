module Trace = Crusade_util.Trace

type t = {
  reference : bool;
  basis : Schedule.Replay.recording option;
  trace : Trace.t option;
  prune_counter : Trace.Counter.t;
  replay_counter : Trace.Counter.t;
}

let create ?(incremental = true) ?basis ?trace ?metrics () =
  let counter name =
    match metrics with
    | Some m -> Trace.Metrics.counter m name
    | None -> Trace.Counter.make ()
  in
  {
    reference = not incremental;
    basis = (if incremental then basis else None);
    trace;
    prune_counter = counter "eval.pruned";
    replay_counter = counter "eval.replays";
  }

let prunes t = Trace.Counter.get t.prune_counter
let replays t = Trace.Counter.get t.replay_counter

let run t ?(copy_cap = Schedule.default_copy_cap) spec clustering arch =
  Trace.span t.trace "schedule.run" (fun () ->
      Schedule.run ~copy_cap spec clustering arch)

let verdict_of = function
  | Error _ as e -> e
  | Ok (sched : Schedule.t) ->
      Ok
        {
          Schedule.v_tardiness = sched.Schedule.total_tardiness;
          v_met = sched.Schedule.deadlines_met;
          v_scheduled = sched.Schedule.scheduled_tasks;
        }

(* The basis is never refreshed: it is the one recording of the
   architecture every candidate of a warm repair perturbs, so a stale
   basis only shortens the replayed prefix, never changes a verdict. *)
let evaluate t ?(copy_cap = Schedule.default_copy_cap) spec clustering arch =
  if t.reference then verdict_of (run t ~copy_cap spec clustering arch)
  else
    match t.basis with
    | Some r when Schedule.Replay.compatible r ~copy_cap spec clustering ->
        let prep = Schedule.Replay.prepare r spec clustering arch in
        Trace.Counter.incr t.replay_counter;
        Trace.instant t.trace "eval.replay";
        Schedule.Replay.replay_verdict prep
    | Some _ | None ->
        Trace.span t.trace "schedule.run" (fun () ->
            Schedule.run_verdict ~copy_cap spec clustering arch)

let estimate t ?(copy_cap = Schedule.default_copy_cap) spec clustering arch =
  Trace.span t.trace "schedule.estimate" (fun () ->
      Schedule.estimate ~copy_cap spec clustering arch)

let prune t ?copy_cap ?(settled = false) spec clustering arch rejects =
  (not t.reference)
  && (settled
     ||
     match estimate t ?copy_cap spec clustering arch with
     | Error _ -> true
     | Ok lb -> rejects lb)
  && begin
       Trace.Counter.incr t.prune_counter;
       true
     end
