module Trace = Crusade_util.Trace

type t = {
  engine : Incremental.t option;  (* [None]: the reference evaluator *)
  trace : Trace.t option;
  prune_counter : Trace.Counter.t;
}

let create ?(incremental = true) ?basis_store ?trace ?metrics () =
  {
    engine =
      (if incremental then
         Some (Incremental.create ?store:basis_store ?trace ?metrics ())
       else None);
    trace;
    prune_counter =
      (match metrics with
      | Some m -> Trace.Metrics.counter m "eval.pruned"
      | None -> Trace.Counter.make ());
  }

let engine_count f t = match t.engine with Some e -> f e | None -> 0
let prunes t = Trace.Counter.get t.prune_counter
let replays = engine_count Incremental.replays
let rebuilds = engine_count Incremental.rebuilds
let adoptions = engine_count Incremental.adoptions
let basis_cuts = engine_count Incremental.basis_cuts

(* [Incremental.record] and [refresh] emit their own "schedule.run"
   spans. *)
let full_run t ~copy_cap spec clustering arch =
  Trace.span t.trace "schedule.run" (fun () ->
      Schedule.run ~copy_cap spec clustering arch)

let run t ?(copy_cap = Schedule.default_copy_cap) spec clustering arch =
  match t.engine with
  | Some eng -> Incremental.record eng ~copy_cap spec clustering arch
  | None -> full_run t ~copy_cap spec clustering arch

let refresh t ?(copy_cap = Schedule.default_copy_cap) spec clustering arch =
  match t.engine with
  | Some eng -> Incremental.refresh eng ~copy_cap spec clustering arch
  | None -> ()

let verdict_of = function
  | Error _ as e -> e
  | Ok (sched : Schedule.t) ->
      Ok
        {
          Schedule.v_tardiness = sched.Schedule.total_tardiness;
          v_met = sched.Schedule.deadlines_met;
          v_scheduled = sched.Schedule.scheduled_tasks;
        }

let evaluate t ?(copy_cap = Schedule.default_copy_cap) spec clustering arch =
  match t.engine with
  | Some eng -> (
      match Incremental.evaluate eng ~copy_cap spec clustering arch with
      | `Replayed v -> v
      | `Ran result -> verdict_of result)
  | None -> verdict_of (full_run t ~copy_cap spec clustering arch)

let estimate t ?(copy_cap = Schedule.default_copy_cap) spec clustering arch =
  Trace.span t.trace "schedule.estimate" (fun () ->
      Schedule.estimate ~copy_cap spec clustering arch)

let prune t ?copy_cap ?(settled = false) spec clustering arch rejects =
  Option.is_some t.engine
  && (settled
     ||
     match estimate t ?copy_cap spec clustering arch with
     | Error _ -> true
     | Ok lb -> rejects lb)
  && begin
       Trace.Counter.incr t.prune_counter;
       true
     end
