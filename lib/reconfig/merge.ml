module Spec = Crusade_taskgraph.Spec
module Task = Crusade_taskgraph.Task
module Pe = Crusade_resource.Pe
module Caps = Crusade_resource.Caps
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Connect = Crusade_alloc.Connect
module Schedule = Crusade_sched.Schedule
module Evaluator = Crusade_sched.Evaluator
module Vec = Crusade_util.Vec
module Pool = Crusade_util.Pool
module Trace = Crusade_util.Trace

type stats = {
  merges_accepted : int;
  merges_tried : int;
  modes_combined : int;
  iterations : int;
}

let merge_potential (arch : Arch.t) =
  let ppes =
    Vec.fold
      (fun acc (pe : Arch.pe_inst) ->
        if Pe.is_programmable pe.Arch.ptype && Arch.n_images pe > 0 then acc + 1 else acc)
      0 arch.Arch.pes
  in
  ppes + Arch.n_links arch

let occupied_modes (pe : Arch.pe_inst) =
  List.filter
    (fun (m : Arch.mode) -> m.Arch.m_clusters <> [])
    (Vec.to_list pe.Arch.modes)

let graphs_of_pe (clustering : Clustering.t) (pe : Arch.pe_inst) =
  List.sort_uniq compare
    (Vec.fold
       (fun acc (m : Arch.mode) ->
         List.map (fun cid -> clustering.clusters.(cid).Clustering.graph) m.Arch.m_clusters
         @ acc)
       [] pe.Arch.modes)

(* Usable-capacity caps, optionally tightened by a portfolio
   perturbation.  Scales are in (0, 1]: a scale below 1.0 only ever
   REJECTS merges the unperturbed pass would accept, so every
   architecture a scaled pass produces is one the audit accepts. *)
let scaled_caps ~fit_scale (ptype : Pe.t) =
  let spf, spin = fit_scale in
  ( int_of_float (spf *. float_of_int (Caps.usable_pfus ptype)),
    int_of_float (spin *. float_of_int (Caps.usable_pins ptype)) )

(* Can every mode of [src] move (as a whole) onto a fresh mode of
   [dst]'s device type? *)
let modes_fit ~fit_scale (src : Arch.pe_inst) (dst : Arch.pe_inst) clustering =
  let pfus, pins = scaled_caps ~fit_scale dst.Arch.ptype in
  List.for_all
    (fun (m : Arch.mode) ->
      m.Arch.m_gates <= pfus
      && m.Arch.m_pins <= pins
      && List.for_all
           (fun cid ->
             clustering.Clustering.clusters.(cid).Clustering.feasible_mask
             land (1 lsl dst.Arch.ptype.Pe.id)
             <> 0)
           m.Arch.m_clusters)
    (occupied_modes src)

(* Move every cluster of [src] into fresh modes of [dst], mutating
   [arch] in place.  Every mutation below ([add_mode], [unplace_cluster],
   [place_cluster], the [attach]/[add_link] inside [Connect.ensure],
   [detach_unused]) journals its inverse, so callers either run this on
   a throwaway copy ([try_merge]) or under an open {!Arch.checkpoint}
   (the in-place trial producer) and roll back on rejection. *)
let apply_merge spec clustering arch ~src_id ~dst_id =
  let src = Vec.get arch.Arch.pes src_id and dst = Vec.get arch.Arch.pes dst_id in
  let move_mode (m : Arch.mode) =
    let fresh = Arch.add_mode arch dst in
    List.fold_left
      (fun acc cid ->
        match acc with
        | Error _ as e -> e
        | Ok () ->
            let cluster = clustering.Clustering.clusters.(cid) in
            Arch.unplace_cluster arch clustering cluster;
            (match Arch.place_cluster arch spec clustering cluster ~pe:dst ~mode:fresh with
            | Error _ as e -> e
            | Ok () -> Connect.ensure arch spec clustering cluster |> Result.map (fun _ -> ())))
      (Ok ()) m.Arch.m_clusters
  in
  let moved =
    List.fold_left
      (fun acc m -> match acc with Error _ as e -> e | Ok () -> move_mode m)
      (Ok ())
      (occupied_modes src)
  in
  match moved with
  | Error _ as e -> e
  | Ok () ->
      Arch.detach_unused arch;
      Ok ()


(* Move every cluster of [src] into fresh modes of [dst] on a copy of the
   architecture; returns the copy on success. *)
let try_merge spec clustering arch ~src_id ~dst_id =
  let trial = Arch.copy arch in
  apply_merge spec clustering trial ~src_id ~dst_id
  |> Result.map (fun () -> trial)

(* Combine two occupied modes of the same device when the union respects
   the ERUF/EPUF caps (Section 4.2: "we try to combine C1, C2 and C3 in
   the same FPGA mode if there exist sufficient resources").  In-place,
   journaled like [apply_merge]. *)
let apply_combine spec clustering arch ~pe_id ~mode_a ~mode_b =
  let pe = Vec.get arch.Arch.pes pe_id in
  let target = Vec.get pe.Arch.modes mode_a in
  let source = Vec.get pe.Arch.modes mode_b in
  List.fold_left
    (fun acc cid ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
          let cluster = clustering.Clustering.clusters.(cid) in
          Arch.unplace_cluster arch clustering cluster;
          Arch.place_cluster arch spec clustering cluster ~pe ~mode:target)
    (Ok ()) source.Arch.m_clusters

(* How a merge trial ended.  [Accept (Some ck)]: the trial is applied to
   the live architecture under the open checkpoint [ck]; [Accept None]:
   it was evaluated on a private copy and is re-applied on acceptance. *)
type trial = Reject | Accept of Arch.checkpoint option

let optimize ?(copy_cap = Schedule.default_copy_cap) ?(max_trials_per_pass = 400)
    ?(jobs = 1) ?(fit_scale = (1.0, 1.0)) ?(on_pass = fun _ -> ()) ?trace
    ~evaluator spec clustering arch schedule =
  let jobs = max 1 jobs in
  (* Acceptance of a trial built from a base of cost [base_cost]: a
     feasible schedule at strictly lower cost for device merges
     ([strict]), at no higher cost for mode combines.  Stage 1 rejects a
     cost excess or a positive tardiness bound without a schedule. *)
  let acceptable ~base_cost ~strict trial =
    let trial_cost = Arch.cost trial in
    let cheaper =
      if strict then trial_cost < base_cost else trial_cost <= base_cost
    in
    (not
       (Evaluator.prune evaluator ~copy_cap ~settled:(not cheaper) spec
          clustering trial (fun lb -> lb > 0)))
    &&
    match Evaluator.evaluate evaluator ~copy_cap spec clustering trial with
    | Error _ -> false
    | Ok v -> v.Schedule.v_met && cheaper
  in
  let current = Arch.copy arch in
  let current_sched = ref schedule in
  (* Keep the trial applied to [current] under [ck] once its schedule
     materializes.  The verdict said feasible, so the run cannot fail
     (same inputs, bit-identical result); a failure rolls back. *)
  let commit_trial ck =
    match Evaluator.run evaluator ~copy_cap spec clustering current with
    | Ok sched ->
        Arch.commit current ck;
        current_sched := sched;
        true
    | Error _ ->
        Arch.rollback current ck;
        false
  in
  (* The two merge-trial producers.  At [jobs = 1] a trial mutates the
     live architecture under a journal checkpoint and is kept applied
     when acceptable.  At [jobs > 1] each trial of a
     batch works on its own copy of the same base on the domain pool. *)
  let trial_in_place ~base_cost (pos_k, src_id, dst_id) =
    let ck = Arch.checkpoint current in
    let ok =
      Trace.span trace
        ~args:[ ("trial", Trace.Num pos_k) ]
        "merge.trial"
        (fun () ->
          Result.is_ok (apply_merge spec clustering current ~src_id ~dst_id)
          && acceptable ~base_cost ~strict:true current)
    in
    if ok then Accept (Some ck)
    else begin
      Arch.rollback current ck;
      Reject
    end
  in
  let trial_on_copy ~base_cost (pos_k, src_id, dst_id) =
    Trace.span trace
      ~args:[ ("trial", Trace.Num pos_k) ]
      "merge.trial"
      (fun () ->
        match try_merge spec clustering current ~src_id ~dst_id with
        | Ok trial when acceptable ~base_cost ~strict:true trial -> Accept None
        | Ok _ | Error _ -> Reject)
  in
  let merges_accepted = ref 0
  and merges_tried = ref 0
  and modes_combined = ref 0
  and iterations = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    incr iterations;
    Trace.instant trace "merge.pass";
    (* Portfolio hook: bound/budget checks may raise to abort the
       trajectory between passes. *)
    on_pass current;
    let compat = Compat.matrix spec !current_sched in
    (* Merge array: candidate (src, dst) PPE pairs, best saving first. *)
    let ppes =
      Vec.fold
        (fun acc (pe : Arch.pe_inst) ->
          if Pe.is_programmable pe.Arch.ptype && Arch.n_images pe > 0 then pe :: acc
          else acc)
        [] current.Arch.pes
    in
    let candidates = ref [] in
    List.iter
      (fun (src : Arch.pe_inst) ->
        List.iter
          (fun (dst : Arch.pe_inst) ->
            if src.Arch.p_id <> dst.Arch.p_id then begin
              let src_graphs = graphs_of_pe clustering src
              and dst_graphs = graphs_of_pe clustering dst in
              if
                Compat.graphs_compatible compat src_graphs dst_graphs
                && modes_fit ~fit_scale src dst clustering
              then begin
                let saving = src.Arch.ptype.Pe.cost in
                candidates := (saving, src.Arch.p_id, dst.Arch.p_id) :: !candidates
              end
            end)
          ppes)
      ppes;
    let sorted =
      Array.of_list (List.sort (fun (a, _, _) (b, _, _) -> compare b a) !candidates)
    in
    (* Merge trials in batches of up to [jobs] live pairs, consumed
       strictly in trial order.  The first acceptable trial is installed
       on the live architecture, the rest of its batch is discarded, and
       collection restarts just past the accepted pair: the discarded
       trials were built on a base that no longer exists.  A pair gone
       stale (an accepted merge emptied one of its devices) is skipped
       without counting, so trial counts and accepted merges are the
       same at every [jobs]. *)
    let n_candidates = Array.length sorted in
    let trials = ref 0 in
    let pos = ref 0 in
    while !pos < n_candidates && !trials < max_trials_per_pass do
      let batch = ref [] and collected = ref 0 in
      let want = min jobs (max_trials_per_pass - !trials) in
      while !collected < want && !pos < n_candidates do
        let _, src_id, dst_id = sorted.(!pos) in
        let src = Vec.get current.Arch.pes src_id
        and dst = Vec.get current.Arch.pes dst_id in
        if
          Arch.n_images src > 0 && Arch.n_images dst > 0
          && modes_fit ~fit_scale src dst clustering
        then begin
          batch := (!pos, src_id, dst_id) :: !batch;
          incr collected
        end;
        incr pos
      done;
      let batch = Array.of_list (List.rev !batch) in
      let base_cost = Arch.cost current in
      let outcomes =
        if jobs = 1 then Array.map (trial_in_place ~base_cost) batch
        else
          Pool.map_n ~jobs (Pool.global ())
            (fun k -> trial_on_copy ~base_cost batch.(k))
            (Array.length batch)
      in
      let k = ref 0 and accepted = ref false in
      while (not !accepted) && !k < Array.length batch do
        incr trials;
        incr merges_tried;
        let pos_k, src_id, dst_id = batch.(!k) in
        let installed =
          match outcomes.(!k) with
          | Reject -> false
          | Accept (Some ck) -> commit_trial ck
          | Accept None -> (
              let ck = Arch.checkpoint current in
              match apply_merge spec clustering current ~src_id ~dst_id with
              | Ok () -> commit_trial ck
              | Error _ ->
                  Arch.rollback current ck;
                  false)
        in
        if installed then begin
          incr merges_accepted;
          improved := true;
          accepted := true;
          pos := pos_k + 1
        end;
        incr k
      done
    done;
    (* Mode-combining pass on each multi-image device, as journaled
       trials on the live architecture.  The fit precheck reads a
       pass-entry snapshot of each device's occupied modes, so accepted
       combines do not change which trials the pass attempts. *)
    let combine_plan =
      let acc = ref [] in
      Vec.iter
        (fun (pe : Arch.pe_inst) ->
          match occupied_modes pe with
          | (a : Arch.mode) :: (_ :: _ as rest) ->
              acc :=
                ( pe.Arch.p_id,
                  pe.Arch.ptype,
                  (a.Arch.m_id, a.Arch.m_gates, a.Arch.m_pins),
                  List.map
                    (fun (b : Arch.mode) -> (b.Arch.m_id, b.Arch.m_gates, b.Arch.m_pins))
                    rest )
                :: !acc
          | _ -> ())
        current.Arch.pes;
      List.rev !acc
    in
    List.iter
      (fun (pe_id, ptype, (a_id, a_gates, a_pins), rest) ->
        List.iter
          (fun (b_id, b_gates, b_pins) ->
            let pfus, pins = scaled_caps ~fit_scale ptype in
            if a_gates + b_gates <= pfus && a_pins + b_pins <= pins then
              Trace.span trace
                ~args:[ ("pe", Trace.Num pe_id) ]
                "merge.combine"
                (fun () ->
                  let base_cost = Arch.cost current in
                  let ck = Arch.checkpoint current in
                  if
                    Result.is_ok
                      (apply_combine spec clustering current ~pe_id ~mode_a:a_id
                         ~mode_b:b_id)
                    && acceptable ~base_cost ~strict:false current
                  then begin
                    if commit_trial ck then begin
                      incr modes_combined;
                      improved := true
                    end
                  end
                  else Arch.rollback current ck))
          rest)
      combine_plan
  done;
  ( current,
    !current_sched,
    {
      merges_accepted = !merges_accepted;
      merges_tried = !merges_tried;
      modes_combined = !modes_combined;
      iterations = !iterations;
    } )
