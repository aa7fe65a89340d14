module Spec = Crusade_taskgraph.Spec
module Edge = Crusade_taskgraph.Edge
module Pe = Crusade_resource.Pe
module Library = Crusade_resource.Library
module Caps = Crusade_resource.Caps
module Clustering = Crusade_cluster.Clustering
module Vec = Crusade_util.Vec

type kind =
  | Existing_site of Arch.site
  | New_mode of int
  | New_pe of int

type t = { kind : kind; delta_cost : float; affinity : int }

let prom_image_cost (ptype : Pe.t) =
  match ptype.Pe.pe_class with
  | Pe.Programmable info ->
      float_of_int info.boot_memory_bytes /. 1024.0 *. Arch.prom_dollars_per_kbyte
  | Pe.General_purpose _ | Pe.Asic_pe _ -> 0.0

let new_pe_cost (ptype : Pe.t) =
  let extra =
    match ptype.Pe.pe_class with
    | Pe.General_purpose cpu -> cpu.memory_bank_cost
    | Pe.Asic_pe _ -> 0.0
    | Pe.Programmable _ -> prom_image_cost ptype
  in
  ptype.Pe.cost +. extra

(* Would the cluster fit this PE instance/mode right now? *)
let fits (cluster : Clustering.cluster) (pe : Arch.pe_inst) (mode : Arch.mode) =
  cluster.feasible_mask land (1 lsl pe.Arch.ptype.Pe.id) <> 0
  &&
  match pe.Arch.ptype.Pe.pe_class with
  | Pe.General_purpose cpu ->
      pe.Arch.used_memory + cluster.memory_bytes
      <= cpu.memory_bank_bytes * cpu.max_memory_banks
  | Pe.Asic_pe a ->
      mode.Arch.m_gates + cluster.gates <= a.gates
      && mode.Arch.m_pins + cluster.pins <= a.pins
  | Pe.Programmable _ ->
      mode.Arch.m_gates + cluster.gates <= Caps.usable_pfus pe.Arch.ptype
      && mode.Arch.m_pins + cluster.pins <= Caps.usable_pins pe.Arch.ptype

let affinity_of arch (spec : Spec.t) (clustering : Clustering.t)
    (cluster : Clustering.cluster) pe_id =
  let count = ref 0 in
  let note task_id =
    match Arch.task_site arch clustering task_id with
    | Some site when site.Arch.s_pe = pe_id -> incr count
    | Some _ | None -> ()
  in
  List.iter
    (fun member ->
      List.iter (fun (e : Edge.t) -> note e.dst) spec.succs.(member);
      List.iter (fun (e : Edge.t) -> note e.src) spec.preds.(member))
    cluster.members;
  !count

let enumerate arch spec clustering (cluster : Clustering.cluster) ~allow_new_modes
    ?(max_existing = 8) ?(max_new_pe = 16) () =
  let existing = ref [] and new_modes = ref [] in
  (* Time-sharing a programmable device is only sound when the graphs in
     different modes can never be active simultaneously: modes serialize
     on the device and switching costs a reboot (Sections 4.1-4.3). *)
  let mode_graphs (mode : Arch.mode) =
    List.sort_uniq compare
      (List.map
         (fun cid -> clustering.Clustering.clusters.(cid).Clustering.graph)
         mode.Arch.m_clusters)
  in
  let mode_of_own_graph (pe : Arch.pe_inst) =
    Vec.fold
      (fun acc (m : Arch.mode) ->
        match acc with
        | Some _ -> acc
        | None -> if List.mem cluster.graph (mode_graphs m) then Some m else None)
      None pe.Arch.modes
  in
  let other_modes_compatible (pe : Arch.pe_inst) (mode_id : int) =
    Vec.for_all
      (fun (m : Arch.mode) ->
        m.Arch.m_id = mode_id
        || List.for_all
             (fun g -> Spec.static_compatible spec g cluster.graph)
             (mode_graphs m))
      pe.Arch.modes
  in
  Vec.iter
    (fun (pe : Arch.pe_inst) ->
      if
        (not pe.Arch.p_failed)
        && cluster.feasible_mask land (1 lsl pe.Arch.ptype.Pe.id) <> 0
      then begin
        let affinity = affinity_of arch spec clustering cluster pe.Arch.p_id in
        let programmable = Pe.is_programmable pe.Arch.ptype in
        let own_mode = if programmable then mode_of_own_graph pe else None in
        Vec.iter
          (fun (mode : Arch.mode) ->
            let mode_allowed =
              (not programmable)
              || (match own_mode with
                 | Some m -> m.Arch.m_id = mode.Arch.m_id
                 | None -> true)
                 && other_modes_compatible pe mode.Arch.m_id
            in
            if mode_allowed && fits cluster pe mode then begin
              (* Prefer packing a cluster with graphs it overlaps in time
                 (they must share the mode anyway, Fig. 4's C3); packing
                 it with compatible graphs would waste a time-sharing
                 opportunity, so such sites rank below. *)
              let overlap_bonus =
                if not programmable then 0
                else if
                  List.exists
                    (fun g ->
                      g = cluster.graph
                      || not (Spec.static_compatible spec g cluster.graph))
                    (mode_graphs mode)
                then 1000
                else 0
              in
              existing :=
                {
                  kind = Existing_site { Arch.s_pe = pe.Arch.p_id; s_mode = mode.Arch.m_id };
                  delta_cost = 0.0;
                  affinity = affinity + overlap_bonus;
                }
                :: !existing
            end)
          pe.Arch.modes;
        if allow_new_modes && programmable && own_mode = None
           && other_modes_compatible pe (-1)
        then begin
          (* A fresh mode always has full (capped) capacity. *)
          let empty = { Arch.m_id = -1; m_clusters = []; m_gates = 0; m_pins = 0 } in
          if fits cluster pe empty then
            new_modes :=
              {
                kind = New_mode pe.Arch.p_id;
                delta_cost = prom_image_cost pe.Arch.ptype;
                affinity;
              }
              :: !new_modes
        end
      end)
    arch.Arch.pes;
  let top n scored =
    let sorted =
      List.sort
        (fun a b ->
          if a.delta_cost <> b.delta_cost then compare a.delta_cost b.delta_cost
          else compare b.affinity a.affinity)
        scored
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    take n sorted
  in
  let new_pes =
    let rec scan acc i =
      if i >= Library.n_pe_types arch.Arch.lib then acc
      else begin
        let ptype = Library.pe arch.Arch.lib i in
        let acc =
          if cluster.feasible_mask land (1 lsl i) <> 0 then
            { kind = New_pe i; delta_cost = new_pe_cost ptype; affinity = 0 } :: acc
          else acc
        in
        scan acc (i + 1)
      end
    in
    scan [] 0
  in
  top max_existing !existing @ top 4 !new_modes @ top max_new_pe new_pes

let apply arch spec clustering (cluster : Clustering.cluster) option =
  let placed =
    match option.kind with
    | Existing_site site ->
        let pe = Vec.get arch.Arch.pes site.Arch.s_pe in
        let mode = Arch.mode_of_site arch site in
        Arch.place_cluster arch spec clustering cluster ~pe ~mode
    | New_mode pe_id ->
        let pe = Vec.get arch.Arch.pes pe_id in
        let mode = Arch.add_mode arch pe in
        Arch.place_cluster arch spec clustering cluster ~pe ~mode
    | New_pe pe_type ->
        let pe = Arch.add_pe arch (Library.pe arch.Arch.lib pe_type) in
        if Vec.length pe.Arch.modes = 1 then
          Arch.place_cluster arch spec clustering cluster ~pe
            ~mode:(Vec.get pe.Arch.modes 0)
        else Error "fresh PE must have exactly one mode"
  in
  match placed with
  | Error _ as e -> e
  | Ok () -> (
      match Connect.ensure arch spec clustering cluster with
      | Ok _cost -> Ok ()
      | Error _ as e -> e)
