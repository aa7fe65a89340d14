(* Busy intervals as a pair of sorted int arrays (starts/stops, disjoint,
   non-adjacent).  The scheduler inserts tens of thousands of intervals
   per run and mostly near the end of a timeline; keeping the intervals
   unboxed with in-place shifts replaces the former list representation,
   whose prefix-rebuilding insert allocated O(n) cells per insertion and
   dominated the scheduler's GC load. *)
type t = {
  mutable starts : int array;
  mutable stops : int array;
  mutable n : int;
}

let create () = { starts = [||]; stops = [||]; n = 0 }

let busy t =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) ((t.starts.(i), t.stops.(i)) :: acc)
  in
  build (t.n - 1) []

let busy_until t = if t.n = 0 then 0 else t.stops.(t.n - 1)

(* First index whose interval ends after [time]; earlier intervals can
   neither host nor delay work that is ready at [time]. *)
let first_active t time =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.stops.(mid) > time then hi := mid else lo := mid + 1
  done;
  !lo

(* Earliest gap of length [duration] starting at or after [ready]. *)
let find_gap t ~ready ~duration =
  let pos = ref ready in
  let i = ref (first_active t ready) in
  let found = ref false in
  while (not !found) && !i < t.n do
    if !pos + duration <= t.starts.(!i) then found := true
    else begin
      if t.stops.(!i) > !pos then pos := t.stops.(!i);
      incr i
    end
  done;
  !pos

let ensure_capacity t =
  let cap = Array.length t.starts in
  if t.n = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ns = Array.make ncap 0 and ne = Array.make ncap 0 in
    Array.blit t.starts 0 ns 0 t.n;
    Array.blit t.stops 0 ne 0 t.n;
    t.starts <- ns;
    t.stops <- ne
  end

(* Insert [start, stop), coalescing touching neighbours. *)
let add t start stop =
  (* First index that may touch the new interval (stop >= start). *)
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.stops.(mid) >= start then hi := mid else lo := mid + 1
  done;
  let lo = !lo in
  let s = ref start and e = ref stop in
  let j = ref lo in
  while !j < t.n && t.starts.(!j) <= !e do
    if t.starts.(!j) < !s then s := t.starts.(!j);
    if t.stops.(!j) > !e then e := t.stops.(!j);
    incr j
  done;
  let absorbed = !j - lo in
  if absorbed = 0 then begin
    ensure_capacity t;
    Array.blit t.starts lo t.starts (lo + 1) (t.n - lo);
    Array.blit t.stops lo t.stops (lo + 1) (t.n - lo);
    t.starts.(lo) <- !s;
    t.stops.(lo) <- !e;
    t.n <- t.n + 1
  end
  else begin
    t.starts.(lo) <- !s;
    t.stops.(lo) <- !e;
    if !j < t.n then begin
      Array.blit t.starts !j t.starts (lo + 1) (t.n - !j);
      Array.blit t.stops !j t.stops (lo + 1) (t.n - !j)
    end;
    t.n <- t.n - absorbed + 1
  end

let insert t ~ready ~duration =
  let start = find_gap t ~ready ~duration in
  let finish = start + duration in
  if duration > 0 then add t start finish;
  (start, finish)

(* Append [start, stop) known to begin at or after every existing
   interval's start, coalescing with the last one when touching.  Feeding
   a timeline's committed intervals back in start order reproduces the
   normalized (sorted, disjoint, coalesced) arrays [add] maintains —
   normalization is canonical, so the rebuilt state is bit-identical no
   matter what order the intervals were originally committed in.  Used by
   prefix replay. *)
let append t start stop =
  if t.n > 0 && start <= t.stops.(t.n - 1) then begin
    if stop > t.stops.(t.n - 1) then t.stops.(t.n - 1) <- stop
  end
  else begin
    ensure_capacity t;
    t.starts.(t.n) <- start;
    t.stops.(t.n) <- stop;
    t.n <- t.n + 1
  end

let insert_preemptible ?on_commit t ~ready ~duration ~max_chunks ~chunk_penalty =
  if duration <= 0 then begin
    let start = find_gap t ~ready ~duration:0 in
    (start, start)
  end
  else begin
    let min_chunk = max 1 (duration / 4) in
    (* Walk the gaps from [ready], filling as much work as allowed; the
       chunks are only committed at the end, so the gap scan sees the
       pre-insertion timeline throughout (the resident work is what
       preempts the newcomer, never its own earlier chunks). *)
    let placed = ref [] in
    let chunks = ref 0 in
    let cursor = ref ready in
    let remaining = ref duration in
    let first_start = ref None in
    let note_first s = if !first_start = None then first_start := Some s in
    let i = ref 0 in
    let stop = ref false in
    while not !stop do
      if !chunks = max_chunks - 1 || !remaining <= 0 || !i >= t.n then stop := true
      else begin
        let s = t.starts.(!i) and e = t.stops.(!i) in
        if !cursor >= s then begin
          if e > !cursor then cursor := e;
          incr i
        end
        else begin
          let gap = s - !cursor in
          if gap >= !remaining then begin
            placed := (!cursor, !cursor + !remaining) :: !placed;
            note_first !cursor;
            cursor := !cursor + !remaining;
            remaining := 0
          end
          else if gap >= min_chunk then begin
            placed := (!cursor, !cursor + gap) :: !placed;
            note_first !cursor;
            remaining := !remaining - gap + chunk_penalty;
            incr chunks;
            cursor := e;
            incr i
          end
          else begin
            cursor := e;
            incr i
          end
        end
      end
    done;
    let finish =
      if !remaining > 0 then begin
        (* Tail (or whole) of the work runs after the scanned gaps. *)
        let start = find_gap t ~ready:!cursor ~duration:!remaining in
        placed := (start, start + !remaining) :: !placed;
        note_first start;
        start + !remaining
      end
      else !cursor
    in
    List.iter
      (fun (s, e) ->
        add t s e;
        match on_commit with Some f -> f s e | None -> ())
      (List.rev !placed);
    (Option.value ~default:finish !first_start, finish)
  end

let probe t ~ready ~duration =
  let start = find_gap t ~ready ~duration in
  (start, start + duration)
