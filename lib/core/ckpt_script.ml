open Simkit.Types

type ord = Partial of int | Full of int * int

let show_ord = function
  | Partial c -> Printf.sprintf "(%d)" c
  | Full (c, g) -> Printf.sprintf "(%d,g%d)" c g

type action = Do_units of int * int | Bcast of ord * pid list

let script_rounds script =
  List.fold_left
    (fun acc -> function
      | Do_units (lo, hi) -> acc + (hi - lo)
      | Bcast _ -> acc + 1)
    0 script

type last = No_msg | Last_ord of { ord : ord; src : pid }

let c_of_last = function
  | No_msg -> 0
  | Last_ord { ord = Partial c; _ } | Last_ord { ord = Full (c, _); _ } -> c

(* [above] = [Grid.members_above grid j], shared by a script's broadcasts
   (scripts live long; a copy per checkpoint cost group-size words each). *)
let partial_ckpt above c = [ Bcast (Partial c, above) ]

let full_ckpt grid above c l =
  let num_groups = Grid.n_groups grid in
  let rec go g acc =
    if g > num_groups then List.rev acc
    else
      go (g + 1)
        (Bcast (Full (c, g), above) :: Bcast (Full (c, g), Grid.members grid g) :: acc)
  in
  go l []

let work_from grid ~gj ~above from_sub =
  let last_sub = Grid.n_subchunks grid in
  let rec go c acc =
    if c > last_sub then List.concat (List.rev acc)
    else
      let lo, hi = Grid.subchunk_range grid c in
      let units = if hi > lo then [ Do_units (lo, hi) ] else [] in
      let ckpts =
        partial_ckpt above c
        @ if Grid.is_chunk_end grid c then full_ckpt grid above c (gj + 1) else []
      in
      go (c + 1) ((units @ ckpts) :: acc)
  in
  go from_sub []

let work_script grid j from_sub =
  work_from grid ~gj:(Grid.group_of grid j) ~above:(Grid.members_above grid j)
    from_sub

let takeover_script grid j last =
  let gj = Grid.group_of grid j in
  let above = Grid.members_above grid j in
  match last with
  | No_msg ->
      (* An empty "(0)" partial checkpoint keeps the invariant that the first
         takeover action is an own-group broadcast (Protocol B's fictitious
         round-0 message makes this case unreachable there, but Protocol A
         reaches it when a process saw no message at all). *)
      partial_ckpt above 0 @ work_from grid ~gj ~above 1
  | Last_ord { ord = Partial c; _ } ->
      partial_ckpt above c
      @ (if c > 0 && c mod Grid.group_size grid = 0 then full_ckpt grid above c (gj + 1)
         else [])
      @ work_from grid ~gj ~above (c + 1)
  | Last_ord { ord = Full (c, g); src } ->
      let prologue =
        if Grid.group_of grid src <> gj then
          (* the sender was informing my whole group (g = g_j): spread the
             news in my remainder, then continue the full checkpoint with
             the next group *)
          partial_ckpt above c @ full_ckpt grid above c (g + 1)
        else
          (* the sender was echoing to our group that group g was informed:
             re-echo, then continue from group g+1 *)
          Bcast (Full (c, g), above) :: full_ckpt grid above c (g + 1)
      in
      prologue @ work_from grid ~gj ~above (c + 1)

let knows_all_done grid j last =
  let last_sub = Grid.n_subchunks grid in
  match last with
  | No_msg -> false
  | Last_ord { ord = Partial c; _ } -> c = last_sub
  | Last_ord { ord = Full (c, g); _ } -> c = last_sub && g = Grid.group_of grid j

let run_active ~inject ?(map_dst = Fun.id) ?(map_unit = Fun.id) r script =
  match script with
  | [] -> { state = []; sends = []; work = []; terminate = true; wakeup = None }
  | Do_units (lo, hi) :: rest ->
      (* one unit per round, exactly as the per-unit actions did *)
      let rest = if lo + 1 < hi then Do_units (lo + 1, hi) :: rest else rest in
      {
        state = rest;
        sends = [];
        work = [ map_unit lo ];
        terminate = rest = [];
        wakeup = Some (r + 1);
      }
  | Bcast (m, dsts) :: rest ->
      (* one payload value for the whole broadcast *)
      let payload = inject m in
      {
        state = rest;
        sends = List.map (fun dst -> { dst = map_dst dst; payload }) dsts;
        work = [];
        terminate = rest = [];
        wakeup = Some (r + 1);
      }
