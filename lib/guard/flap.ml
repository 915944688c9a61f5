module Json = Rsin_util.Json
module Fault = Rsin_fault.Fault

type t = {
  policy : Policy.t;
  history : (Fault.element, int list) Hashtbl.t;  (* fault slots, newest first *)
  quarantined : (Fault.element, int) Hashtbl.t;   (* element -> release slot *)
}

let create policy = { policy; history = Hashtbl.create 16; quarantined = Hashtbl.create 8 }

let is_quarantined t e = Hashtbl.mem t.quarantined e

let release t e = Hashtbl.remove t.quarantined e

let record_fault t ~now e =
  if t.policy.Policy.flap_k = 0 || is_quarantined t e then None
  else begin
    let keep = now - t.policy.Policy.flap_window + 1 in
    let recent =
      now
      :: List.filter
           (fun s -> s >= keep)
           (Option.value ~default:[] (Hashtbl.find_opt t.history e))
    in
    if List.length recent >= t.policy.Policy.flap_k then begin
      Hashtbl.remove t.history e;
      let until = now + t.policy.Policy.quarantine_slots in
      Hashtbl.replace t.quarantined e until;
      Some until
    end
    else begin
      Hashtbl.replace t.history e recent;
      None
    end
  end

(* Canonical element order: links, then boxes, then resources, by index
   — keeps snapshots byte-stable across hashtable layouts. *)
let elt_rank = function
  | Fault.Link i -> (0, i)
  | Fault.Box i -> (1, i)
  | Fault.Res i -> (2, i)

let compare_elt a b = compare (elt_rank a) (elt_rank b)

let active t =
  Hashtbl.fold (fun e until acc -> (e, until) :: acc) t.quarantined []
  |> List.sort (fun (a, _) (b, _) -> compare_elt a b)

let elt_to_json e = Json.Obj (Fault.element_to_json e)

let to_json t =
  let history =
    Hashtbl.fold (fun e slots acc -> (e, slots) :: acc) t.history []
    |> List.sort (fun (a, _) (b, _) -> compare_elt a b)
    |> List.map (fun (e, slots) ->
           Json.Obj
             [ ("element", elt_to_json e);
               ("slots",
                Json.Arr (List.map (fun s -> Json.Num (float_of_int s)) slots)) ])
  in
  let quarantined =
    List.map
      (fun (e, until) ->
        Json.Obj
          [ ("element", elt_to_json e); ("until", Json.Num (float_of_int until)) ])
      (active t)
  in
  Json.Obj [ ("history", Json.Arr history); ("quarantined", Json.Arr quarantined) ]

let of_json policy j =
  let open Json.Decode in
  let t = create policy in
  (* Entries fill [t] as they decode; on an error [t] is dropped. *)
  let entries k d = Result.map ignore (field_opt k (list d) j) in
  let decoded =
    let* () =
      entries "history" (fun hj ->
          let* e = field "element" Fault.decode_element hj in
          let+ slots = field "slots" (list int) hj in
          Hashtbl.replace t.history e slots)
    in
    entries "quarantined" (fun qj ->
        let* e = field "element" Fault.decode_element qj in
        let+ until = field "until" int qj in
        Hashtbl.replace t.quarantined e until)
  in
  match decoded with
  | Ok () -> Ok t
  | Error e -> Error ("Guard.Flap: " ^ to_string e)
