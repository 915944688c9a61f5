module Json = Rsin_util.Json

type shed_policy = Drop_tail | Deadline_aware

type t = {
  queue_bound : int;
  shed_policy : shed_policy;
  retry_base : int;
  retry_cap : int;
  retry_jitter : int;
  retry_budget : int;
  seed : int;
  flap_k : int;
  flap_window : int;
  quarantine_slots : int;
}

let make ?(queue_bound = 64) ?(shed_policy = Drop_tail) ?(retry_base = 1)
    ?(retry_cap = 64) ?(retry_jitter = 3) ?(retry_budget = 8) ?(seed = 0x9a)
    ?(flap_k = 3) ?(flap_window = 50) ?(quarantine_slots = 100) () =
  let err fmt = Printf.ksprintf (fun m -> Error ("Guard.Policy: " ^ m)) fmt in
  if queue_bound < 0 then err "queue_bound must be >= 0 (0 = unbounded)"
  else if retry_base < 1 then err "retry_base must be >= 1"
  else if retry_cap < retry_base then err "retry_cap must be >= retry_base"
  else if retry_jitter < 0 then err "retry_jitter must be >= 0"
  else if retry_budget < 0 then err "retry_budget must be >= 0"
  else if flap_k < 0 then err "flap_k must be >= 0 (0 = quarantine off)"
  else if flap_window < 1 then err "flap_window must be >= 1"
  else if quarantine_slots < 1 then err "quarantine_slots must be >= 1"
  else
    Ok
      { queue_bound; shed_policy; retry_base; retry_cap; retry_jitter;
        retry_budget; seed; flap_k; flap_window; quarantine_slots }

let v ?queue_bound ?shed_policy ?retry_base ?retry_cap ?retry_jitter
    ?retry_budget ?seed ?flap_k ?flap_window ?quarantine_slots () =
  match
    make ?queue_bound ?shed_policy ?retry_base ?retry_cap ?retry_jitter
      ?retry_budget ?seed ?flap_k ?flap_window ?quarantine_slots ()
  with
  | Ok t -> t
  | Error m -> invalid_arg m

let default = v ()

let shed_policy_to_string = function
  | Drop_tail -> "drop-tail"
  | Deadline_aware -> "deadline-aware"

let shed_policies = [ ("drop-tail", Drop_tail); ("deadline-aware", Deadline_aware) ]

let to_json t =
  Json.Obj
    [ ("queue_bound", Json.Num (float_of_int t.queue_bound));
      ("shed_policy", Json.Str (shed_policy_to_string t.shed_policy));
      ("retry_base", Json.Num (float_of_int t.retry_base));
      ("retry_cap", Json.Num (float_of_int t.retry_cap));
      ("retry_jitter", Json.Num (float_of_int t.retry_jitter));
      ("retry_budget", Json.Num (float_of_int t.retry_budget));
      ("seed", Json.Num (float_of_int t.seed));
      ("flap_k", Json.Num (float_of_int t.flap_k));
      ("flap_window", Json.Num (float_of_int t.flap_window));
      ("quarantine_slots", Json.Num (float_of_int t.quarantine_slots)) ]

(* Every field is optional; absent or null means the default. *)
let of_json j =
  let open Json.Decode in
  let int_or k default =
    let+ v = field_opt k int j in
    Option.value v ~default
  in
  let d = default in
  let decoded =
    let* queue_bound = int_or "queue_bound" d.queue_bound in
    let* retry_base = int_or "retry_base" d.retry_base in
    let* retry_cap = int_or "retry_cap" d.retry_cap in
    let* retry_jitter = int_or "retry_jitter" d.retry_jitter in
    let* retry_budget = int_or "retry_budget" d.retry_budget in
    let* seed = int_or "seed" d.seed in
    let* flap_k = int_or "flap_k" d.flap_k in
    let* flap_window = int_or "flap_window" d.flap_window in
    let* quarantine_slots = int_or "quarantine_slots" d.quarantine_slots in
    let+ shed_policy = field_opt "shed_policy" (enum shed_policies) j in
    make ~queue_bound
      ~shed_policy:(Option.value shed_policy ~default:d.shed_policy)
      ~retry_base ~retry_cap ~retry_jitter ~retry_budget ~seed ~flap_k
      ~flap_window ~quarantine_slots ()
  in
  match decoded with
  | Ok r -> r
  | Error e -> Error ("Guard.Policy: " ^ to_string e)
