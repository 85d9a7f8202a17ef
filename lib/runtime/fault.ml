(* Seeded fault plans shared by the solver, disk-cache and network
   injectors: one grammar, one counter discipline, one digest roll. *)

type selector = Nth of int | Fraction of { rate : float; seed : int }
type 'k spec = { kind : 'k; sel : selector }

type 'k kinds = {
  name : string;
  salt : string;
  prefixes : (string * 'k) list;
  default : 'k;
}

let strip_prefix p s =
  let pl = String.length p in
  if String.length s > pl && String.sub s 0 pl = p then
    Some (String.sub s pl (String.length s - pl))
  else None

let parse kinds s =
  let kind, rest =
    match
      List.find_map
        (fun (p, k) -> Option.map (fun r -> (k, r)) (strip_prefix (p ^ ":") s))
        kinds.prefixes
    with
    | Some kr -> kr
    | None -> (kinds.default, s)
  in
  let sel =
    match strip_prefix "nth:" rest with
    | Some num -> (
        match int_of_string_opt num with
        | Some n when n >= 0 -> Some (Nth n)
        | _ -> None)
    | None -> (
        let rate_s, seed_s =
          match String.index_opt rest '@' with
          | Some i ->
              ( String.sub rest 0 i,
                String.sub rest (i + 1) (String.length rest - i - 1) )
          | None -> (rest, "0")
        in
        match (float_of_string_opt rate_s, int_of_string_opt seed_s) with
        | Some rate, Some seed when rate >= 0.0 && rate <= 1.0 ->
            Some (Fraction { rate; seed })
        | _ -> None)
  in
  match sel with
  | Some sel -> Ok { kind; sel }
  | None ->
      let prefixes =
        match kinds.prefixes with
        | [] -> ""
        | ps ->
            "[" ^ String.concat "|" (List.map (fun (p, _) -> p ^ ":") ps) ^ "]"
      in
      Error
        (Printf.sprintf
           "bad %s spec %S: want %s(nth:N | RATE[@SEED]) with N >= 0 and RATE \
            in [0,1]"
           kinds.name s prefixes)

(* MD5 is plenty fast next to a solve or an fd op, and identical on
   every platform. *)
let digest48 ~salt seed i =
  let d = Digest.string (Printf.sprintf "%s:%d:%d" salt seed i) in
  let x = ref 0 in
  for k = 0 to 5 do
    x := (!x lsl 8) lor Char.code d.[k]
  done;
  !x

let uniform ~salt seed i =
  float_of_int (digest48 ~salt seed i) /. float_of_int (1 lsl 48)

type 'k t = {
  salt : string;
  spec : 'k spec;
  ops : int Atomic.t;
  injected : int Atomic.t;
}

let arm (kinds : _ kinds) spec =
  { salt = kinds.salt; spec; ops = Atomic.make 0; injected = Atomic.make 0 }

let injected t = Atomic.get t.injected

let roll t =
  let k = Atomic.fetch_and_add t.ops 1 in
  let hit =
    match t.spec.sel with
    | Nth n -> k = n
    | Fraction { rate; seed } -> uniform ~salt:t.salt seed k < rate
  in
  if hit then begin
    Atomic.incr t.injected;
    Some (k, t.spec.kind)
  end
  else None
