(* Deterministic network fault injection: a kind table over
   [Runtime.Fault], armed process-wide so that the daemon and
   in-process clients share one fd-op sequence. [read]/[write] are
   drop-in replacements for [Unix.read]/[Unix.write] with a
   one-atomic-load fast path when disarmed; the framing layer
   ([Protocol]) routes every fd op through them. *)

type kind = Torn | Stall | Drop | Corrupt

let kind_to_string = function
  | Torn -> "torn"
  | Stall -> "stall"
  | Drop -> "drop"
  | Corrupt -> "corrupt"

(* No kind prefix rotates through all four kinds by op index, so one
   flag exercises every failure mode. *)
let kinds =
  {
    Runtime.Fault.name = "net fault";
    salt = "net.fault";
    prefixes =
      List.map
        (fun k -> (kind_to_string k, Some k))
        [ Torn; Stall; Drop; Corrupt ];
    default = None;
  }

type plan = kind option Runtime.Fault.spec

let armed : (kind option Runtime.Fault.t * float) option Atomic.t =
  Atomic.make None

(* The last armed plan, kept by [disarm] so that its injected count
   can be read after the faulted phase. *)
let last : kind option Runtime.Fault.t option Atomic.t = Atomic.make None

let arm ?(stall_s = 0.2) spec =
  let plan = Runtime.Fault.arm kinds spec in
  Atomic.set last (Some plan);
  Atomic.set armed (Some (plan, stall_s))

let disarm () = Atomic.set armed None
let is_armed () = Option.is_some (Atomic.get armed)

let injected () =
  match Atomic.get last with
  | Some plan -> Runtime.Fault.injected plan
  | None -> 0

(* Which fault (if any) hits this op, with the stall duration. *)
let roll () =
  match Atomic.get armed with
  | None -> None
  | Some (plan, stall_s) ->
      Option.map
        (fun (k, kind) ->
          let kind =
            match kind with
            | Some kind -> kind
            | None -> (
                match k mod 4 with
                | 0 -> Torn
                | 1 -> Stall
                | 2 -> Corrupt
                | _ -> Drop)
          in
          (kind, stall_s))
        (Runtime.Fault.roll plan)

(* ------------------------------------------------------------------ *)
(* Faulted fd ops. Torn truncates the op to one byte (exercising the
   callers' partial-I/O loops), Stall sleeps before the op (tripping
   the peer's deadline), Drop shuts the socket down and raises
   ECONNRESET (mid-frame disconnect), Corrupt flips one byte — in a
   copy on the write side so the caller's buffer is never mutated. *)

let drop fd op =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error (_, _, _) -> ());
  raise (Unix.Unix_error (Unix.ECONNRESET, op, "injected net fault"))

let corrupt_byte buf ofs len =
  if len > 0 then
    Bytes.set buf ofs (Char.chr (Char.code (Bytes.get buf ofs) lxor 0x20))

let read fd buf ofs len =
  match roll () with
  | None -> Unix.read fd buf ofs len
  | Some (Torn, _) -> Unix.read fd buf ofs (Int.min 1 len)
  | Some (Stall, stall_s) ->
      Thread.delay stall_s;
      Unix.read fd buf ofs len
  | Some (Drop, _) -> drop fd "read"
  | Some (Corrupt, _) ->
      let n = Unix.read fd buf ofs len in
      corrupt_byte buf ofs n;
      n

let write fd buf ofs len =
  match roll () with
  | None -> Unix.write fd buf ofs len
  | Some (Torn, _) -> Unix.write fd buf ofs (Int.min 1 len)
  | Some (Stall, stall_s) ->
      Thread.delay stall_s;
      Unix.write fd buf ofs len
  | Some (Drop, _) -> drop fd "write"
  | Some (Corrupt, _) ->
      let copy = Bytes.sub buf ofs len in
      corrupt_byte copy 0 len;
      Unix.write fd copy 0 len
