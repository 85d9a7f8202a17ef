(** Deterministic network fault injection for chaos testing.

    A kind table over [Runtime.Fault] (salt ["net.fault"]). Unlike the
    solver and disk plans, which an engine and a cache carry, this plan
    is process-wide: one armed plan and one fd-op counter, so that it
    faults the daemon and any in-process clients alike. {!read} and
    {!write} are drop-in replacements for [Unix.read]/[Unix.write]
    with a one-atomic-load fast path when disarmed; [Protocol]'s
    framing routes every fd op through them.

    Fault kinds:
    - [Torn] — the op is truncated to one byte, exercising the
      callers' partial-I/O loops.
    - [Stall] — the op sleeps first, tripping the peer's read/write
      deadline.
    - [Drop] — the socket is shut down and the op raises
      [ECONNRESET]: a mid-frame disconnect.
    - [Corrupt] — one byte is flipped (in a copy on the write side;
      the caller's buffer is never mutated), producing garbage frame
      lengths and malformed JSON downstream. *)

type kind = Torn | Stall | Drop | Corrupt

val kind_to_string : kind -> string

val kinds : kind option Runtime.Fault.kinds
(** Prefixes [torn:|stall:|drop:|corrupt:]; no prefix ([None]) rotates
    through all four kinds by op index, so a single flag exercises
    every failure mode. *)

type plan = kind option Runtime.Fault.spec
(** Parsed by [Runtime.Fault.parse kinds] — e.g. ["0.05@7"],
    ["drop:nth:3"], ["stall:0.1"]. *)

val arm : ?stall_s:float -> plan -> unit
(** Arm a fresh plan process-wide, at op index 0. [stall_s] (default
    0.2) is the [Stall] sleep. *)

val disarm : unit -> unit
val is_armed : unit -> bool

val injected : unit -> int
(** Fd ops faulted by the last armed plan, also after {!disarm}. *)

val read : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.read] through the fault plan. *)

val write : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.write] through the fault plan. *)
