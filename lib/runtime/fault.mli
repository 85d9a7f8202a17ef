(** Deterministic, seeded fault plans: the one mechanism behind every
    fault injector in the repo.

    A plan picks which operations fail by their op index alone: the
    [N]th, or a seeded pseudo-random fraction whose per-op decision is
    a salted MD5 digest of [(seed, index)]. It never looks at
    wall-clock time or scheduling, so a given (plan, op sequence)
    faults the same ops on every run.

    Three injectors are kind tables over this module, each with its
    own salt and scope:
    - the solver plan ([--inject-faults], salt ["tran.fault"]) is
      carried by a [Runtime.Engine] and rolled before each transient
      solve;
    - the disk plan ([--inject-cache-faults], salt ["cache.fault"]) is
      carried by the [Runtime.Cache] whose disk ops it fails;
    - the network plan ([--inject-net-faults], salt ["net.fault"]) is
      process-wide ([Server.Netfault]), so that it faults the daemon
      and in-process clients alike. *)

type selector =
  | Nth of int  (** fail op number [n] (0-based) *)
  | Fraction of { rate : float; seed : int }
      (** fail a seeded pseudo-random fraction [rate] of the ops *)

type 'k spec = { kind : 'k; sel : selector }

(** An injector's vocabulary: its name in error messages, its digest
    salt, its kind prefixes and the kind a spec without a prefix
    takes. *)
type 'k kinds = {
  name : string;
  salt : string;
  prefixes : (string * 'k) list;
  default : 'k;
}

val parse : 'k kinds -> string -> ('k spec, string) result
(** Parse [[KIND:]("nth:"N | RATE["@"SEED])] where [KIND] is one of
    the table's prefixes, [N >= 0], [RATE] is in [\[0, 1\]] and [SEED]
    defaults to 0 — e.g. ["0.1@7"], ["nth:3"], ["nan:0.05@2"]. The
    error names the grammar. *)

val digest48 : salt:string -> int -> int -> int
(** [digest48 ~salt seed i]: the first 48 bits of the MD5 of
    ["salt:seed:i"], a uniform integer in [\[0, 2^48)]. *)

val uniform : salt:string -> int -> int -> float
(** [digest48] scaled to [\[0, 1)]; a [Fraction] plan fails op [i]
    when [uniform ~salt seed i < rate]. *)

type 'k t
(** An armed plan: a spec plus its op counter and injected count,
    both atomic so that concurrent domains share one op sequence. *)

val arm : 'k kinds -> 'k spec -> 'k t
(** A fresh plan at op index 0. *)

val roll : 'k t -> (int * 'k) option
(** Take the next op index; [Some (index, kind)] when the plan fails
    that op. *)

val injected : 'k t -> int
(** Ops this plan has failed so far. *)
