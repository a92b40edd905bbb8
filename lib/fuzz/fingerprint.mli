(** Stable identity of a fuzzing failure.

    Two failures are "the same bug" when their fingerprints are equal; the
    campaign buckets by fingerprint, the shrinker's keep-predicate is
    fingerprint preservation, and [minflo replay] succeeds iff the stored
    fingerprint reproduces. A fingerprint must therefore be a pure function
    of the failure's {e kind} — never of timings, addresses, iteration
    counts or float noise — so that the same defect on the same input maps
    to the same fingerprint on every run.

    The taxonomy is three-level:

    - [phase]: the oracle stage that observed the failure
      (["parse"], ["equivalence"], ["lint"], ["model"], ["sta"], ["engine"],
      ["check"], ["differential"], ["audit"], ["bounds"], ["dphase"],
      ["runner"]);
    - [code]: the stable machine tag within the phase — a
      {!Minflo_robust.Diag.error_code}, a lint/audit rule id (["MF001"],
      ["MF103"], …), or one of the harness's own tags (["crash"],
      ["hang"], ["fault-injected"], ["roundtrip-mismatch"]);
    - [detail]: the discriminator that separates distinct bugs sharing a
      code — the invariant name, the fault site, the solver pair. May be
      empty. *)

type t = {
  phase : string;
  code : string;
  detail : string;
}

val make : ?detail:string -> phase:string -> code:string -> unit -> t

val of_error : phase:string -> Minflo_robust.Diag.error -> t
(** [code] is {!Minflo_robust.Diag.error_code}; [detail] is the error's
    most discriminating stable field (lint rule, invariant name, fault
    site, solver pair, diverged solver) — never a numeric payload. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic on (phase, code, detail); total order for bucketing. *)

val to_string : t -> string
(** ["phase/code"] or ["phase/code/detail"]. Inverse of {!of_string}. *)

val of_string : string -> t option
(** Splits on ['/']: first two fields are phase and code, the rest (which
    may itself contain ['/']) is the detail. [None] without at least
    "phase/code". *)

val slug : t -> string
(** {!to_string} with every character outside [[A-Za-z0-9._-]] replaced by
    ['-']: safe as a corpus file name. *)
