(** Seeded fuzzing campaigns: generate → oracle → triage → shrink → corpus.

    A campaign derives one case seed per iteration from the campaign seed,
    builds each case with {!Gen_mut}, pushes it through the {!Oracle}
    (optionally inside the batch runner's fork/timeout supervisor, so a
    hang or hard crash in the stack becomes a fingerprinted failure
    instead of taking the campaign down), and buckets every failure by
    {!Fingerprint}. Buckets whose fingerprint is {e fresh} — in neither
    the caller's known list nor the existing corpus — are shrunk by
    {!Shrink} to a minimal reproducer, written to the corpus directory,
    and replayed twice to certify determinism.

    Everything is deterministic from [config]: same seed, same cases, same
    buckets, same repro files (supervised runs add only the possibility of
    [runner/hang] under a wall-clock timeout — the one deliberately
    non-deterministic escape hatch, off by default). *)

type config = {
  seed : int;
  iterations : int;
  oracle : Oracle.config;
  profile : Gen_mut.profile;
  corpus_dir : string option;
      (** where fresh repros go; also scanned for known fingerprints. *)
  known : string list;
      (** extra fingerprint strings to treat as already-triaged. *)
  shrink : bool;
  shrink_checks : int;  (** oracle evaluations the shrinker may spend. *)
  isolate : bool;       (** run each case in a supervised child process. *)
  timeout_seconds : float option;  (** per-case kill when isolated. *)
}

type bucket = {
  fingerprint : Fingerprint.t;
  count : int;           (** failing cases in this bucket. *)
  first_seed : int;      (** case seed of the first exhibit. *)
  info : string;         (** the first exhibit's human-readable detail. *)
  fresh : bool;
  repro_path : string option;  (** written iff fresh and a corpus is set. *)
  shrunk_gates : int option;   (** gate count of the written reproducer. *)
  replay_deterministic : bool option;
      (** the shrunk repro's oracle run, executed twice, produced
          identical fingerprint lists; [None] when not replayable
          in-process (runner/* buckets). *)
}

type report = {
  cases : int;
  failing_cases : int;
  buckets : bucket list;  (** in {!Fingerprint.compare} order. *)
  fresh : int;            (** buckets with [fresh = true]. *)
}

val run : ?progress:(int -> unit) -> config -> report
(** [progress] is called with each completed 0-based case index. *)

type replay_outcome = {
  repro : Corpus.repro;
  observed : Fingerprint.t list;
  reproduced : bool;      (** stored fingerprint is among [observed]. *)
  deterministic : bool;   (** two back-to-back runs agreed exactly. *)
}

val replay : string -> (replay_outcome, Minflo_robust.Diag.error) result
(** Load a repro file and re-run its oracle twice. *)
