(** On-disk minimal reproducers.

    A repro file is everything [minflo replay] needs to re-run a failure
    bit-deterministically: the fingerprint it must reproduce, the campaign
    case seed it came from (provenance only — the netlist itself is
    stored, not re-generated), the full oracle configuration (floats
    spelled with {!Minflo_util.Json.of_float}, so they round-trip
    bit-exactly), and the shrunk netlist as canonical [.bench] text. The
    file is one versioned JSON object on one line (shown wrapped here):

    {v
    {"format":"minflo-repro","version":2,
     "fingerprint":"engine/fault-injected/dphase.simplex","seed":1042,
     "target_factor":0.6,"dw_iterations":12,"budget_iterations":4000,
     "budget_pivots":2000000,"solvers":["simplex","ssp"],
     "differential":true,"tolerance":0.02,"fault_site":"dphase.simplex",
     "fault_seed":0,"netlist":"# fz_...\nINPUT(a)\n..."}
    v}

    The file name is ["<fingerprint-slug>-<seed>.repro"] — stable and
    collision-free within a campaign (one repro per fresh fingerprint).
    Writes are atomic (tmp + rename), like checkpoints. *)

type repro = {
  fingerprint : Fingerprint.t;
  seed : int;                  (** campaign case seed (provenance). *)
  config : Oracle.config;
  netlist : Minflo_netlist.Netlist.t;
}

val save : dir:string -> repro -> (string, Minflo_robust.Diag.error) result
(** Writes atomically under [dir] (created if missing) and returns the
    full path. [Io_error] when [dir] cannot be created. *)

val load : string -> (repro, Minflo_robust.Diag.error) result
(** Typed failures: [Io_error] on unreadable files,
    [Checkpoint_invalid] on a truncated or non-JSON file (a line-oriented
    version 1 repro included), bad magic or version, or a missing or
    malformed field, [Parse_error] on a corrupt embedded netlist. *)

val list : string -> string list
(** The [.repro] files under a directory, sorted; [] if the directory does
    not exist. *)
