(** SARIF 2.1.0 output.

    Renders findings as a Static Analysis Results Interchange Format log —
    the schema GitHub code scanning ingests — with one [run], the full rule
    catalog in [tool.driver.rules], and one [result] per finding with
    [ruleId], [ruleIndex], [level], and a [physicalLocation] when the
    finding has a source position. *)

val render : Finding.t list -> string
(** A complete SARIF 2.1.0 JSON document on one line, printed with
    {!Minflo_util.Json.to_string} (UTF-8, trailing newline). *)
