type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

type t = { id : string; severity : severity; name : string; summary : string }

let mf000_syntax =
  { id = "MF000";
    severity = Error;
    name = "syntax-error";
    summary = "The file could not be parsed as a .bench or Verilog netlist." }

let mf001_cycle =
  { id = "MF001";
    severity = Error;
    name = "combinational-cycle";
    summary =
      "Gates form a combinational feedback loop; static timing is undefined." }

let mf002_multi_driven =
  { id = "MF002";
    severity = Error;
    name = "multi-driven-net";
    summary = "A signal is driven by more than one gate, or by a gate and a \
               primary input." }

let mf003_undriven =
  { id = "MF003";
    severity = Error;
    name = "undriven-net";
    summary = "A signal is used as a fanin or output but is neither a primary \
               input nor driven by any gate." }

let mf004_dangling_input =
  { id = "MF004";
    severity = Warning;
    name = "dangling-input";
    summary = "A primary input drives nothing and is not an output." }

let mf005_dead_gate =
  { id = "MF005";
    severity = Warning;
    name = "dead-gate";
    summary = "No primary output is reachable from this gate; it cannot \
               affect the circuit function." }

let mf006_duplicate_decl =
  { id = "MF006";
    severity = Error;
    name = "duplicate-declaration";
    summary = "The same signal is declared as a primary input more than once." }

let mf007_fanout_bound =
  { id = "MF007";
    severity = Warning;
    name = "fanout-bound";
    summary = "A signal's fanout exceeds the configured bound." }

let mf008_tech_coverage =
  { id = "MF008";
    severity = Error;
    name = "tech-coverage";
    summary = "Gate arity exceeds the technology's widest series transistor \
               stack; no cell exists for it." }

let mf009_empty_interface =
  { id = "MF009";
    severity = Error;
    name = "empty-interface";
    summary = "The circuit declares no primary inputs or no primary outputs." }

let mf010_bad_arity =
  { id = "MF010";
    severity = Error;
    name = "bad-arity";
    summary = "A gate has too few or too many fanins for its kind." }

let mf101_flow_bounds =
  { id = "MF101";
    severity = Error;
    name = "flow-capacity";
    summary = "An arc's flow is negative or exceeds its capacity." }

let mf102_conservation =
  { id = "MF102";
    severity = Error;
    name = "flow-conservation";
    summary = "A node's net outflow does not equal its supply." }

let mf103_slackness =
  { id = "MF103";
    severity = Error;
    name = "complementary-slackness";
    summary = "The flow and the node potentials violate complementary \
               slackness; the certificate does not prove optimality." }

let mf104_objective =
  { id = "MF104";
    severity = Error;
    name = "objective-mismatch";
    summary = "The reported objective differs from the cost of the returned \
               flow." }

let mf105_not_optimal =
  { id = "MF105";
    severity = Warning;
    name = "non-optimal-status";
    summary = "The solver did not report Optimal; the certificate checks are \
               vacuous." }

let mf201_infeasible_target =
  { id = "MF201";
    severity = Error;
    name = "infeasible-target";
    summary = "The delay target is below the interval-bound lower bound on \
               the circuit delay; no sizing can meet it." }

let mf202_pinned_gate =
  { id = "MF202";
    severity = Info;
    name = "pinned-gate";
    summary = "Every feasible sizing holds this gate at (or within tolerance \
               of) its best-case configuration: the target leaves it no \
               sizing freedom." }

let mf203_slack_irrelevant =
  { id = "MF203";
    severity = Info;
    name = "slack-irrelevant-gate";
    summary = "Every path through this gate meets the target even at the \
               worst-case sizing; it can be frozen at minimum size." }

let mf204_tech_non_monotone =
  { id = "MF204";
    severity = Warning;
    name = "tech-non-monotone";
    summary = "A gate-model entry is non-positive or decreases as the arity \
               grows; the monotonicity the bound analysis (and TILOS) relies \
               on does not hold." }

let mf210_trace_malformed =
  { id = "MF210";
    severity = Error;
    name = "trace-malformed";
    summary = "An engine trace record is missing, truncated, out of order, \
               or not valid JSON." }

let mf211_trace_claim =
  { id = "MF211";
    severity = Error;
    name = "trace-claim-mismatch";
    summary = "A claimed area, delay or objective in the trace differs from \
               its independent recomputation from the recorded sizes." }

let mf212_trace_budget =
  { id = "MF212";
    severity = Error;
    name = "trace-budget-violation";
    summary = "The recorded W-phase sizes do not meet the recorded D-phase \
               delay budgets within tolerance." }

let mf213_trace_progress =
  { id = "MF213";
    severity = Error;
    name = "trace-nonmonotone-progress";
    summary = "The engine claims monotone area descent but a recorded \
               iteration does not improve on its predecessor." }

let mf214_trace_final =
  { id = "MF214";
    severity = Error;
    name = "trace-infeasible-final";
    summary = "The final sizing fails an independent STA against the target, \
               is out of bounds, or contradicts the recorded run." }

let mf215_trace_lp =
  { id = "MF215";
    severity = Error;
    name = "trace-lp-mismatch";
    summary = "A recorded displacement LP differs from the one independently \
               rebuilt from the circuit at the recorded sizes (tampered \
               costs, arcs or supplies)." }

let all =
  [ mf000_syntax; mf001_cycle; mf002_multi_driven; mf003_undriven;
    mf004_dangling_input; mf005_dead_gate; mf006_duplicate_decl;
    mf007_fanout_bound; mf008_tech_coverage; mf009_empty_interface;
    mf010_bad_arity; mf101_flow_bounds; mf102_conservation; mf103_slackness;
    mf104_objective; mf105_not_optimal; mf201_infeasible_target;
    mf202_pinned_gate; mf203_slack_irrelevant; mf204_tech_non_monotone;
    mf210_trace_malformed; mf211_trace_claim; mf212_trace_budget;
    mf213_trace_progress; mf214_trace_final; mf215_trace_lp ]
