//! Structured diagnostics: every analysis pass reports its findings as
//! [`Diagnostic`] values — severity, a stable code, a location into the
//! program's states/rules/registers, a message, and a fix hint — so the
//! same finding renders as a human-readable line, a table row, or a JSONL
//! record without the pass knowing which.
//!
//! ## Code taxonomy
//!
//! | prefix | pass | codes |
//! |--------|------|-------|
//! | `DS` | control flow (dead states/rules) | `DS001` unreachable state, `DS002` state cannot reach the final state, `DS003` final state unreachable |
//! | `OV` | guard overlap | `OV001` overlapping guards (witness), `OV002` exclusivity unproven, `OV003` unsatisfiable guard |
//! | `RG` | store analysis | `RG001` register written but never read, `RG002` register read but never written, `RG003` relation arity mismatch at use |
//! | `PR` | progress | `PR001` stay-loop (definite divergence), `PR002` head-pinned cycle with store growth, `PR003` relational growth in a cycle |
//! | `CL` | class inference | `CL001` class violation against a required class |

use std::fmt;

use twq_automata::{State, TwProgram};
use twq_logic::RegId;
use twq_obs::Json;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: worth knowing, nothing need change.
    Info,
    /// The program very likely does not mean this (dead code, guaranteed
    /// rejection, wasted work).
    Warning,
    /// The program is wrong for its intended use (always-false atom,
    /// class violation); evaluators reject on these.
    Error,
}

impl Severity {
    /// Lower-case name, as printed and serialized.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the program a finding points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// The program as a whole.
    Program,
    /// A state.
    State(State),
    /// A rule, by index into [`TwProgram::rules`].
    Rule(usize),
    /// Two rules that interact (overlap analysis).
    RulePair(usize, usize),
    /// A register.
    Register(RegId),
}

impl Loc {
    /// Render the location against the program it points into.
    pub fn render(&self, prog: &TwProgram) -> String {
        match *self {
            Loc::Program => "program".to_owned(),
            Loc::State(q) => format!("state {}", prog.state_name(q)),
            Loc::Rule(i) => format!(
                "rule #{i} (state {})",
                prog.state_name(prog.rules()[i].state)
            ),
            Loc::RulePair(i, j) => format!(
                "rules #{i}/#{j} (state {})",
                prog.state_name(prog.rules()[i].state)
            ),
            Loc::Register(r) => format!("register {r}"),
        }
    }
}

/// One finding from one analysis pass.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Stable taxonomy code (`DS001`, `OV003`, …); tests and allowlists
    /// key on this, never on message text.
    pub code: &'static str,
    /// Where the finding points.
    pub loc: Loc,
    /// What was found.
    pub message: String,
    /// How to fix it (or make it go away).
    pub hint: String,
}

impl Diagnostic {
    /// Construct a finding.
    pub fn new(
        severity: Severity,
        code: &'static str,
        loc: Loc,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity,
            code,
            loc,
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// One human-readable line, e.g.
    /// `warning[DS001] state q3: unreachable from the initial state (prune() removes it)`.
    pub fn render(&self, prog: &TwProgram) -> String {
        format!(
            "{}[{}] {}: {} ({})",
            self.severity,
            self.code,
            self.loc.render(prog),
            self.message,
            self.hint
        )
    }

    /// The JSONL record for the finding, as an `obs::json` object.
    pub fn to_json(&self, prog: &TwProgram) -> Json {
        Json::obj([
            ("severity", Json::str(self.severity.name())),
            ("code", Json::str(self.code)),
            ("loc", Json::str(self.loc.render(prog))),
            ("message", Json::str(self.message.clone())),
            ("hint", Json::str(self.hint.clone())),
        ])
    }
}

/// Count diagnostics at each severity: `(errors, warnings, infos)`.
pub fn severity_counts(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Error => c.0 += 1,
            Severity::Warning => c.1 += 1,
            Severity::Info => c.2 += 1,
        }
    }
    c
}
