//! The rule catalog and engine.
//!
//! Each rule is a function over the loaded [`Workspace`] that emits
//! findings through [`emit`], which routes them through the file's
//! inline suppressions. After every rule has run, the `lint-directive`
//! meta-rule audits the directives themselves: malformed, unknown-rule,
//! and unused suppressions are findings, so allows cannot rot.

pub mod determinism;
pub mod hot_loop;
pub mod panic_path;
pub mod schema;
pub mod sweep_axes;
pub mod test_only_pub;
pub mod vendor;

use crate::report::{Finding, Report, Suppressed};
use crate::source::{SourceFile, Workspace};

/// Every rule the lint ships, in report-catalog order.
pub const RULES: &[&str] = &[
    "panic-in-hot-path",
    "per-bit-hot-loop",
    "schema-coherence",
    "sweep-axis-completeness",
    "determinism",
    "vendor-hygiene",
    "test-only-pub",
    "lint-directive",
];

/// Runs every rule, then the directive audit.
pub fn run_all(ws: &Workspace, report: &mut Report) {
    panic_path::check(ws, report);
    hot_loop::check(ws, report);
    schema::check(ws, report);
    sweep_axes::check(ws, report);
    determinism::check(ws, report);
    vendor::check(ws, report);
    test_only_pub::check(ws, report);
    audit_directives(ws, report);
}

/// The lint does not lint itself: its sources and docs necessarily
/// spell out the very patterns the rules hunt (directive grammars,
/// panic tokens, schema literals), and its fixture corpus is seeded
/// with violations. Rules skip these files; the schema rule still
/// reads `report.rs` explicitly for the `btr-lint-v1` canonical value.
#[must_use]
pub fn exempt(file: &SourceFile) -> bool {
    file.rel.starts_with("crates/analysis/")
}

/// Routes a violation through the file's suppressions.
pub fn emit(
    report: &mut Report,
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) {
    let finding = Finding {
        rule,
        path: file.rel.clone(),
        line,
        message,
    };
    if let Some(reason) = file.suppression(rule, line) {
        report.suppressed.push(Suppressed { finding, reason });
    } else {
        report.findings.push(finding);
    }
}

/// The `lint-directive` meta-rule. Not suppressible: a broken
/// suppression must never be able to silence itself.
fn audit_directives(ws: &Workspace, report: &mut Report) {
    for file in &ws.files {
        if exempt(file) {
            continue;
        }
        for d in &file.directives {
            let problem = if let Some(why) = &d.malformed {
                format!("malformed directive: {why}")
            } else if !RULES.contains(&d.rule.as_str()) {
                format!(
                    "unknown rule `{}` in allow directive (known: {})",
                    d.rule,
                    RULES.join(", ")
                )
            } else if !d.used.get() {
                format!(
                    "unused suppression for `{}` — the rule no longer fires here; delete the allow",
                    d.rule
                )
            } else {
                continue;
            };
            report.findings.push(Finding {
                rule: "lint-directive",
                path: file.rel.clone(),
                line: d.line,
                message: problem,
            });
        }
    }
}
