//! Rule `panic-in-hot-path`: no `unwrap`/`expect`/`panic!`/
//! `unreachable!`/`todo!`/`unimplemented!` in the measurement-bearing
//! hot paths the paper's claims run through. A panic there aborts a
//! sweep shard mid-grid and loses every completed cell; hot-path code
//! returns typed errors instead. `#[cfg(test)]` regions are out of
//! scope (tests panic by design); debug-assert oracles and
//! constructor-time validation carry reasoned allows.

use crate::lexer::{cfg_test_regions, in_regions, lex, TokKind};
use crate::report::Report;
use crate::rules::emit;
use crate::source::Workspace;

/// Files and directories where panicking is a lint violation.
pub const HOT_PATHS: &[&str] = &[
    "crates/noc/src/sim.rs",
    "crates/noc/src/analytic.rs",
    "crates/noc/src/stats.rs",
    "crates/noc/src/fault.rs",
    "crates/core/src/codec.rs",
    "crates/core/src/transport.rs",
    "crates/core/src/flitize.rs",
    "crates/core/src/plan.rs",
    "crates/core/src/edc.rs",
    "crates/bits/",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

pub fn check(ws: &Workspace, report: &mut Report) {
    for file in ws.under(HOT_PATHS) {
        if file.ext() != "rs" {
            continue;
        }
        let toks = lex(&file.text);
        let test_regions = cfg_test_regions(&toks);
        let code: Vec<_> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        for (i, tok) in code.iter().enumerate() {
            if tok.kind != TokKind::Ident || in_regions(&test_regions, tok.line) {
                continue;
            }
            let next = code.get(i + 1);
            let prev = i.checked_sub(1).and_then(|p| code.get(p));
            let hit = if PANIC_METHODS.contains(&tok.text.as_str()) {
                // `.unwrap(` / `.expect(` — a method call, not e.g. an
                // `unwrap_or` (distinct ident) or a local named unwrap.
                prev.is_some_and(|p| p.is_punct('.')) && next.is_some_and(|n| n.is_punct('('))
            } else if PANIC_MACROS.contains(&tok.text.as_str()) {
                next.is_some_and(|n| n.is_punct('!'))
            } else {
                false
            };
            if hit {
                let form = if PANIC_MACROS.contains(&tok.text.as_str()) {
                    format!("{}!", tok.text)
                } else {
                    format!(".{}()", tok.text)
                };
                emit(
                    report,
                    file,
                    "panic-in-hot-path",
                    tok.line,
                    format!(
                        "`{form}` in a hot path — return a typed error, restructure so the \
                         case cannot arise, or add a reasoned allow"
                    ),
                );
            }
        }
    }
}
