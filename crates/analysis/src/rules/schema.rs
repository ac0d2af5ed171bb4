//! Rule `schema-coherence`: each JSON schema version family has ONE
//! canonical `pub const` declaration, and every other occurrence of a
//! family-prefixed version string — in source, tests, CI greps, and
//! docs — must match its value. This is the rule that catches a schema
//! bump that misses a CI grep or a doc example.

use crate::lexer::{lex, Tok, TokKind};
use crate::report::Report;
use crate::rules::{emit, exempt};
use crate::source::Workspace;

/// (family prefix, canonical const name, file declaring it).
pub const FAMILIES: &[(&str, &str, &str)] = &[
    (
        "btr-sweep-v",
        "SWEEP_SCHEMA",
        "crates/experiments/src/sweep.rs",
    ),
    (
        "btr-serve-v",
        "SERVE_SCHEMA",
        "crates/experiments/src/serve_json.rs",
    ),
    (
        "btr-bench-v",
        "BENCH_SCHEMA",
        "crates/experiments/benches/common/mod.rs",
    ),
    ("btr-lint-v", "LINT_SCHEMA", "crates/analysis/src/report.rs"),
];

/// Prose/history files where stale version strings are the historical
/// record, not a defect.
const PROSE_EXCLUDE: &[&str] = &[
    "CHANGES.md",
    "ROADMAP.md",
    "ISSUE.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
];

pub fn check(ws: &Workspace, report: &mut Report) {
    for &(prefix, const_name, decl_path) in FAMILIES {
        let canonical = canonical_value(ws, prefix, const_name, decl_path);
        let occurrences = scan_occurrences(ws, prefix, report, canonical.as_deref(), decl_path);
        if canonical.is_none() && occurrences > 0 {
            // Version strings exist but nothing owns them.
            if let Some(file) = ws.get(decl_path) {
                emit(
                    report,
                    file,
                    "schema-coherence",
                    0,
                    format!(
                        "no `const {const_name}: &str = \"{prefix}<N>\"` declaration found, \
                         but {occurrences} `{prefix}*` occurrence(s) exist in the workspace"
                    ),
                );
            }
        }
    }
}

/// Extracts the canonical value: in `decl_path`, a `const NAME` whose
/// initializer is a string literal starting with `prefix`.
fn canonical_value(
    ws: &Workspace,
    prefix: &str,
    const_name: &str,
    decl_path: &str,
) -> Option<String> {
    let file = ws.get(decl_path)?;
    let toks = lex(&file.text);
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    for (i, tok) in code.iter().enumerate() {
        if !tok.is_ident(const_name) || !i.checked_sub(1).is_some_and(|p| code[p].is_ident("const"))
        {
            continue;
        }
        // `const NAME: &str = "...";` — the literal is within the next
        // handful of tokens.
        for t in code.iter().skip(i).take(8) {
            if matches!(t.kind, TokKind::Str | TokKind::RawStr) && t.text.starts_with(prefix) {
                return Some(t.text.clone());
            }
        }
    }
    None
}

/// Scans raw lines of every in-scope file for `prefix` + digits and
/// flags values that differ from the canonical one. Returns the number
/// of occurrences seen.
fn scan_occurrences(
    ws: &Workspace,
    prefix: &str,
    report: &mut Report,
    canonical: Option<&str>,
    decl_path: &str,
) -> usize {
    let mut count = 0;
    for file in &ws.files {
        // The lint's own sources spell out foreign-family literals in
        // this very table; skip them (report.rs is reached through
        // `canonical_value` for its own family).
        if exempt(file) && file.rel != decl_path {
            continue;
        }
        if PROSE_EXCLUDE.contains(&file.rel.as_str()) {
            continue;
        }
        if !matches!(file.ext(), "rs" | "yml" | "yaml" | "md" | "toml") {
            continue;
        }
        for (lineno, line) in file.lines() {
            let mut from = 0;
            while let Some(at) = line[from..].find(prefix) {
                let start = from + at;
                let after = &line[start + prefix.len()..];
                let ver: String = after.chars().take_while(char::is_ascii_digit).collect();
                from = start + prefix.len();
                if ver.is_empty() {
                    continue; // prose like "btr-sweep-vN"
                }
                count += 1;
                let found = format!("{prefix}{ver}");
                if let Some(canon) = canonical {
                    if found != canon {
                        emit(
                            report,
                            file,
                            "schema-coherence",
                            lineno,
                            format!(
                                "`{found}` does not match the canonical `{canon}` \
                                 declared in {decl_path}"
                            ),
                        );
                    }
                }
            }
        }
    }
    count
}
