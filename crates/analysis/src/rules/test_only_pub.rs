//! Rule `test-only-pub`: a public item that nothing ships. A `pub` fn,
//! struct, enum, trait, type alias, const or static declared outside
//! test code in `crates/*/src` fires when its name has no reference
//! from shipping code: the non-test regions of `crates/*/src` and the
//! umbrella `src/`. Mentions from `tests/`, `benches/`, `examples/`,
//! `perfbench/` and `#[cfg(test)]` blocks do not count, so an item only
//! they call is an oracle or a convenience that belongs with them (or
//! nowhere).
//!
//! What is not a reference: a `use` path (a re-export is not a caller),
//! the item's own body, for a type the `impl` blocks of that type, and
//! the trait `impl` blocks whose header names it as a trait argument
//! (`SendError` in `impl From<SendError> for AccelError`: a conversion
//! nothing calls does not keep its source type alive). A name that
//! several public items share (`new`, `len`, trait-like method names)
//! fires on every one of them when no shipping code names it at all,
//! and not at all otherwise: the lexer cannot tell which one a mention
//! means. Oracles that a test compares against, and items that only a
//! benchmark binds, carry a reasoned allow naming that test or bench.

use std::collections::BTreeMap;

use crate::lexer::{cfg_test_regions, in_regions, lex, Tok, TokKind};
use crate::report::Report;
use crate::rules::{emit, exempt};
use crate::source::{SourceFile, Workspace};

/// Item keywords the rule reports after `pub`.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Qualifiers that may sit between `pub` and the item keyword.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// True for a file whose non-test code ships.
fn is_shipping(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    if rel.starts_with("src/") {
        return true;
    }
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// One public declaration.
struct Decl<'a> {
    file: &'a SourceFile,
    line: u32,
    kind: &'static str,
}

/// What one shipping file contributes: its public declarations and the
/// identifiers that count as references, keyed by name.
#[derive(Default)]
struct Scan<'a> {
    decls: BTreeMap<String, Vec<Decl<'a>>>,
    refs: BTreeMap<String, usize>,
}

pub fn check(ws: &Workspace, report: &mut Report) {
    let mut scan = Scan::default();
    for file in ws
        .files
        .iter()
        .filter(|f| is_shipping(&f.rel) && !exempt(f))
    {
        scan_file(file, &mut scan);
    }
    for (name, decls) in &scan.decls {
        if scan.refs.get(name).copied().unwrap_or(0) > 0 {
            continue;
        }
        for decl in decls {
            emit(
                report,
                decl.file,
                "test-only-pub",
                decl.line,
                format!(
                    "`pub {} {name}` has no caller in shipping code (only tests, benches, \
                     examples or perfbench name it) — delete it, move it to its tests, or \
                     add an allow naming the test or bench that needs it",
                    decl.kind
                ),
            );
        }
    }
}

fn scan_file<'a>(file: &'a SourceFile, scan: &mut Scan<'a>) {
    let toks = lex(&file.text);
    let tests = cfg_test_regions(&toks);
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    // Token ranges whose mentions of a name do not count for it: the
    // name's own declaration and body, the impl blocks of a type, and
    // the trait impl blocks that name it as a trait argument.
    let mut own: Vec<(String, usize, usize)> = Vec::new();
    let mut uses: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let tok = code[i];
        if in_regions(&tests, tok.line) {
            i += 1;
            continue;
        }
        if tok.is_ident("use") {
            let end = (i..code.len())
                .find(|&j| code[j].is_punct(';'))
                .unwrap_or(code.len());
            uses.push((i, end));
            i = end;
            continue;
        }
        if tok.is_ident("impl") {
            if let Some(header) = impl_header(&code, i) {
                for name in header.trait_args {
                    own.push((name, i, header.end));
                }
                own.push((header.self_type, i, header.end));
            }
        } else if let Some((kw, at, public)) = item_at(&code, i) {
            let name = &code[at].text;
            own.push((name.clone(), at, item_end(&code, at)));
            if public {
                scan.decls.entry(name.clone()).or_default().push(Decl {
                    file,
                    line: tok.line,
                    kind: kw,
                });
            }
        }
        i += 1;
    }
    for (j, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident
            || in_regions(&tests, tok.line)
            || uses.iter().any(|&(lo, hi)| lo <= j && j <= hi)
            || own
                .iter()
                .any(|(name, lo, hi)| *name == tok.text && *lo <= j && j <= *hi)
        {
            continue;
        }
        *scan.refs.entry(tok.text.clone()).or_default() += 1;
    }
}

/// When `code[i]` starts an item, its keyword, the index of its name
/// and whether it is plain `pub`. `pub(crate)` and private items are
/// rustc's `dead_code` business and are not reported, but their names
/// still get an own range.
fn item_at(code: &[&Tok], i: usize) -> Option<(&'static str, usize, bool)> {
    let is = |j: usize, text: &str| code.get(j).is_some_and(|t| t.is_ident(text));
    let mut at = i;
    let mut public = false;
    if is(i, "pub") {
        at += 1;
        if code.get(at).is_some_and(|t| t.is_punct('(')) {
            at = (at..code.len()).find(|&j| code[j].is_punct(')'))? + 1;
        } else {
            public = true;
        }
    } else if i > 0 && (is(i - 1, "pub") || QUALIFIERS.iter().any(|q| is(i - 1, q))) {
        // Already seen from the `pub` or the qualifier before it.
        return None;
    }
    // Skip qualifiers (`pub const fn`, `pub unsafe extern "C" fn`); a
    // `const` followed by a name is itself the item.
    while let Some(t) = code.get(at) {
        let qualifier = ["unsafe", "async", "extern"].iter().any(|q| t.is_ident(q))
            || (t.kind == TokKind::Str && is(at - 1, "extern"))
            || (t.is_ident("const")
                && (is(at + 1, "fn") || QUALIFIERS.iter().any(|q| is(at + 1, q))));
        if !qualifier {
            break;
        }
        at += 1;
    }
    let kw = ITEM_KEYWORDS.iter().find(|k| is(at, k))?;
    let name = if *kw == "static" && is(at + 1, "mut") {
        at + 2
    } else {
        at + 1
    };
    code.get(name)
        .is_some_and(|t| t.kind == TokKind::Ident)
        .then_some((*kw, name, public))
}

/// The last token of the item whose name sits at `start`: the close of
/// its first top-level brace block, or its `;` if one comes first.
fn item_end(code: &[&Tok], start: usize) -> usize {
    let mut depth = 0usize;
    for (j, tok) in code.iter().enumerate().skip(start) {
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        } else if tok.is_punct(';') && depth == 0 {
            return j;
        }
    }
    code.len().saturating_sub(1)
}

/// The header of an `impl` block.
struct ImplHeader {
    /// The last path segment before generics, `where` or the body, after
    /// `for` when the impl is of a trait.
    self_type: String,
    /// The identifiers inside the implemented trait's generic arguments
    /// (`SendError` in `impl From<SendError> for AccelError`); empty for
    /// an inherent impl.
    trait_args: Vec<String>,
    /// The last token of the block.
    end: usize,
}

/// The header of the `impl` at `code[i]`.
fn impl_header(code: &[&Tok], i: usize) -> Option<ImplHeader> {
    let body = (i..code.len()).find(|&j| code[j].is_punct('{'))?;
    let mut angle = 0i32;
    let mut start = i + 1;
    // The impl's own parameters (`impl<T: Bound>`) are not trait
    // arguments.
    let mut params = code.get(i + 1).is_some_and(|t| t.is_punct('<'));
    let mut args = Vec::new();
    let mut trait_args = Vec::new();
    for (j, tok) in code.iter().enumerate().take(body).skip(i + 1) {
        if tok.is_punct('<') {
            angle += 1;
        } else if tok.is_punct('>') && !code[j - 1].is_punct('-') {
            angle -= 1;
            params &= angle > 0;
        } else if angle == 0 && tok.is_ident("for") {
            start = j + 1;
            trait_args = std::mem::take(&mut args);
        } else if angle > 0 && !params && tok.kind == TokKind::Ident {
            args.push(tok.text.clone());
        }
    }
    let mut name = None;
    let mut angle = 0i32;
    for (j, tok) in code.iter().enumerate().take(body).skip(start) {
        if tok.is_punct('<') {
            angle += 1;
        } else if tok.is_punct('>') && !code[j - 1].is_punct('-') {
            angle -= 1;
        } else if angle == 0 && tok.is_ident("where") {
            break;
        } else if angle == 0 && tok.kind == TokKind::Ident && name.is_none() {
            // The first ident after the last `::` at depth zero.
            let next_is_path = code.get(j + 1).is_some_and(|n| n.is_punct(':'));
            if !next_is_path {
                name = Some(tok.text.clone());
            }
        }
    }
    Some(ImplHeader {
        self_type: name?,
        trait_args,
        end: item_end(code, body),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipping_scope_is_crate_sources_and_the_umbrella() {
        assert!(is_shipping("crates/core/src/codec.rs"));
        assert!(is_shipping("crates/experiments/src/bin/sweep.rs"));
        assert!(is_shipping("src/lib.rs"));
        assert!(!is_shipping("crates/core/tests/x.rs"));
        assert!(!is_shipping("crates/experiments/benches/b.rs"));
        assert!(!is_shipping("tests/x.rs"));
        assert!(!is_shipping("examples/x.rs"));
        assert!(!is_shipping("perfbench/src/main.rs"));
    }

    fn kw(src: &str) -> Option<&'static str> {
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().collect();
        item_at(&code, 0).map(|(k, _, _)| k)
    }

    #[test]
    fn item_keywords_see_through_qualifiers() {
        assert_eq!(kw("pub fn f() {}"), Some("fn"));
        assert_eq!(kw("pub const fn f() {}"), Some("fn"));
        assert_eq!(kw("pub const X: u8 = 1;"), Some("const"));
        assert_eq!(kw("pub unsafe extern \"C\" fn f() {}"), Some("fn"));
        assert_eq!(kw("pub static mut N: u8 = 0;"), Some("static"));
        assert_eq!(kw("pub(crate) fn f() {}"), Some("fn"));
        assert_eq!(kw("pub field: u8,"), None);
    }

    fn header(src: &str) -> Option<ImplHeader> {
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().collect();
        impl_header(&code, 0)
    }

    #[test]
    fn impl_self_type_skips_generics_paths_and_traits() {
        let name = |src: &str| header(src).map(|h| h.self_type);
        assert_eq!(name("impl Foo { }").as_deref(), Some("Foo"));
        assert_eq!(name("impl<T: Bar> Foo<T> { }").as_deref(), Some("Foo"));
        assert_eq!(
            name("impl fmt::Display for crate::Foo { }").as_deref(),
            Some("Foo")
        );
        assert_eq!(
            name("impl<W> Tr<W> for Foo<W> where W: Fn() -> u8 { }").as_deref(),
            Some("Foo")
        );
    }

    #[test]
    fn trait_args_are_the_trait_generics_only() {
        let args = |src: &str| header(src).map(|h| h.trait_args);
        assert_eq!(
            args("impl From<SendError> for AccelError { }"),
            Some(vec!["SendError".to_string()])
        );
        assert_eq!(
            args("impl<T: Bound> Tr<io::Error, T> for Foo<Bar> { }"),
            Some(vec!["io".to_string(), "Error".to_string(), "T".to_string()])
        );
        assert_eq!(args("impl<T: Bound> Foo<Bar, T> { }"), Some(Vec::new()));
        assert_eq!(args("impl Display for Foo { }"), Some(Vec::new()));
    }
}
