//! Per-rule fixture tests: each seeds a violation class into an
//! in-memory workspace and asserts the rule catches it (and that the
//! matching allow directive suppresses it). The final test drives the
//! real `btr-lint` binary over an on-disk fixture to pin the nonzero
//! exit code the CI gate relies on.

use btr_analysis::{run, Workspace};

fn findings_of(ws: &Workspace, rule: &str) -> Vec<(String, u32)> {
    run(ws)
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path.clone(), f.line))
        .collect()
}

#[test]
fn stray_unwrap_in_sim_is_caught() {
    let ws = Workspace::from_memory(&[(
        "crates/noc/src/sim.rs",
        "pub fn step(&mut self) {\n    let f = self.queue.pop().unwrap();\n}\n",
    )]);
    assert_eq!(
        findings_of(&ws, "panic-in-hot-path"),
        vec![("crates/noc/src/sim.rs".to_string(), 2)]
    );
}

#[test]
fn every_panic_form_is_caught_and_cfg_test_is_exempt() {
    let src = "\
fn live() {\n\
    x.expect(\"boom\");\n\
    panic!(\"no\");\n\
    unreachable!();\n\
    todo!();\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { y.unwrap(); panic!(\"fine in tests\"); }\n\
}\n";
    let ws = Workspace::from_memory(&[("crates/core/src/codec.rs", src)]);
    let lines: Vec<u32> = findings_of(&ws, "panic-in-hot-path")
        .into_iter()
        .map(|(_, l)| l)
        .collect();
    assert_eq!(lines, vec![2, 3, 4, 5]);
}

#[test]
fn comments_strings_and_non_hot_paths_do_not_fire() {
    let ws = Workspace::from_memory(&[
        (
            "crates/core/src/transport.rs",
            "// a comment saying x.unwrap() is fine\nlet s = \"call .unwrap()\";\nlet u = x.unwrap_or(0);\n",
        ),
        // Not a hot path: panics are that crate's business.
        ("crates/dnn/src/tensor.rs", "fn f() { x.unwrap(); }\n"),
    ]);
    assert!(findings_of(&ws, "panic-in-hot-path").is_empty());
}

#[test]
fn reasoned_allow_suppresses_and_is_reported() {
    let ws = Workspace::from_memory(&[(
        "crates/noc/src/sim.rs",
        "// btr-lint: allow(panic-in-hot-path, reason = \"validated at construction\")\n\
         let v = x.expect(\"ok\");\n",
    )]);
    let report = run(&ws);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].reason, "validated at construction");
}

#[test]
fn per_bit_iteration_in_hot_modules_is_caught() {
    let src = "\
fn count(&self) -> u32 {\n\
    let n = self.image.iter_bits().filter(|&b| b).count();\n\
    for b in 0..self.width {\n\
        probe(b);\n\
    }\n\
    for w in 0..width.div_ceil(64) {\n\
        word(w);\n\
    }\n\
    for link in 0..num_links {\n\
        scan(link);\n\
    }\n\
    n\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn oracle() { for b in 0..width { probe(b); } img.iter_bits(); }\n\
}\n";
    let ws = Workspace::from_memory(&[("crates/noc/src/stats.rs", src)]);
    let lines: Vec<u32> = findings_of(&ws, "per-bit-hot-loop")
        .into_iter()
        .map(|(_, l)| l)
        .collect();
    // The `.iter_bits()` call and the per-wire index loop fire; the
    // word-granular loop, the non-width loop and the cfg(test) oracle
    // do not.
    assert_eq!(lines, vec![2, 3]);
}

#[test]
fn per_bit_loop_outside_hot_modules_or_with_allow_is_clean() {
    let ws = Workspace::from_memory(&[
        // Figure code may walk bits: not in the hot module set.
        (
            "crates/experiments/src/figures.rs",
            "fn f() { for b in 0..width { probe(b); } }\n",
        ),
        (
            "crates/bits/src/transition.rs",
            "// btr-lint: allow(per-bit-hot-loop, reason = \"per-bit-position output\")\n\
             fn g() { for b in 0..self.width { h(b); } }\n",
        ),
    ]);
    let report = run(&ws);
    assert!(
        report.findings.iter().all(|f| f.rule != "per-bit-hot-loop"),
        "{:?}",
        report.findings
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].reason, "per-bit-position output");
}

/// A minimal sweep.rs standing in for the real one: canonical const,
/// cell struct, emission fn, baseline-key const.
fn mini_sweep(fields: &str, emitted: &str, key_fields: &str) -> String {
    format!(
        "pub const SWEEP_SCHEMA: &str = \"btr-sweep-v8\";\n\
         pub struct SweepCell {{\n{fields}}}\n\
         pub fn outcomes_json() -> Json {{\n    Json::obj(vec![{emitted}])\n}}\n\
         const BASELINE_KEY_FIELDS: [&str; 2] = [{key_fields}];\n"
    )
}

#[test]
fn mismatched_schema_string_is_caught() {
    let sweep = mini_sweep(
        "    pub ber: f64,\n",
        "(\"ber\", x)",
        "\"ber\", \"workload\"",
    );
    let ws = Workspace::from_memory(&[
        ("crates/experiments/src/sweep.rs", &sweep),
        (
            ".github/workflows/ci.yml",
            "      - run: grep -q '\"schema\":\"btr-sweep-v7\"' out.json\n",
        ),
    ]);
    assert_eq!(
        findings_of(&ws, "schema-coherence"),
        vec![(".github/workflows/ci.yml".to_string(), 1)]
    );
}

#[test]
fn matching_schema_strings_are_clean_and_missing_const_is_caught() {
    let sweep = mini_sweep("    pub ber: f64,\n", "(\"ber\", x)", "\"ber\"");
    let clean = Workspace::from_memory(&[
        ("crates/experiments/src/sweep.rs", &sweep),
        ("EXPERIMENTS.md", "The schema is btr-sweep-v8 now.\n"),
    ]);
    assert!(findings_of(&clean, "schema-coherence").is_empty());

    // Occurrences with no canonical const to anchor them.
    let orphan = Workspace::from_memory(&[
        ("crates/experiments/src/sweep.rs", "// no const here\n"),
        ("EXPERIMENTS.md", "The schema is btr-sweep-v8 now.\n"),
    ]);
    assert_eq!(findings_of(&orphan, "schema-coherence").len(), 1);
}

#[test]
fn new_cell_field_missing_from_key_or_emission_is_caught() {
    // `fault_mode` declared on the cell (line 4 of the fixture) but
    // absent from both the emission and the baseline key: two findings
    // on its declaration line.
    let sweep = mini_sweep(
        "    pub ber: f64,\n    pub fault_mode: FaultMode,\n",
        "(\"ber\", x)",
        "\"ber\", \"workload\"",
    );
    let ws = Workspace::from_memory(&[("crates/experiments/src/sweep.rs", &sweep)]);
    let hits = findings_of(&ws, "sweep-axis-completeness");
    assert_eq!(
        hits,
        vec![
            ("crates/experiments/src/sweep.rs".to_string(), 4),
            ("crates/experiments/src/sweep.rs".to_string(), 4),
        ]
    );
}

#[test]
fn emission_alias_satisfies_the_axis_rule() {
    // `scope` serializes as "codec_scope"; the alias must satisfy both
    // the emission and the baseline-key check.
    let sweep = mini_sweep(
        "    pub scope: CodecScope,\n",
        "(\"codec_scope\", x)",
        "\"codec_scope\", \"workload\"",
    );
    let ws = Workspace::from_memory(&[("crates/experiments/src/sweep.rs", &sweep)]);
    assert!(findings_of(&ws, "sweep-axis-completeness").is_empty());
}

#[test]
fn wall_clock_reads_outside_allowlist_are_caught() {
    let ws = Workspace::from_memory(&[
        (
            "crates/noc/src/sim.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        ),
        // Allowlisted: the serve latency metrics.
        (
            "crates/serve/src/service.rs",
            "fn g() { let t = Instant::now(); }\n",
        ),
    ]);
    assert_eq!(
        findings_of(&ws, "determinism"),
        vec![("crates/noc/src/sim.rs".to_string(), 1)]
    );
}

#[test]
fn hash_iteration_without_sort_is_caught() {
    let bad = "use std::collections::HashMap;\n\
               fn f() {\n\
               let mut m: HashMap<String, u64> = HashMap::new();\n\
               for (k, v) in &m { emit(k, v); }\n\
               }\n";
    let good = "use std::collections::HashMap;\n\
                fn f() {\n\
                let mut m: HashMap<String, u64> = HashMap::new();\n\
                let mut rows: Vec<_> = m.iter().collect();\n\
                rows.sort();\n\
                }\n";
    let ws = Workspace::from_memory(&[("crates/experiments/src/sweep.rs", bad)]);
    assert_eq!(
        findings_of(&ws, "determinism"),
        vec![("crates/experiments/src/sweep.rs".to_string(), 4)]
    );
    let ws = Workspace::from_memory(&[("crates/experiments/src/sweep.rs", good)]);
    assert!(findings_of(&ws, "determinism").is_empty());
}

#[test]
fn vendor_reaching_net_process_or_entropy_is_caught() {
    let ws = Workspace::from_memory(&[
        (
            "vendor/rand/src/lib.rs",
            "use std::net::TcpStream;\nfn f() { let r = OsRng; }\n",
        ),
        // The same tokens outside vendor/ are not this rule's business.
        ("crates/serve/src/lib.rs", "// std::net is not used here\n"),
    ]);
    let hits = findings_of(&ws, "vendor-hygiene");
    assert_eq!(
        hits,
        vec![
            ("vendor/rand/src/lib.rs".to_string(), 1),
            ("vendor/rand/src/lib.rs".to_string(), 2),
        ]
    );
}

#[test]
fn directive_audit_catches_rot() {
    let ws = Workspace::from_memory(&[(
        "crates/noc/src/fault.rs",
        "// btr-lint: allow(panic-in-hot-path, reason = \"nothing here fires\")\n\
         let x = 1;\n\
         // btr-lint: allow(no-such-rule, reason = \"r\")\n\
         // btr-lint: allow(determinism)\n",
    )]);
    let hits = findings_of(&ws, "lint-directive");
    let lines: Vec<u32> = hits.iter().map(|(_, l)| *l).collect();
    assert_eq!(lines, vec![1, 3, 4], "unused, unknown rule, missing reason");
}

/// A library file declaring `dead`, plus the given extra files.
fn with_lib(extra: &[(&'static str, &'static str)]) -> Workspace {
    let mut files = vec![(
        "crates/core/src/lib.rs",
        "pub mod codec;\n\
         /// Only tests call this.\n\
         pub fn dead(x: u32) -> u32 {\n    x + 1\n}\n\
         #[cfg(test)]\n\
         mod tests {\n    #[test]\n    fn t() { assert_eq!(super::dead(1), 2); }\n}\n",
    )];
    files.extend_from_slice(extra);
    Workspace::from_memory(&files)
}

#[test]
fn test_only_pub_fires_when_only_tests_examples_and_perfbench_call() {
    let ws = with_lib(&[
        ("tests/it.rs", "fn t() { btr_core::dead(2); }\n"),
        (
            "crates/core/benches/b.rs",
            "fn b() { btr_core::dead(3); }\n",
        ),
        ("examples/demo.rs", "fn main() { btr_core::dead(4); }\n"),
        (
            "perfbench/src/main.rs",
            "fn main() { btr_core::dead(5); }\n",
        ),
    ]);
    assert_eq!(
        findings_of(&ws, "test-only-pub"),
        vec![("crates/core/src/lib.rs".to_string(), 3)]
    );
}

#[test]
fn test_only_pub_does_not_count_a_use_path() {
    let ws = with_lib(&[(
        "src/lib.rs",
        "pub use btr_core::dead;\npub use btr_core::{dead as alive};\n",
    )]);
    assert_eq!(
        findings_of(&ws, "test-only-pub"),
        vec![("crates/core/src/lib.rs".to_string(), 3)]
    );
}

#[test]
fn test_only_pub_is_quiet_with_a_shipping_caller() {
    let ws = with_lib(&[(
        "crates/experiments/src/bin/sweep.rs",
        "use btr_core::dead;\nfn main() { let _ = dead(7); }\n",
    )]);
    assert!(findings_of(&ws, "test-only-pub").is_empty());
}

#[test]
fn test_only_pub_fires_on_every_item_of_a_shared_name_nothing_ships() {
    let ws = Workspace::from_memory(&[
        (
            "crates/dnn/src/model.rs",
            "pub struct Layer;\nimpl Layer {\n    pub fn step(&mut self) {}\n}\n\
             pub struct Model;\nimpl Model {\n    pub fn step(&mut self) {}\n}\n\
             pub fn build() -> (Layer, Model) {\n    (Layer, Model)\n}\n",
        ),
        (
            "crates/experiments/src/bin/train.rs",
            "fn main() { let _ = btr_dnn::model::build(); }\n",
        ),
        ("tests/it.rs", "fn t() { model.step(); layer.step(); }\n"),
    ]);
    assert_eq!(
        findings_of(&ws, "test-only-pub"),
        vec![
            ("crates/dnn/src/model.rs".to_string(), 3),
            ("crates/dnn/src/model.rs".to_string(), 7),
        ]
    );
    // One shipping mention of the shared name keeps both quiet: the
    // lexer cannot tell which item it means.
    let ws = Workspace::from_memory(&[
        (
            "crates/dnn/src/model.rs",
            "pub struct Layer;\nimpl Layer {\n    pub fn step(&mut self) {}\n}\n\
             pub struct Model;\nimpl Model {\n    pub fn step(&mut self) {}\n}\n",
        ),
        (
            "crates/dnn/src/train.rs",
            "pub fn train(m: &mut Model) {\n    m.step();\n}\n",
        ),
        (
            "crates/experiments/src/bin/train.rs",
            "fn main() { btr_dnn::train::train(&mut Model); let _ = Layer; }\n",
        ),
    ]);
    assert!(findings_of(&ws, "test-only-pub").is_empty());
}

#[test]
fn test_only_pub_does_not_count_a_trait_impl_header_of_another_type() {
    let ws = Workspace::from_memory(&[
        (
            "crates/noc/src/session.rs",
            "/// Only a conversion names it.\npub struct SendError;\n",
        ),
        (
            "crates/accel/src/driver.rs",
            "pub enum AccelError {\n    Send,\n}\n\
             impl From<SendError> for AccelError {\n    fn from(_: SendError) -> Self {\n        AccelError::Send\n    }\n}\n",
        ),
        (
            "crates/serve/src/service.rs",
            "pub fn fail(e: AccelError) {\n    drop(e);\n}\n",
        ),
        (
            "crates/experiments/src/bin/serve.rs",
            "fn main() { btr_serve::service::fail(AccelError::Send); }\n",
        ),
    ]);
    assert_eq!(
        findings_of(&ws, "test-only-pub"),
        vec![("crates/noc/src/session.rs".to_string(), 2)]
    );
}

#[test]
fn test_only_pub_is_quiet_under_a_reasoned_allow() {
    let ws = Workspace::from_memory(&[(
        "crates/core/src/theory.rs",
        "// btr-lint: allow(test-only-pub, reason = \"the oracle tests/properties.rs compares against\")\n\
         pub fn brute_force(x: u32) -> u32 {\n    x\n}\n",
    )]);
    let report = run(&ws);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(
        report.suppressed[0].reason,
        "the oracle tests/properties.rs compares against"
    );
}

#[test]
fn test_only_pub_allow_without_a_reason_fires() {
    let ws = Workspace::from_memory(&[(
        "crates/core/src/theory.rs",
        "// btr-lint: allow(test-only-pub)\npub fn brute_force(x: u32) -> u32 {\n    x\n}\n",
    )]);
    assert_eq!(
        findings_of(&ws, "test-only-pub"),
        vec![("crates/core/src/theory.rs".to_string(), 2)]
    );
    assert_eq!(
        findings_of(&ws, "lint-directive"),
        vec![("crates/core/src/theory.rs".to_string(), 1)]
    );
}

#[test]
fn binary_exits_nonzero_on_a_seeded_violation_and_zero_when_clean() {
    let dir = std::env::temp_dir().join(format!("btr-lint-fixture-{}", std::process::id()));
    let hot = dir.join("crates/noc/src");
    std::fs::create_dir_all(&hot).expect("fixture dir");
    std::fs::write(hot.join("sim.rs"), "fn f() { x.unwrap(); }\n").expect("fixture file");

    let json_path = dir.join("lint.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_btr-lint"))
        .args(["--root", dir.to_str().expect("utf-8 path")])
        .args(["--json", json_path.to_str().expect("utf-8 path")])
        .output()
        .expect("btr-lint runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded violation must fail the gate"
    );
    let doc = std::fs::read_to_string(&json_path).expect("json written");
    assert!(doc.contains("\"schema\":\"btr-lint-v1\""));
    assert!(doc.contains("\"findings\":1"));
    assert!(doc.contains("panic-in-hot-path"));

    std::fs::write(
        hot.join("sim.rs"),
        "fn f() -> Option<u32> { x.checked_add(1) }\n",
    )
    .expect("fixture file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_btr-lint"))
        .args(["--root", dir.to_str().expect("utf-8 path")])
        .output()
        .expect("btr-lint runs");
    assert_eq!(out.status.code(), Some(0), "clean tree must pass");

    let _ = std::fs::remove_dir_all(&dir);
}
