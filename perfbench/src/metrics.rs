//! The declared metric tables and the result line.
//!
//! Every workload prints every metric of the table its run mode selects
//! (end-to-end untraced, per-layer traced), so two runs of any workload
//! compare name by name. A per-layer metric whose layer a workload does
//! not exercise reads 0 there (README.md in this directory maps which
//! workload each one is measured on).

use experiments::json::Json;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("packets_per_ref_s", "1/s"),
    ("dispatch_ref_ms_p50", "ms"),
    ("sim_flit_hops_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("bt_reduction_pct", "%"),
    ("link_bt_per_packet", "count"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bits.measure_ns_per_flit", "ns"),
    ("core.order_ns_per_value", "ns"),
    ("core.build_stream_ns_per_packet", "ns"),
    ("core.template_build_us_per_group", "us"),
    ("core.encode_ns_per_task", "ns"),
    ("core.decode_ns_per_task", "ns"),
    ("core.lane_run_ns_per_flit", "ns"),
    ("accel.gather_ns_per_task", "ns"),
    ("accel.run_ms_per_dispatch", "ms"),
    ("accel.replay_ms_per_dispatch", "ms"),
    ("accel.ledger_coverage", "ratio"),
    ("accel.analytic_phase_frac", "ratio"),
    ("accel.request_flits_per_infer", "count"),
    ("accel.index_overhead_bits_per_infer", "count"),
    ("noc.step_ns_per_flit_hop", "ns"),
    ("noc.replay_ns_per_flit_hop", "ns"),
    ("noc.contention_free_frac", "ratio"),
    ("noc.flit_hops_per_infer", "count"),
    ("noc.cycles_per_infer", "count"),
    ("noc.retransmitted_flits", "count"),
    ("noc.retried_packets", "count"),
    ("dnn.host_ops_ms_per_infer", "ms"),
    ("dnn.lower_ms", "ms"),
    ("serve.busy_frac", "ratio"),
    ("serve.batch_fill_frac", "ratio"),
    ("serve.queue_depth_p50", "count"),
    ("serve.dispatches", "count"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_p90", "ms"),
    ("sweep.cell_ms_max", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

/// Metric values collected by one run, checked against a table.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `value` under `name`, replacing an earlier value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table: a typo would otherwise
    /// print a silent 0 under the declared name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The `metrics` object over `table`: every declared metric in table
    /// order, 0 where this run recorded none.
    #[must_use]
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Json {
        let fields = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name,
                    Json::obj(vec![("value", Json::F64(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj(fields)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted.max(1))),
        ("failed", Json::U64(failed)),
        ("metrics", metrics),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{section} entry without {k}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_declared_with_their_units() {
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = declared(section);
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(printed, declared, "{section} differs from BENCHMARK.json");
            for (name, unit) in &printed {
                assert!(valid_name(name), "bad metric name {name:?}");
                assert!(!unit.is_empty(), "{name} has no unit");
            }
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn result_line_prints_every_declared_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let line = result_line(3, 0, m.to_json(END_TO_END));
        let doc = Json::parse(&line).expect("result line parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").expect("metrics object");
        for &(name, unit) in END_TO_END {
            let entry = metrics.get(name).expect("declared metric printed");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_rejected() {
        Metrics::default().set("core.typo", 1.0);
    }
}
