//! The paired-ratio harness the benches in this directory share.
//!
//! A fast path B is timed against its baseline A *alternately*: each
//! pair takes one sample of A and one of B, and which of the two runs
//! first swaps from pair to pair. Host drift (frequency scaling,
//! co-tenant load) then lands on both sides of every A/B time ratio
//! instead of on one of two separately timed windows. A gate asserts
//! on the lower quartile of those ratios, so it holds only when at
//! least three pairs in four clear the bound.
//!
//! One sample runs a calibrated number of iterations, about
//! [`SAMPLE_NS`] of timed work. Every finished group writes
//! `BENCH_<group>.json` (schema [`BENCH_SCHEMA`]) into
//! `BTR_BENCH_JSON_DIR`, by default `target/btr-bench/` at the
//! workspace root:
//!
//! ```json
//! {"schema":"btr-bench-v1","group":"engine_kernel","results":[{"name":"cycle_stream",
//!  "mean_ns":2412077.5,"median_ns":2398120.25,"min_ns":2377915.75,"samples":5,"iters_per_sample":5}]}
//! ```

// Each bench compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use experiments::json::{write_file, Json};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Schema tag of the `BENCH_<group>.json` documents this harness writes.
pub const BENCH_SCHEMA: &str = "btr-bench-v1";

/// Timed work one sample aims for; iterations are batched to reach it.
pub const SAMPLE_NS: f64 = 10e6;

/// Pairs a smoke gate takes: the fewest whose lower quartile is not
/// the single slowest pair.
pub const SMOKE_PAIRS: usize = 5;

/// Wall-time budget of the warm-up run that sizes a sample.
const CALIBRATION: Duration = Duration::from_millis(30);

/// Times `iters` back-to-back calls of `f`.
pub fn iter<R>(mut f: impl FnMut() -> R) -> impl FnMut(u64) -> Duration {
    move |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }
}

/// Times `iters` calls of `routine`, each on a fresh input that `setup`
/// builds outside the timed region: for routines that consume their
/// input, where rebuilding it would otherwise land in the measurement.
pub fn iter_batched<I, O>(
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> impl FnMut(u64) -> Duration {
    move |iters| {
        let mut elapsed = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            elapsed += start.elapsed();
        }
        elapsed
    }
}

/// One measured point: per-iteration nanoseconds of every sample.
pub struct Point {
    name: String,
    /// Ascending.
    samples_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Point {
    pub fn mean_ns(&self) -> f64 {
        self.samples_ns.iter().sum::<f64>() / self.samples_ns.len() as f64
    }

    pub fn median_ns(&self) -> f64 {
        self.samples_ns[self.samples_ns.len() / 2]
    }

    fn min_ns(&self) -> f64 {
        self.samples_ns[0]
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("mean_ns", Json::F64(self.mean_ns())),
            ("median_ns", Json::F64(self.median_ns())),
            ("min_ns", Json::F64(self.min_ns())),
            ("samples", Json::U64(self.samples_ns.len() as u64)),
            ("iters_per_sample", Json::U64(self.iters_per_sample)),
        ])
    }
}

/// A named group of points sharing a sample count.
pub struct Group {
    name: String,
    samples: usize,
    points: Vec<Point>,
}

impl Group {
    /// A group whose points each take `samples` samples (pairs, for
    /// paired points).
    pub fn new(name: &str, samples: usize) -> Self {
        Self {
            name: name.to_string(),
            samples,
            points: Vec::new(),
        }
    }

    /// Times baseline `a` against fast path `b` in alternating pairs and
    /// returns the lower quartile of the A/B time ratios.
    pub fn pair(
        &mut self,
        a_name: &str,
        mut a: impl FnMut(u64) -> Duration,
        b_name: &str,
        mut b: impl FnMut(u64) -> Duration,
    ) -> f64 {
        assert!(
            self.samples >= SMOKE_PAIRS,
            "a paired gate needs {SMOKE_PAIRS} pairs"
        );
        let (a_iters, b_iters) = (calibrate(&mut a), calibrate(&mut b));
        let (mut a_ns, mut b_ns) = (Vec::new(), Vec::new());
        for i in 0..self.samples {
            if i % 2 == 0 {
                a_ns.push(sample(&mut a, a_iters));
                b_ns.push(sample(&mut b, b_iters));
            } else {
                b_ns.push(sample(&mut b, b_iters));
                a_ns.push(sample(&mut a, a_iters));
            }
        }
        let mut ratios: Vec<f64> = a_ns.iter().zip(&b_ns).map(|(a, b)| a / b).collect();
        ratios.sort_by(f64::total_cmp);
        let quartile = ratios[(ratios.len() - 1) / 4];
        self.push(a_name, a_ns, a_iters);
        self.push(b_name, b_ns, b_iters);
        println!(
            "pair {}/{a_name} / {b_name}: {} -> lower quartile {quartile:.2}x",
            self.name,
            ratios
                .iter()
                .map(|r| format!("{r:.2}x"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        quartile
    }

    /// Times one point that has no baseline to pair with.
    pub fn single(&mut self, name: &str, mut f: impl FnMut(u64) -> Duration) {
        let iters = calibrate(&mut f);
        let samples_ns = (0..self.samples).map(|_| sample(&mut f, iters)).collect();
        self.push(name, samples_ns, iters);
    }

    /// The point named `name`.
    pub fn point(&self, name: &str) -> &Point {
        self.points
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no bench point {name:?} in group {}", self.name))
    }

    /// Writes the group's `BENCH_<group>.json`.
    pub fn finish(&self) {
        let dir = std::env::var_os("BTR_BENCH_JSON_DIR").map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/btr-bench"),
            PathBuf::from,
        );
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let doc = Json::obj(vec![
            ("schema", Json::str(BENCH_SCHEMA)),
            ("group", Json::str(&self.name)),
            (
                "results",
                Json::Arr(self.points.iter().map(Point::json).collect()),
            ),
        ]);
        write_file(&path, &doc)
            .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
        println!("bench group {} -> {}", self.name, path.display());
    }

    fn push(&mut self, name: &str, mut samples_ns: Vec<f64>, iters_per_sample: u64) {
        samples_ns.sort_by(f64::total_cmp);
        let point = Point {
            name: name.to_string(),
            samples_ns,
            iters_per_sample,
        };
        println!(
            "bench {}/{name}: {:.0} ns/iter (median {:.0}, min {:.0}, {} samples x {iters_per_sample} iters)",
            self.name,
            point.mean_ns(),
            point.median_ns(),
            point.min_ns(),
            point.samples_ns.len()
        );
        self.points.push(point);
    }
}

/// Warms `routine` up and returns the iterations that fill one sample.
fn calibrate(routine: &mut impl FnMut(u64) -> Duration) -> u64 {
    let start = Instant::now();
    let (mut timed, mut iters) = (Duration::ZERO, 0u64);
    while start.elapsed() < CALIBRATION && iters < 1000 {
        timed += routine(1);
        iters += 1;
    }
    let ns_per_iter = (timed.as_nanos() as f64 / iters as f64).max(1.0);
    ((SAMPLE_NS / ns_per_iter).ceil() as u64).clamp(1, 1 << 24)
}

/// One sample: per-iteration nanoseconds over `iters` iterations.
fn sample(routine: &mut impl FnMut(u64) -> Duration, iters: u64) -> f64 {
    routine(iters).as_nanos() as f64 / iters as f64
}
