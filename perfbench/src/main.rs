//! The repository benchmark.
//!
//! `perfbench --workload <name> [--seed 42] [--seconds 10] [--trace 0|1]`
//! runs one workload against the public APIs of the workspace crates,
//! checks its outputs, and prints one JSON result line last on stdout:
//! the end-to-end metrics untraced, or the per-layer metrics traced.
//! See README.md in this directory for the workloads and metrics.

mod grid;
mod host;
mod metrics;
mod probe;
mod replay;
mod serve;
mod stats;
mod stream;
mod trace;

use metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["stream-table1", "serve-auto-perlink", "paper-grid"];

/// A workload's set-up runs at least `SETUP_MIN_REPS` times and keeps
/// repeating (up to `SETUP_MAX_REPS`) until the repeats have taken
/// `SETUP_BUDGET`, so cheap set-ups get enough samples for a steady
/// median. `setup_s` is the median, at the reference host speed.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Seed of the random model weights. The weights are part of the system
/// under test and stay fixed; `--seed` draws the inputs (input pools,
/// packet samples), so a held-out seed is held-out data for one model.
pub const WEIGHT_SEED: u64 = 42;

/// The command line of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// Seed the inputs (input pools, packet samples) derive from.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Threads the host-speed probe runs on before each timed op (as
    /// many as the workload keeps busy), or `None` for a workload whose
    /// wall time is steady without it.
    pub probe_threads: Option<usize>,
}

impl Args {
    /// Runs the host-speed probe if the workload uses it; returns the
    /// factor that scales the next wall time to the reference host speed.
    fn probe_scale(&self) -> f64 {
        self.probe_threads.map_or(1.0, probe::scale)
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured loop and its checks.
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Metric values (end-to-end or per-layer, per the run mode).
    pub metrics: Metrics,
    /// The encode plan each accelerator session resolved.
    pub encode_plans: Vec<String>,
    /// Informational figures derived from the metrics (e.g. inferences
    /// per reference second), printed on a `#` line with the median
    /// probe time.
    pub derived: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one checked operation; `ok == false` marks it failed and
    /// logs `what` on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Runs `op` until `seconds` have elapsed (at least once), each call
/// right after the workload's host-speed probe, returning each call's
/// wall time in milliseconds at the reference host speed (see `probe`).
pub fn timed_loop(args: &Args, seconds: Duration, mut op: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let scale = args.probe_scale();
        let t0 = Instant::now();
        op();
        samples.push(t0.elapsed().as_secs_f64() * 1e3 * scale);
        if start.elapsed() >= seconds {
            return samples;
        }
    }
}

/// Repeats `setup` (see `SETUP_MIN_REPS`), each time right after the
/// workload's host-speed probe, returning the last result and the median
/// wall time in seconds at the reference host speed.
pub fn repeated_setup<T>(args: &Args, mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let scale = args.probe_scale();
        let t0 = Instant::now();
        let result = setup();
        times.push(t0.elapsed().as_secs_f64() * scale);
        let enough = times.len() >= SETUP_MIN_REPS && start.elapsed() >= SETUP_BUDGET;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (result, stats::median(&times));
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().copied().find(|w| *w == value).ok_or_else(
                    || format!("unknown workload {value:?}; use {}", WORKLOADS.join("|")),
                )?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // The stream streams megabytes of flits through memory on the calling
    // thread; the grid's two cell workers page in a fresh session per
    // cell. Both follow the host's memory speed. The serve pool's
    // sessions run on warm, cache-resident state: the probe moves
    // without it, and scaling its wall times by the probe widened their
    // run-to-run spread from 0.04-0.09 to 0.13-0.19.
    let harts = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let probe_threads = match workload {
        "stream-table1" => Some(1),
        "paper-grid" => Some(harts),
        _ => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
        probe_threads,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.workload, args.trace);
    let mut outcome = match args.workload {
        "stream-table1" => stream::run(&args, &mut tracer),
        "serve-auto-perlink" => serve::run_serve(&args, &mut tracer),
        "paper-grid" => grid::run(&args, &mut tracer),
        other => unreachable!("workload {other} was validated by parse_args"),
    };
    let stamp = host::stamp(args.workload, args.seed, &outcome.encode_plans);
    println!("# stamp {}", stamp.to_string_compact());
    // The probe's median relates this run's wall times to the reference
    // host speed the timing metrics are given at.
    if let Some(ms) = probe::median_ms() {
        outcome.derived.push(("host_probe_ms_p50", ms));
    }
    let fields = outcome
        .derived
        .iter()
        .map(|&(name, v)| (name, experiments::json::Json::F64(v)))
        .collect();
    println!(
        "# derived {}",
        experiments::json::Json::obj(fields).to_string_compact()
    );
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-s{}.json",
            args.workload, args.seed
        ));
        let doc = experiments::json::Json::obj(vec![("stamp", stamp), ("trace", tracer.to_json())]);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| experiments::json::write_file(&path, &doc));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    } else {
        outcome
            .metrics
            .set("peak_rss_mb", host::peak_rss_mb() - probe::resident_mb());
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_line(
            outcome.attempted,
            outcome.failed,
            outcome.metrics.to_json(table)
        )
    );
}
