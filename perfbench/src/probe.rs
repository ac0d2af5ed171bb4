//! The host-speed probe.
//!
//! The benchmark runs on shared hosts whose memory speed drifts by up to
//! 60% within minutes as other tenants come and go, far more than any
//! bound a regression check could use. Every timed op and every set-up
//! repeat of a memory-bound workload therefore runs right after this
//! probe: a fixed, memory-bound kernel owned by the benchmark (two 16 MiB
//! copies and 300,000 random read-modify-writes over a 32 MiB table), run
//! at once on as many threads as the workload keeps busy. The op's wall
//! time is scaled by `REFERENCE_MS / probe time`, which expresses it at
//! the host speed the probe had when the benchmark was defined. The
//! probe's code never changes with the program under test, so a faster
//! or slower program moves the scaled time exactly as it moves the wall
//! time; only the host's drift cancels.

use std::sync::Mutex;
use std::time::Instant;

/// Median per-thread probe time in milliseconds on the host the
/// benchmark was defined on (a 2-vCPU Xeon VM at a quiet moment).
const REFERENCE_MS: f64 = 12.0;

const COPY_WORDS: usize = 2 << 20;
const TABLE_WORDS: usize = 4 << 20;
const RANDOM_UPDATES: u64 = 300_000;

/// One thread's probe buffers.
struct Probe {
    src: Vec<u64>,
    dst: Vec<u64>,
    table: Vec<u64>,
    state: u64,
}

impl Probe {
    fn new() -> Self {
        Self {
            src: (0..COPY_WORDS as u64).collect(),
            dst: vec![0; COPY_WORDS],
            table: vec![1; TABLE_WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Runs the kernel once; returns its wall time in milliseconds.
    fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..2 {
            self.dst.copy_from_slice(&self.src);
            // A dependency between the copies, so neither is elided.
            self.src[0] = self.src[0].wrapping_add(self.dst[COPY_WORDS - 1]);
        }
        let mut x = self.state;
        for i in 0..RANDOM_UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x as usize) & (TABLE_WORDS - 1);
            self.table[k] = self.table[k].wrapping_add(i);
        }
        self.state = x;
        std::hint::black_box((&self.dst, &self.table));
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// The probes run so far (one per thread) and every probe time.
struct State {
    probes: Vec<Probe>,
    times_ms: Vec<f64>,
}

static STATE: Mutex<State> = Mutex::new(State {
    probes: Vec::new(),
    times_ms: Vec::new(),
});

fn state() -> std::sync::MutexGuard<'static, State> {
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs the probe on `threads` threads at once and returns the factor
/// that scales a wall time measured right after it to the reference host
/// speed: `REFERENCE_MS` over the mean per-thread probe time. A run uses
/// one thread count throughout.
#[must_use]
pub fn scale(threads: usize) -> f64 {
    let threads = threads.max(1);
    let mut state = state();
    while state.probes.len() < threads {
        state.probes.push(Probe::new());
    }
    let probes = &mut state.probes[..threads];
    let ms = if let [probe] = probes {
        probe.run()
    } else {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = probes
                .iter_mut()
                .map(|p| scope.spawn(move || p.run()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    };
    state.times_ms.push(ms);
    REFERENCE_MS / ms
}

/// Memory the probe buffers hold resident, in MiB: `peak_rss_mb`
/// subtracts it, so the metric stays the program's own peak.
#[must_use]
pub fn resident_mb() -> f64 {
    let words = 2 * COPY_WORDS + TABLE_WORDS;
    let bytes = state().probes.len() * words * std::mem::size_of::<u64>();
    bytes as f64 / f64::from(1 << 20)
}

/// Median of the probe times so far in milliseconds, if the probe ran.
#[must_use]
pub fn median_ms() -> Option<f64> {
    let state = state();
    (!state.times_ms.is_empty()).then(|| crate::stats::median(&state.times_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_mean_probe_time() {
        assert_eq!(median_ms(), None);
        let s = scale(2);
        assert!(s.is_finite() && s > 0.0);
        let ms = median_ms().expect("the probe ran");
        assert!((s * ms - REFERENCE_MS).abs() < 1e-9);
        // Two probes of 64 MiB each.
        assert_eq!(resident_mb(), 128.0);
    }
}
