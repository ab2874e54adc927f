//! A fixed reference workload that shares no code with the program
//! under test, timed right before and right after each measured
//! operation to express that operation's time in the speed of an
//! undisturbed core.
//!
//! On a shared 2-vCPU VM the CPU speed one thread sees swings by a third
//! from second to second and by half over a minute, with no steal time
//! reported, so medians of raw times moved by a quarter between runs of
//! the same code. An operation and the reference runs around it see the
//! same host speed, so their ratio stays put: over six 20 s pipeline
//! runs of one seed, the per-domain ratio moved by 1–3 % where the raw
//! trip moved by 20–40 %. Every time the benchmark reports is therefore
//! `raw × REFERENCE_NS / reference`: the time the operation would take
//! on a core that runs the reference workload in `REFERENCE_NS`.

use std::collections::HashMap;
use std::time::Instant;

/// The reference workload's fastest time on the machine the benchmark
/// was tuned on (a 2-vCPU Intel Xeon VM): reported times are in that
/// machine's undisturbed nanoseconds.
pub const REFERENCE_NS: f64 = 1_400_000.0;

/// Words the reference workload builds labels from.
const WORDS: &[&str] = &[
    "departure",
    "arrival",
    "city",
    "date",
    "passengers",
    "adults",
    "children",
    "class",
    "airline",
    "return",
    "price",
    "make",
    "model",
    "year",
    "mileage",
    "title",
    "author",
    "publisher",
    "keyword",
    "format",
    "location",
    "salary",
    "category",
    "company",
];

/// Run the reference workload once and return its wall time in
/// nanoseconds: label-like strings are built, lowercased, split into
/// tokens, counted in a hash map and sorted, the kind of work the
/// matcher and labeler do, with the same result on every run.
pub fn reference_ns() -> u64 {
    let start = Instant::now();
    let mut counts: HashMap<String, u32> = HashMap::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..4_000 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let a = WORDS[(state >> 33) as usize % WORDS.len()];
        let b = WORDS[(state >> 45) as usize % WORDS.len()];
        let label = format!("{a} Of {b} {}", state % 97).to_lowercase();
        for token in label.split_whitespace() {
            *counts.entry(token.to_string()).or_default() += 1;
        }
    }
    let mut keys: Vec<(&String, &u32)> = counts.iter().collect();
    keys.sort();
    std::hint::black_box(keys.len());
    start.elapsed().as_nanos() as u64
}

/// Reference runs behind one reading for a long step; a step of many
/// milliseconds lasts long enough for the host's speed to move, so one
/// short run is a poor proxy for it.
pub const REFERENCE_RUNS: usize = 5;

/// The median of `runs` reference runs.
fn reference_runs_ns(runs: usize) -> u64 {
    let mut times: Vec<u64> = (0..runs.max(1)).map(|_| reference_ns()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The median of `REFERENCE_RUNS` reference runs, for a long step.
pub fn reference_median_ns() -> u64 {
    reference_runs_ns(REFERENCE_RUNS)
}

/// The median of `runs` reference runs on each of `threads` threads at
/// once, averaged over the threads: for a step whose work is spread over
/// that many cores (server workers beside the load generator), whose
/// speeds a single-threaded reading does not see.
pub fn reference_cores_ns(threads: usize, runs: usize) -> u64 {
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        let readings: Vec<_> = (0..threads)
            .map(|_| scope.spawn(move || reference_runs_ns(runs)))
            .collect();
        readings
            .into_iter()
            .map(|reading| reading.join().expect("reference thread panicked"))
            .sum::<u64>()
            / threads as u64
    })
}

/// Cores a step using `threads` threads keeps busy on this machine.
pub fn busy_cores(threads: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(threads)
}

/// `raw` nanoseconds, measured beside reference runs of `reference`
/// nanoseconds, in reference-core nanoseconds.
pub fn normalize(raw: u64, reference: u64) -> u64 {
    (raw as f64 * REFERENCE_NS / reference.max(1) as f64) as u64
}

/// An operation's raw time and the reference time around it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_ns: u64,
    /// Mean of the reference readings just before and just after.
    pub reference_ns: u64,
}

impl Timing {
    /// The raw time in reference-core nanoseconds.
    pub fn normalized_ns(&self) -> u64 {
        normalize(self.raw_ns, self.reference_ns)
    }

    /// `per_s` operations per second, measured beside this reference,
    /// in operations per reference-core second.
    pub fn normalized_rate(&self, per_s: f64) -> f64 {
        per_s * self.reference_ns as f64 / REFERENCE_NS
    }
}

/// Run `f` between two readings of `reference`; return its result and
/// its timing. Bracketing follows a host whose speed moves during `f`
/// better than one reading before it.
pub fn bracketed<T>(reference: impl Fn() -> u64, f: impl FnOnce() -> T) -> (T, Timing) {
    let before = reference();
    let start = Instant::now();
    let value = f();
    let raw_ns = start.elapsed().as_nanos() as u64;
    let after = reference();
    let timing = Timing {
        raw_ns,
        reference_ns: (before + after) / 2,
    };
    (value, timing)
}

/// Normalized seconds of a set-up step `f`, for `setup_s`.
pub fn setup_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (value, timing) = bracketed(reference_median_ns, f);
    (value, timing.normalized_ns() as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizing_scales_by_the_reference() {
        let reference = REFERENCE_NS as u64;
        assert_eq!(normalize(5_000, reference), 5_000);
        assert_eq!(normalize(5_000, 2 * reference), 2_500);
        assert_eq!(normalize(5_000, 0), (5_000.0 * REFERENCE_NS) as u64);
        let timing = Timing {
            raw_ns: 5_000,
            reference_ns: 2 * reference,
        };
        assert_eq!(timing.normalized_ns(), 2_500);
        assert_eq!(timing.normalized_rate(100.0), 200.0);
    }

    #[test]
    fn bracketing_averages_the_readings_around_the_step() {
        let readings = std::cell::Cell::new(0u64);
        let reference = || {
            readings.set(readings.get() + 1);
            readings.get() * 1_000
        };
        let (value, timing) = bracketed(reference, || 7);
        assert_eq!(value, 7);
        assert_eq!(readings.get(), 2);
        assert_eq!(timing.reference_ns, 1_500);
    }

    #[test]
    fn the_reference_does_work() {
        assert!(reference_ns() > 0);
        assert!(reference_cores_ns(2, 1) > 0);
        assert!((1..=3).contains(&busy_cores(3)));
    }
}
