//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness, implementing the subset this workspace's benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple: warm up briefly, pick an iteration
//! count targeting a fixed measurement window, then report the mean
//! nanoseconds per iteration over three samples (minimum taken). Results are
//! printed to stdout.
//!
//! Environment knobs: `CRITERION_MEASURE_MS=<ms>` (measurement window per
//! sample, default 200), `CRITERION_WARMUP_MS=<ms>` (warmup window, default
//! 50).

#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The benchmark harness root.
pub struct Criterion {
    warmup: Duration,
    measure: Duration,
}

fn env_ms(key: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms),
    )
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warmup: env_ms("CRITERION_WARMUP_MS", 50),
            measure: env_ms("CRITERION_MEASURE_MS", 200),
        }
    }
}

impl Criterion {
    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher {
            warmup: self.warmup,
            measure: self.measure,
            ns_per_iter: None,
            iters: 0,
        };
        f(&mut bencher);
        self.report(name, &bencher);
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    fn report(&self, name: &str, bencher: &Bencher) {
        let ns = bencher.ns_per_iter.unwrap_or(f64::NAN);
        println!(
            "bench: {name:<48} {ns:>14.1} ns/iter  ({} iters)",
            bencher.iters
        );
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.criterion.bench_function(&full, f);
        self
    }

    /// Run one parameterized benchmark inside the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.0);
        self.criterion.bench_function(&full, |b| f(b, input));
        self
    }

    /// Set the upstream sample count (no-op; the shim always takes three
    /// samples — provided for API compatibility).
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Finish the group (no-op; provided for API compatibility).
    pub fn finish(&mut self) {}
}

/// A benchmark identifier: function name plus parameter.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }
}

/// Upstream's hint for how many inputs to batch. The shim accepts it for
/// API compatibility and treats every size alike: [`Bencher::iter_batched`]
/// holds one input at a time.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One setup call per routine call.
    PerIteration,
}

/// Measures a closure's throughput.
pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    ns_per_iter: Option<f64>,
    iters: u64,
}

impl Bencher {
    /// Measure `routine` called back-to-back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warmup and calibration: count iterations that fit the warmup window.
        let start = Instant::now();
        let mut calibration_iters = 0u64;
        while start.elapsed() < self.warmup {
            black_box(routine());
            calibration_iters += 1;
        }
        let per_iter = self.warmup.as_secs_f64() / calibration_iters.max(1) as f64;
        let target = ((self.measure.as_secs_f64() / per_iter) as u64).clamp(1, 1_000_000_000);
        // Three samples; keep the fastest (least-noise) estimate.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for _ in 0..target {
                black_box(routine());
            }
            let ns = t.elapsed().as_nanos() as f64 / target as f64;
            best = best.min(ns);
        }
        self.ns_per_iter = Some(best);
        self.iters = target * 3 + calibration_iters;
    }

    /// Measure `routine` over fresh inputs built by `setup`; setup time is
    /// excluded from the measurement. One input is live at a time: it is
    /// built, its routine call timed, and it is dropped before the next is
    /// built, whatever the `size` hint.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let start = Instant::now();
        let mut calibration_iters = 0u64;
        let mut spent = Duration::ZERO;
        while start.elapsed() < self.warmup {
            spent += time_one(&mut routine, setup());
            calibration_iters += 1;
        }
        let per_iter = (spent.as_secs_f64() / calibration_iters.max(1) as f64).max(1e-9);
        let target = ((self.measure.as_secs_f64() / per_iter) as u64).clamp(1, 10_000_000);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let elapsed: Duration = (0..target).map(|_| time_one(&mut routine, setup())).sum();
            let ns = elapsed.as_nanos() as f64 / target as f64;
            best = best.min(ns);
        }
        self.ns_per_iter = Some(best);
        self.iters = target * 3 + calibration_iters;
    }
}

/// Time one routine call on `input`; its output is dropped after the clock
/// stops.
fn time_one<I, O>(routine: &mut impl FnMut(I) -> O, input: I) -> Duration {
    let t = Instant::now();
    let out = black_box(routine(input));
    let elapsed = t.elapsed();
    drop(out);
    elapsed
}

/// Bundle benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        std::env::set_var("CRITERION_WARMUP_MS", "1");
        std::env::set_var("CRITERION_MEASURE_MS", "2");
        let mut c = Criterion::default();
        c.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let mut group = c.benchmark_group("g");
        group.bench_with_input(BenchmarkId::new("param", 3), &3u64, |b, n| {
            b.iter_batched(|| *n, |x| x * 2, BatchSize::SmallInput)
        });
        group.finish();
    }

    /// An input is built, timed and dropped before the next is built, for
    /// every size hint.
    #[test]
    fn inputs_are_live_one_at_a_time() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        struct Input;
        impl Input {
            fn new() -> Self {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                Input
            }
        }
        impl Drop for Input {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let mut bencher = Bencher {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(2),
            ns_per_iter: None,
            iters: 0,
        };
        for size in [
            BatchSize::SmallInput,
            BatchSize::LargeInput,
            BatchSize::PerIteration,
        ] {
            PEAK.store(0, Ordering::SeqCst);
            bencher.iter_batched(Input::new, drop, size);
            assert_eq!(PEAK.load(Ordering::SeqCst), 1, "{size:?}");
            assert!(bencher.ns_per_iter.is_some_and(|ns| ns > 0.0));
        }
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }
}
