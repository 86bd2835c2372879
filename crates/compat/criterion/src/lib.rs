//! Offline stand-in for the subset of the `criterion` API used by the
//! workspace's benches.
//!
//! The build environment has no access to crates.io, so the workspace
//! pins this path crate under the `criterion` package name. It keeps the
//! same bench-authoring surface — [`Criterion`], [`BenchmarkGroup`],
//! [`BenchmarkId`], [`Bencher::iter`] / [`Bencher::iter_batched`],
//! [`BatchSize`], [`black_box`], [`criterion_group!`] and
//! [`criterion_main!`] — and measures with a simple
//! warmup-then-sample wall-clock loop, reporting min/median/mean per
//! benchmark. Statistical analysis and plotting are intentionally out of
//! scope; `cargo bench` output is indicative.
//!
//! One extension beyond the criterion surface: when the
//! `RECLUSTER_BENCH_JSON` environment variable names a file, every
//! benchmark appends its median as one JSON object per line
//! (`{"id":…,"unit":"seconds","value":…}`), and [`record_value`] lets
//! benches emit non-time metrics (message counts, ratios) into the same
//! sink — the raw material of the CI bench-trend gate (see the
//! `bench-trend` binary in `recluster-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`], criterion's optimizer barrier.
pub use std::hint::black_box;

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 30;

/// Wall-clock budget one benchmark aims to stay within.
const DEFAULT_MEASUREMENT_TIME: Duration = Duration::from_millis(500);

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Applies command-line configuration. Recognizes a positional
    /// substring filter (as `cargo bench -- <filter>` passes) and
    /// ignores harness flags such as `--bench`.
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            measurement_time: DEFAULT_MEASUREMENT_TIME,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_benchmark(
            &id,
            self.filter.as_deref(),
            DEFAULT_SAMPLE_SIZE,
            DEFAULT_MEASUREMENT_TIME,
            f,
        );
        self
    }
}

/// A group of benchmarks sharing a name prefix and sampling settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the wall-clock measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_benchmark(
            &full,
            self.criterion.filter.as_deref(),
            self.sample_size,
            self.measurement_time,
            f,
        );
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A benchmark identifier: function name, parameter, or both.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter rendering.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id that is just a parameter rendering.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// How much setup output `iter_batched` amortizes per timing batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small routine inputs: many iterations per batch.
    SmallInput,
    /// Large routine inputs: one iteration per batch.
    LargeInput,
    /// Exactly one setup per timed iteration.
    PerIteration,
}

/// Passed to the benchmark closure; runs and times the routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the bencher's iteration budget.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` on fresh inputs from `setup`, excluding setup
    /// time from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }

    /// Times `routine` on a mutable borrow of fresh inputs from `setup`,
    /// excluding both the setup and the input's drop from the
    /// measurement: the input is dropped after the clock stops.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let mut input = setup();
            let start = Instant::now();
            let output = black_box(routine(&mut input));
            total += start.elapsed();
            drop((output, input));
        }
        self.elapsed = total;
    }
}

/// Whether quick mode is on (`RECLUSTER_BENCH_QUICK=1`): samples are
/// capped and the measurement budget shrunk so CI can smoke-run a bench
/// in seconds. Numbers from quick runs are indicative only. Read once;
/// a value [`parse_flag`] rejects warns on stderr and leaves quick mode
/// off.
fn quick_mode() -> bool {
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| {
        let Ok(raw) = std::env::var("RECLUSTER_BENCH_QUICK") else {
            return false;
        };
        parse_flag(&raw).unwrap_or_else(|| {
            eprintln!("unknown RECLUSTER_BENCH_QUICK={raw:?}, ignoring");
            false
        })
    })
}

/// Parses a flag: `1`/`true` or `0`/`false` (either case), the values
/// `recluster_sim::knobs::parse_flag` accepts.
fn parse_flag(s: &str) -> Option<bool> {
    match s.to_ascii_lowercase().as_str() {
        "1" | "true" => Some(true),
        "0" | "false" => Some(false),
        _ => None,
    }
}

/// Appends one metric to the `RECLUSTER_BENCH_JSON` sink (no-op when the
/// variable is unset). One JSON object per line; the `bench-trend`
/// binary folds the lines into a proper JSON array.
fn append_json_metric(id: &str, unit: &str, value: f64) {
    let Some(path) = std::env::var_os("RECLUSTER_BENCH_JSON") else {
        return;
    };
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = writeln!(f, "{}", json_metric_line(id, unit, value));
        }
        Err(e) => eprintln!("RECLUSTER_BENCH_JSON: cannot append to {path:?}: {e}"),
    }
}

/// One sink line: a self-contained JSON object.
fn json_metric_line(id: &str, unit: &str, value: f64) -> String {
    format!("{{\"id\":{id:?},\"unit\":{unit:?},\"value\":{value:e}}}")
}

/// Records a non-time metric (a message count, a ratio, …) into the
/// bench report and the `RECLUSTER_BENCH_JSON` sink. Deterministic
/// metrics recorded this way give the CI trend gate machine-independent
/// series next to the wall-clock medians.
pub fn record_value(id: &str, unit: &str, value: f64) {
    println!("bench: {id:<50} value {value} {unit}");
    append_json_metric(id, unit, value);
}

fn run_benchmark<F>(
    id: &str,
    filter: Option<&str>,
    mut sample_size: usize,
    mut measurement_time: Duration,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    if let Some(filter) = filter {
        if !id.contains(filter) {
            return;
        }
    }
    if quick_mode() {
        sample_size = sample_size.min(5);
        measurement_time = measurement_time.min(Duration::from_millis(100));
    }

    // Calibrate: one iteration, to size the per-sample iteration count
    // so the whole benchmark fits roughly in the measurement budget.
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let per_iter = bencher.elapsed.max(Duration::from_nanos(1));
    let budget_per_sample = measurement_time / sample_size as u32;
    let iters = (budget_per_sample.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut samples: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut bencher = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        samples.push(bencher.elapsed.as_secs_f64() / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "bench: {id:<50} min {} | median {} | mean {} ({sample_size} samples x {iters} iters)",
        fmt_time(min),
        fmt_time(median),
        fmt_time(mean),
    );
    append_json_metric(id, "seconds", median);
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:8.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:8.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:8.2} ms", secs * 1e3)
    } else {
        format!("{secs:8.2} s ")
    }
}

/// Declares a group of benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point, mirroring
/// `criterion::criterion_main!`.
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
    fn flags_parse_both_spellings_and_reject_the_rest() {
        for on in ["1", "true", "TRUE", "True"] {
            assert_eq!(parse_flag(on), Some(true), "{on:?}");
        }
        for off in ["0", "false", "FALSE"] {
            assert_eq!(parse_flag(off), Some(false), "{off:?}");
        }
        for bad in ["yes", "on", "", " 1", "2", "-1", "truee"] {
            assert_eq!(parse_flag(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn iter_and_iter_batched_measure() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("compat");
        group.sample_size(2);
        group.measurement_time(Duration::from_millis(5));
        group.bench_function("iter", |b| b.iter(|| 1u64 + 1));
        group.bench_with_input(BenchmarkId::new("batched", 3), &3u64, |b, &n| {
            b.iter_batched(
                || vec![n; 4],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }

    #[test]
    fn iter_batched_ref_drops_the_input_after_the_clock() {
        const DROP: Duration = Duration::from_millis(30);
        struct SlowDrop(u64);
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(DROP);
            }
        }
        let mut b = Bencher {
            iters: 3,
            elapsed: Duration::ZERO,
        };
        let mut seen = Vec::new();
        b.iter_batched_ref(
            || SlowDrop(7),
            |input| {
                seen.push(input.0);
                input.0 += 1;
            },
            BatchSize::LargeInput,
        );
        assert_eq!(seen, [7, 7, 7], "a fresh input per iteration");
        assert!(b.elapsed < DROP, "timed a drop: {:?}", b.elapsed);
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::new("f", "p").to_string(), "f/p");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }

    #[test]
    fn json_metric_lines_are_self_contained_objects() {
        let line = json_metric_line("cost/pcost", "seconds", 1.25e-6);
        assert_eq!(
            line,
            "{\"id\":\"cost/pcost\",\"unit\":\"seconds\",\"value\":1.25e-6}"
        );
        let count = json_metric_line("routing/messages", "msgs", 42.0);
        assert_eq!(
            count,
            "{\"id\":\"routing/messages\",\"unit\":\"msgs\",\"value\":4.2e1}"
        );
    }
}
