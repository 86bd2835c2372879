//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Repeats set-up + run of one workload for about `--seconds` seconds,
//! cycling over the workload's inputs (each at least once) untraced;
//! with `--trace 1`, alternating untraced and traced repetitions of the
//! seed's own input, at least one of each. Checks every output, and
//! prints a summary line and, last, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use recluster_perfbench::churn::Churn;
use recluster_perfbench::heap::CountingAlloc;
use recluster_perfbench::rss::RssWatermark;
use recluster_perfbench::runtime::Runtime;
use recluster_perfbench::stats::{mean, median};
use recluster_perfbench::traffic::Traffic;
use recluster_perfbench::{
    input_seed, run_rep, Rep, Values, Workload, END_TO_END, GOLDEN_SEED, PER_LAYER,
};

const USAGE: &str = "usage: recluster-perfbench --workload <churn_100k|churn_100k_observed|traffic_1m|runtime_1k> [--seed <u64>] [--seconds <n>] [--trace <0|1>]";

/// Counts live heap bytes for `peak_heap_mb`.
#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

/// Environment knobs that change what the program computes or how; a
/// measurement taken under one would not be comparable.
const REFUSED_KNOBS: &[&str] = &[
    "RECLUSTER_MEMO",
    "RECLUSTER_SHARD_MIN",
    "RECLUSTER_ROUTING",
    "RECLUSTER_DECISIONS",
];

/// Set-up samples a run takes per input at most, when the budget has
/// room.
const MAX_SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: 25,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = REFUSED_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("refusing to run with {knob} set: unset it to measure the default program");
        return ExitCode::from(2);
    }
    // The shim honours RAYON_NUM_THREADS; never go wider than the
    // machine, and record what was used.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = rayon::current_num_threads().min(nproc);
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build_global()
        .expect("the shim pool always builds");

    let rss = RssWatermark::start();
    let measured = match args.workload.as_str() {
        "churn_100k" => measure(&Churn { observed: false }, &args),
        "churn_100k_observed" => measure(&Churn { observed: true }, &args),
        "traffic_1m" => measure(&Traffic, &args),
        "runtime_1k" => measure(&Runtime, &args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let vmhwm_mb = rss.peak_mb();
    print_result(&args, width as f64, vmhwm_mb, &measured);
    ExitCode::SUCCESS
}

/// Everything one process measured.
struct Measured {
    /// The seed of each input, the run's own first.
    seeds: Vec<u64>,
    /// Untraced repetitions, by input.
    untraced: Vec<Vec<Rep>>,
    /// Traced repetitions, all of the first input.
    traced: Vec<Rep>,
    /// Set-up samples, by input.
    setups: Vec<Vec<f64>>,
    failed: usize,
    reported: &'static [(&'static str, &'static str, &'static str)],
}

fn measure<W: Workload>(workload: &W, args: &Args) -> Measured {
    // A traced run stays on its own seed's input, so its traced
    // repetitions' counts can be held to the untraced ones.
    let n_inputs = if args.trace { 1 } else { workload.inputs() };
    let seeds: Vec<u64> = (0..n_inputs).map(|j| input_seed(args.seed, j)).collect();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut untraced: Vec<Vec<Rep>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<Rep> = Vec::new();
    for done in 1.. {
        let j = (done - 1) % n_inputs;
        untraced[j].push(run_rep(workload, seeds[j], false));
        if args.trace {
            traced.push(run_rep(workload, seeds[j], true));
        }
        let per_iteration = start.elapsed() / done as u32;
        if done >= n_inputs && start.elapsed() + per_iteration > budget {
            break;
        }
    }
    // Set-ups are short next to runs on some workloads; take extra
    // samples, input by input, while the budget allows, so their
    // medians are as steady.
    let mut setups: Vec<Vec<f64>> = untraced
        .iter()
        .map(|reps| reps.iter().map(|r| r.setup_s).collect())
        .collect();
    for j in (0..n_inputs).cycle() {
        let samples = &mut setups[j];
        if samples.len() >= MAX_SETUPS
            || start.elapsed().as_secs_f64() + median(samples) > budget.as_secs_f64()
        {
            break;
        }
        let t = Instant::now();
        let bed = workload.setup(seeds[j]);
        samples.push(t.elapsed().as_secs_f64());
        drop(bed);
    }

    // Every repetition must pass its check and repeat its input's first
    // repetition bit for bit; traced ones repeat the first input's.
    let mut failed = 0;
    let reps = untraced
        .iter()
        .enumerate()
        .flat_map(|(j, reps)| reps.iter().map(move |rep| (j, rep, "")))
        .chain(traced.iter().map(|rep| (0, rep, " (traced)")));
    for (j, rep, kind) in reps {
        let reference = &untraced[j][0].outcome;
        let verdict = rep.outcome.check.clone().and_then(|()| {
            if rep.outcome.digest != reference.digest || rep.outcome.values != reference.values {
                Err(format!(
                    "output {:016x} differs from the first repetition's {:016x}",
                    rep.outcome.digest, reference.digest
                ))
            } else {
                Ok(())
            }
        });
        eprintln!(
            "seed {}{kind}: setup {:.3} s, run {:.3} s, {}",
            seeds[j],
            rep.setup_s,
            rep.run_s,
            match &verdict {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("FAILED: {e}"),
            }
        );
        if verdict.is_err() {
            failed += 1;
        }
    }
    Measured {
        seeds,
        untraced,
        traced,
        setups,
        failed,
        reported: W::REPORTED,
    }
}

/// Prints the summary line, which adds the process's `VmHWM` as
/// `peak_rss_mb` for reference, and the result object. Each end-to-end
/// metric is the mean over the inputs of its median over the input's
/// repetitions; the workload's own results are the first input's.
fn print_result(args: &Args, width: f64, vmhwm_mb: f64, m: &Measured) {
    let by_input = |metric: fn(&Rep) -> f64| -> Vec<f64> {
        m.untraced
            .iter()
            .map(|reps| median(&reps.iter().map(metric).collect::<Vec<_>>()))
            .collect()
    };
    let run_s = by_input(|r| r.run_s);
    let setup_s: Vec<f64> = m.setups.iter().map(|s| median(s)).collect();
    let e2e: Values = [
        ("setup_s", mean(&setup_s)),
        ("run_s", mean(&run_s)),
        ("peak_heap_mb", mean(&by_input(|r| r.peak_heap_mb))),
        ("scost", mean(&by_input(|r| r.outcome.values["scost"]))),
    ]
    .into_iter()
    .collect();

    let mut values = m.untraced[0][0].outcome.values.clone();
    if let Some(&queries) = values.get("traffic.queries") {
        values.insert("traffic.queries_per_s", queries / run_s[0]);
    }

    let mut summary = format!(
        "{} seed={} inputs={} pool={width} reps={} setups={}",
        args.workload,
        args.seed,
        m.seeds.len(),
        m.untraced.iter().map(Vec::len).sum::<usize>(),
        m.setups.iter().map(Vec::len).sum::<usize>()
    );
    for &(name, unit) in END_TO_END {
        let _ = write!(summary, " {name}={} {unit}", e2e[name]);
    }
    let _ = write!(summary, " peak_rss_mb={vmhwm_mb} MiB");
    for &(name, key, unit) in m.reported {
        if let Some(value) = values.get(key) {
            let _ = write!(summary, " {name}={value} {unit}");
        }
    }
    println!("{summary}");

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let layers = per_layer(m, &values, run_s[0], width);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, e2e[name]))
            .collect()
    };
    let attempted = m.untraced.iter().map(Vec::len).sum::<usize>() + m.traced.len();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0,
        m.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// The traced repetitions' per-layer metrics: deterministic counts
/// from the outputs, medians of span and probe timings, and the values
/// derived from both.
fn per_layer(m: &Measured, values: &Values, untraced_run_s: f64, width: f64) -> Values {
    let mut layers = values.clone();
    let keys: std::collections::BTreeSet<&str> = m
        .traced
        .iter()
        .flat_map(|r| r.timings.keys().copied())
        .collect();
    for key in keys {
        let samples: Vec<f64> = m
            .traced
            .iter()
            .filter_map(|r| r.timings.get(key).copied())
            .collect();
        layers.insert(key, median(&samples));
    }
    let of = |layers: &Values, key: &str| layers.get(key).copied().unwrap_or(0.0);
    let traced_run_s = median(&m.traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_setup_s = median(&m.traced.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let coverage = median(
        &m.traced
            .iter()
            .map(|r| r.covered_s / r.run_s)
            .collect::<Vec<_>>(),
    );
    let probe_s = median(&m.traced.iter().map(|r| r.probe_s).collect::<Vec<_>>());
    let generate_s = traced_setup_s - of(&layers, "build.system_new_s");
    let driver_s = of(&layers, "runtime.round_s")
        - of(&layers, "strategy.propose_s")
        - of(&layers, "simnet.sent") * of(&layers, "simnet.frame_ns") * 1e-9;
    layers.extend([
        ("build.generate_s", generate_s),
        ("trace.run_s", traced_run_s),
        ("trace.untraced_run_s", untraced_run_s),
        ("trace.overhead_s", traced_run_s - untraced_run_s),
        ("trace.coverage", coverage),
        ("trace.probe_s", probe_s),
        ("pool.width", width),
    ]);
    if layers.contains_key("runtime.round_s") {
        layers.insert("runtime.driver_s", driver_s);
    }
    layers
}
