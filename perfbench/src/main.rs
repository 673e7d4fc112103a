//! RTRBench performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload loop-pfl --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times the workload (`loop-pfl` or `loop-ekf`) and prints
//! its end-to-end metrics; `--trace 1` runs the separate per-layer pass over
//! `loop-pfl`, `loop-ekf`, `suite` and `char`.
//! Human-readable lines come first; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when any output is wrong, including a replay that differs
//! from round 1. See `perfbench/NOTES.md` for the design.

mod estimator;
mod kernels;
mod loops;
mod measure;
mod report;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use estimator::percentile;
use kernels::KernelWorkload;
use loops::{LOOP_EKF, LOOP_PFL};
use measure::{Measurement, Outcome};
use report::{peak_rss_mib, provenance, result_line, Metrics};

/// The timed workloads (`BENCHMARK.json` lists these).
const WORKLOADS: [&str; 2] = ["loop-pfl", "loop-ekf"];

/// Share of `--seconds` left for the untimed correctness checks after
/// the last round.
const CHECK_RESERVE: f64 = 0.1;

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run reports besides its metrics.
struct Verdict {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# rtr-perfbench workload={} seed={} seconds={} trace={}",
        options.workload, options.seed, options.seconds, options.trace as u8
    );
    println!("{}", provenance());

    let mut metrics = Metrics::default();
    let verdict = if options.trace {
        per_layer(&mut metrics)
    } else {
        end_to_end(&options, &mut metrics)
    };
    let section = if options.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    if let Err(e) = metrics.validate(section) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }

    for (name, value, unit) in metrics.entries() {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    for error in &verdict.errors {
        println!("# FAILED {error}");
    }
    let correct = verdict.failed == 0 && verdict.errors.is_empty();
    println!(
        "{}",
        result_line(correct, verdict.attempted, verdict.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The timed run of one workload.
fn end_to_end(options: &Options, metrics: &mut Metrics) -> Verdict {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(options.seconds as f64 * (1.0 - CHECK_RESERVE));
    let spec = if options.workload == "loop-pfl" {
        LOOP_PFL
    } else {
        LOOP_EKF
    };
    let run = spec.measure(options.seed, started, budget);
    let mut errors: Vec<String> = spec.check_threads(&run).err().into_iter().collect();
    let measurement = run.measurement;

    let ticks = measurement.step_minima();
    let mut tick_us = |q: f64| match percentile(&ticks, q) {
        Ok(p) => {
            println!(
                "# tick_p{:.0}: {} samples, {} beyond",
                q * 100.0,
                p.samples,
                p.beyond
            );
            p.value * 1e6
        }
        Err(e) => {
            errors.push(e.to_string());
            0.0
        }
    };
    let p50 = tick_us(0.5);
    let p99 = tick_us(0.99);
    metrics.push("setup_s".into(), measurement.setup_s(), "s");
    metrics.push("roi_s".into(), measurement.step_roi_s(), "s");
    metrics.push("tick_p50_us".into(), p50, "us");
    // The tick tail is flat, so the p99 of per-tick minima lands on
    // whichever ticks never drew a fast replay: printed, not bounded.
    println!("{:<40} {p99:>16.6} us", "tick_p99_us");
    let rss = peak_rss_mib().unwrap_or_else(|| {
        errors.push("VmHWM is not readable".into());
        0.0
    });
    metrics.push("peak_rss_mib".into(), rss, "MiB");
    print_outcomes(&measurement, started);
    Verdict {
        attempted: measurement.len(),
        failed: failed_units(&measurement) + errors.len(),
        errors,
    }
}

/// Units that failed: an error, or a replay that differed from round 1.
fn failed_units(measurement: &Measurement) -> usize {
    let errors = measurement
        .outcomes()
        .filter(|o| matches!(o, Outcome::Error(_)))
        .count();
    errors + measurement.mismatched_units()
}

/// Prints the run's shape and the mission outcomes behind `fail_share`.
fn print_outcomes(measurement: &Measurement, started: Instant) {
    let count = |want: fn(&Outcome) -> bool| measurement.outcomes().filter(|o| want(o)).count();
    let refused = count(|o| *o == Outcome::Refused);
    let missed = count(|o| *o == Outcome::GoalMissed);
    let cut = count(|o| *o == Outcome::Cut);
    let errors = count(|o| matches!(o, Outcome::Error(_)));
    let mismatched = measurement.mismatched_units();
    let units = measurement.len();
    println!(
        "# rounds R={} units={units} wall={:.1}s",
        measurement.rounds(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "# outcomes refused={refused} goal_missed={missed} cut_by_tick_budget={cut} \
         errors={errors} replay_mismatches={mismatched}"
    );
    println!(
        "{:<40} {:>16.6} share",
        "fail_share",
        (refused + missed + errors + mismatched) as f64 / units as f64
    );
}

/// The per-layer pass over every workload, kept apart from the timed
/// runs.
fn per_layer(metrics: &mut Metrics) -> Verdict {
    let mut attempted = 0;
    let mut failed = 0;
    for spec in [LOOP_PFL, LOOP_EKF] {
        let (a, f) = spec.layers(metrics);
        attempted += a;
        failed += f;
    }
    for workload in [KernelWorkload::Suite, KernelWorkload::Char] {
        let (a, f) = workload.layers(metrics);
        attempted += a;
        failed += f;
    }
    Verdict {
        attempted,
        failed,
        errors: Vec::new(),
    }
}
