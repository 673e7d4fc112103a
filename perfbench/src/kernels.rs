//! The kernel workloads: `suite` (all 16 registry kernels at their
//! default inputsets, untraced) and `char` (the small-inputset cache
//! characterization, 16 kernels × VLDP off/on, on the inline transport).
//!
//! Both are measured in the per-layer pass only. They drive the stepped
//! lifecycle `instantiate` → `step`… → `finish` directly so that each
//! `step` is timed on its own.

use std::time::Instant;

use rtr_bench::characterization::{small_args, traced_run};
use rtr_core::{registry, registry_lookup, Kernel, KernelReport, StepStatus, TraceSession};
use rtr_harness::Args;

use crate::measure::{secs, Outcome, Replay};
use crate::report::Metrics;

/// VLDP degree of the characterization's VLDP-on column (the
/// characterization binary's default).
const VLDP_DEGREE: usize = 4;

/// Regions a kernel records while it is instantiated, outside the ROI.
const SETUP_REGIONS: &[&str] = &["offline_build"];

/// Dominant suite regions reported per layer: (kernel, region).
const SUITE_REGIONS: &[(&str, &str)] = &[
    ("01.pfl", "ray_casting"),
    ("04.pp2d", "collision_detection"),
    ("03.srec", "nn_search"),
    ("14.mpc", "optimize"),
    ("07.prm", "offline_build"),
];

/// Exact counts reported per layer: (kernel, metric label, name).
const SUITE_COUNTS: &[(&str, &str, &str)] = &[
    ("01.pfl", "cells probed", "cells_probed"),
    ("04.pp2d", "collision checks", "collision_checks"),
];

/// Plain replays of each unit in the per-layer pass; the per-layer
/// figures come from each unit's fastest replay.
const LAYER_ROUNDS: usize = 2;

/// One unit: a registry kernel with its parsed arguments.
struct Unit {
    kernel: Box<dyn Kernel>,
    args: Args,
    /// VLDP degree of a traced characterization cell (`None` untraced).
    vldp: Option<usize>,
}

/// Which kernel workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelWorkload {
    /// All 16 kernels, default inputsets, untraced.
    Suite,
    /// 16 kernels × VLDP off/on, small inputsets, traced.
    Char,
}

/// One unit per registry kernel and entry of `cells`, in registry order:
/// default inputsets for `suite`, small inputsets traced at each
/// `Some(vldp)` (or untraced at `None`) for `char`.
fn units(workload: KernelWorkload, cells: &[Option<usize>]) -> Vec<Unit> {
    let mut units = Vec::new();
    for name in registry().iter().map(|k| k.name()) {
        for &vldp in cells {
            let kernel = registry_lookup(name).expect("registry kernel");
            let mut tokens: Vec<String> = Vec::new();
            if workload == KernelWorkload::Char {
                tokens.extend(small_args(name).iter().map(|t| t.to_string()));
            }
            if let Some(degree) = vldp {
                tokens.push("--trace".into());
                if degree > 0 {
                    tokens.extend(["--vldp".to_string(), degree.to_string()]);
                }
            }
            if kernel.cli_options().iter().any(|o| o.name == "threads") {
                tokens.extend(["--threads".to_string(), "1".to_string()]);
            }
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            let args = Args::parse_tokens(&refs).expect("benchmark arguments parse");
            units.push(Unit { kernel, args, vldp });
        }
    }
    units
}

/// Runs one unit through the stepped lifecycle. Set-up is the trace
/// session plus `instantiate`; each `step` is timed; `finish` (which
/// drains a trace buffer into the simulator) is the ROI tail.
fn run_unit(unit: &Unit) -> (Replay, Option<KernelReport>) {
    let failed = |setup: f64, steps: Vec<f64>, e: String| Replay {
        setup,
        steps,
        tail: 0.0,
        fingerprint: format!("error {e}"),
        outcome: Outcome::Error(e),
    };
    let start = Instant::now();
    let instance = TraceSession::from_args(&unit.args)
        .and_then(|session| Ok((session, unit.kernel.instantiate(&unit.args)?)));
    let setup = secs(start);
    let (mut session, mut instance) = match instance {
        Ok(pair) => pair,
        Err(e) => return (failed(setup, Vec::new(), e.to_string()), None),
    };
    let mut steps = Vec::new();
    loop {
        let start = Instant::now();
        let status = instance.step(session.sink());
        steps.push(secs(start));
        match status {
            Ok(StepStatus::Running) => {}
            Ok(StepStatus::Done) => break,
            Err(e) => return (failed(setup, steps, e.to_string()), None),
        }
    }
    let roi: f64 = steps.iter().sum();
    let start = Instant::now();
    let report = instance.finish(roi, session);
    let tail = secs(start);
    match report {
        Ok(report) => {
            let replay = Replay {
                setup,
                steps,
                tail,
                fingerprint: format!("{:?}|{:?}", report.metrics, report.cache),
                outcome: Outcome::Done,
            };
            (replay, Some(report))
        }
        Err(e) => (failed(setup, steps, e.to_string()), None),
    }
}

/// Checks each `suite` kernel's stepped output against the one-shot
/// `Kernel::run`, a path the benchmark does not time. Returns the kernels
/// that differ.
fn check_suite(units: &[Unit], runs: &[Fastest]) -> usize {
    let mut failed = 0;
    for (unit, run) in units.iter().zip(runs) {
        let one_shot = unit
            .kernel
            .run(&unit.args)
            .map(|r| format!("{:?}|{:?}", r.metrics, r.cache))
            .unwrap_or_else(|e| format!("error {e}"));
        if run.replay.fingerprint != one_shot {
            println!(
                "# FAILED suite: {} stepped metrics differ from Kernel::run",
                unit.kernel.name()
            );
            failed += 1;
        }
    }
    failed
}

/// A unit's fastest replay in the per-layer pass.
struct Fastest {
    /// Least set-up time, and the steps and tail of the replay with the
    /// least ROI.
    replay: Replay,
    /// The report of the replay with the least ROI.
    report: Option<KernelReport>,
    /// An error, or a replay whose output differed from round 1.
    failed: bool,
}

/// Runs every unit [`LAYER_ROUNDS`] times, round by round.
fn fastest(units: &[Unit]) -> Vec<Fastest> {
    let mut best: Vec<Fastest> = units
        .iter()
        .map(|u| {
            let (replay, report) = run_unit(u);
            Fastest {
                failed: replay.outcome != Outcome::Done,
                replay,
                report,
            }
        })
        .collect();
    for _ in 1..LAYER_ROUNDS {
        for (unit, best) in units.iter().zip(&mut best) {
            let (replay, report) = run_unit(unit);
            best.failed |= replay.fingerprint != best.replay.fingerprint;
            let setup = best.replay.setup.min(replay.setup);
            if replay.roi() < best.replay.roi() {
                best.replay = replay;
                best.report = report;
            }
            best.replay.setup = setup;
        }
    }
    best
}

/// Checks the characterization cells, kernel by kernel (VLDP off, then
/// on): prefetching never changes the demand stream, and the `13.dmp`
/// cell equals the library's own `traced_run`. Returns the kernels that
/// fail.
fn check_char(cells: &[Fastest]) -> usize {
    let mut failed = 0;
    for pair in cells.chunks(2) {
        let [Some(off), Some(on)] = [&pair[0].report, &pair[1].report] else {
            println!("# FAILED char: a cell failed");
            failed += 1;
            continue;
        };
        let (Some(off_cache), Some(on_cache)) = (&off.cache, &on.cache) else {
            println!("# FAILED char: {} ignored --trace", off.name);
            failed += 1;
            continue;
        };
        let mut ok = (off_cache.accesses, off_cache.reads, off_cache.writes)
            == (on_cache.accesses, on_cache.reads, on_cache.writes);
        if !ok {
            println!(
                "# FAILED char: {} demand stream changes with VLDP on",
                off.name
            );
        }
        if off.name == "13.dmp"
            && traced_run("13.dmp", false, VLDP_DEGREE).as_ref().ok() != Some(on_cache)
        {
            println!("# FAILED char: 13.dmp cell differs from the library's traced_run");
            ok = false;
        }
        failed += usize::from(!ok);
    }
    failed
}

impl KernelWorkload {
    /// The per-layer pass: every unit replayed [`LAYER_ROUNDS`] times;
    /// times, regions and counts come from each unit's fastest replay.
    /// `char` also runs its small inputsets untraced, so that
    /// `char.trace_overhead_share` compares the sweep with the same
    /// kernels on `NullTrace`; `suite` has no traced counterpart.
    ///
    /// Returns the units attempted and those that failed, a replay
    /// mismatch or a failed [`check_suite`] / [`check_char`] included.
    pub fn layers(self, metrics: &mut Metrics) -> (usize, usize) {
        let cells: &[Option<usize>] = match self {
            KernelWorkload::Suite => &[None],
            KernelWorkload::Char => &[Some(0), Some(VLDP_DEGREE)],
        };
        let list = units(self, cells);
        let runs = fastest(&list);
        let mut failed = runs.iter().filter(|r| r.failed).count();
        let roi: f64 = runs.iter().map(|r| r.replay.roi()).sum();
        let mut attributed = 0.0;
        for run in &runs {
            if let Some(report) = &run.report {
                attributed += report
                    .regions
                    .iter()
                    .filter(|r| !SETUP_REGIONS.contains(&r.name.as_str()))
                    .map(|r| r.total.as_secs_f64())
                    .sum::<f64>()
                    .min(run.replay.roi());
            }
        }
        let prefix = match self {
            KernelWorkload::Suite => {
                suite_layers(&list, &runs, metrics);
                failed += check_suite(&list, &runs);
                "suite"
            }
            KernelWorkload::Char => {
                char_layers(&list, &runs, metrics);
                failed += check_char(&runs);
                let untraced = fastest(&units(self, &[None]));
                failed += untraced.iter().filter(|r| r.failed).count();
                // Each kernel runs once per VLDP column.
                let untraced_roi: f64 =
                    untraced.iter().map(|r| r.replay.roi()).sum::<f64>() * cells.len() as f64;
                metrics.push(
                    "char.trace_overhead_share".into(),
                    roi / untraced_roi - 1.0,
                    "share",
                );
                "char"
            }
        };
        metrics.push(
            format!("{prefix}.unattributed_share"),
            1.0 - attributed / roi,
            "share",
        );
        (list.len(), failed)
    }
}

fn region_s(report: &KernelReport, name: &str) -> f64 {
    report
        .regions
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.total.as_secs_f64())
        .sum()
}

fn suite_layers(units: &[Unit], runs: &[Fastest], metrics: &mut Metrics) {
    for (unit, Fastest { replay, .. }) in units.iter().zip(runs) {
        let k = unit.kernel.name();
        metrics.push(format!("suite.{k}.setup_s"), replay.setup, "s");
        metrics.push(format!("suite.{k}.roi_s"), replay.roi() - replay.tail, "s");
    }
    let report = |name: &str| {
        units
            .iter()
            .position(|u| u.kernel.name() == name)
            .and_then(|i| runs[i].report.as_ref())
    };
    for &(kernel, region) in SUITE_REGIONS {
        let s = report(kernel).map_or(0.0, |r| region_s(r, region));
        metrics.push(format!("suite.{kernel}.{region}_s"), s, "s");
    }
    for &(kernel, label, name) in SUITE_COUNTS {
        let count = report(kernel)
            .and_then(|r| r.metrics.iter().find(|(l, _)| l == label))
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        metrics.push(format!("suite.{kernel}.{name}"), count, "count");
    }
}

fn char_layers(units: &[Unit], runs: &[Fastest], metrics: &mut Metrics) {
    let (mut off_s, mut on_s) = (0.0, 0.0);
    let (mut off_accesses, mut on_accesses, mut memory) = (0u64, 0u64, 0u64);
    for (pair, cells) in units.chunks(2).zip(runs.chunks(2)) {
        let kernel = pair[0].kernel.name();
        let cell_s: f64 = cells.iter().map(|c| c.replay.roi()).sum();
        metrics.push(format!("char.{kernel}_s"), cell_s, "s");
        for (unit, Fastest { replay, report, .. }) in pair.iter().zip(cells) {
            let cache = report.as_ref().and_then(|r| r.cache.as_ref());
            let accesses = cache.map_or(0, |c| c.accesses);
            memory += cache.map_or(0, |c| c.memory_accesses);
            if unit.vldp == Some(0) {
                off_s += replay.roi();
                off_accesses += accesses;
            } else {
                on_s += replay.roi();
                on_accesses += accesses;
            }
        }
    }
    metrics.push("char.vldp_off_s".into(), off_s, "s");
    metrics.push("char.vldp_on_s".into(), on_s, "s");
    metrics.push("char.accesses".into(), off_accesses as f64, "count");
    metrics.push("char.memory_accesses".into(), memory as f64, "count");
    metrics.push(
        "archsim.off_ns_per_access".into(),
        off_s * 1e9 / off_accesses.max(1) as f64,
        "ns",
    );
    metrics.push(
        "archsim.on_ns_per_access".into(),
        on_s * 1e9 / on_accesses.max(1) as f64,
        "ns",
    );
}
