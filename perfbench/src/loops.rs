//! The closed-loop workloads: a stream of missions flown through
//! `rtr-scenario` (sense → localize → plan → track), one client at a time.

use std::time::{Duration, Instant};

use rtr_geom::{maps, Footprint, GridMap2D, Pose2};
use rtr_harness::{Collector, Profiler};
use rtr_planning::{Pp2d, Pp2dConfig};
use rtr_scenario::{LocalizerKind, ScenarioConfig, ScenarioReport, ScenarioState};
use rtr_simd::SimdMode;
use rtr_trace::{metric_channel, MetricMap, MetricPublisher, NullTrace};

use crate::measure::{secs, Measurement, Outcome, Replay};
use crate::report::Metrics;

/// Tick budget of one mission (the scenario's default).
const MISSION_TICKS: usize = 600;
/// Particles in the PFL localizer. A third of the scenario's default
/// 300 keeps localize the largest stage while a round of 1200 ticks
/// still fits about 25 times into a run.
const PARTICLES: usize = 100;
/// Plain and traced replays of each mission in the per-layer pass,
/// after round 1; the overhead compares their per-mission minima.
const LAYER_ROUNDS: usize = 4;

/// One closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    /// Workload name (`loop-pfl`, `loop-ekf`).
    pub name: &'static str,
    /// Localizer in the loop.
    pub localizer: LocalizerKind,
    /// Control ticks flown per round, summed over the mission stream.
    pub ticks: usize,
}

/// The `loop-pfl` workload.
pub const LOOP_PFL: LoopSpec = LoopSpec {
    name: "loop-pfl",
    localizer: LocalizerKind::Pfl,
    ticks: 1200,
};

/// The `loop-ekf` workload.
pub const LOOP_EKF: LoopSpec = LoopSpec {
    name: "loop-ekf",
    localizer: LocalizerKind::EkfSlam,
    ticks: 1200,
};

/// One mission of the stream: a world seed and its tick budget.
#[derive(Debug, Clone, Copy)]
pub struct Mission {
    /// Scenario seed (map, noise).
    pub seed: u64,
    /// Tick budget; below [`MISSION_TICKS`] only for the last mission,
    /// which gets what is left of the workload's tick budget.
    pub max_ticks: usize,
}

impl LoopSpec {
    fn config(&self, mission: Mission, threads: usize) -> ScenarioConfig {
        ScenarioConfig {
            max_ticks: mission.max_ticks,
            seed: mission.seed,
            localizer: self.localizer,
            particles: PARTICLES,
            threads,
            simd: SimdMode::Scalar,
        }
    }

    /// Flies one mission: `begin` is set-up, each `step` is one timed
    /// tick, `finish` is untimed. With `publisher`, stage latencies stream
    /// to it and it is handed back.
    fn fly(
        &self,
        mission: Mission,
        threads: usize,
        publisher: Option<MetricPublisher>,
    ) -> (Replay, Option<ScenarioReport>, Option<MetricPublisher>) {
        let start = Instant::now();
        let begun = ScenarioState::begin(&self.config(mission, threads));
        let setup = secs(start);
        let mut state = match begun {
            Ok(state) => state,
            Err(e) => {
                let replay = Replay {
                    setup,
                    steps: Vec::new(),
                    tail: 0.0,
                    fingerprint: format!("refused seed={} {e:?}", mission.seed),
                    outcome: Outcome::Refused,
                };
                return (replay, None, publisher);
            }
        };
        if let Some(publisher) = publisher {
            state.publish_to(publisher);
        }
        let mut steps = Vec::with_capacity(mission.max_ticks);
        loop {
            let before = state.ticks();
            let start = Instant::now();
            let more = state.step();
            let elapsed = secs(start);
            if state.ticks() > before {
                steps.push(elapsed);
            }
            if !more {
                break;
            }
        }
        let (report, publisher) = state.finish();
        let outcome = if report.goal_reached {
            Outcome::Done
        } else if report.ticks == mission.max_ticks && mission.max_ticks < MISSION_TICKS {
            Outcome::Cut
        } else {
            Outcome::GoalMissed
        };
        let replay = Replay {
            setup,
            steps,
            tail: 0.0,
            fingerprint: report.golden(),
            outcome,
        };
        (replay, Some(report), publisher)
    }

    /// Round 1: flies scenario seeds 1, 2, 3, … until the workload's tick
    /// budget is spent; refused missions fly no ticks. The list is the
    /// same for every workload seed, which only orders the later rounds:
    /// drawing missions from it made the work itself differ from seed to
    /// seed (NOTES.md N8, N9).
    fn discover(&self) -> (Vec<Mission>, Vec<Replay>) {
        let mut missions = Vec::new();
        let mut replays = Vec::new();
        let mut flown = 0;
        let mut index = 0;
        while flown < self.ticks {
            index += 1;
            let mission = Mission {
                seed: index,
                max_ticks: MISSION_TICKS.min(self.ticks - flown),
            };
            let (replay, _, _) = self.fly(mission, 1, None);
            flown += replay.steps.len();
            missions.push(mission);
            replays.push(replay);
        }
        (missions, replays)
    }

    /// The timed run: round 1 discovers the mission list, later rounds
    /// replay it until the budget is spent.
    pub fn measure(&self, seed: u64, started: Instant, budget: Duration) -> LoopRun {
        let (missions, replays) = self.discover();
        let mut measurement = Measurement::new(missions.len());
        for (unit, replay) in replays.into_iter().enumerate() {
            measurement.record(unit, replay);
        }
        measurement.first_round_done();
        measurement.run_rounds(started, budget, seed, |unit| {
            self.fly(missions[unit], 1, None).0
        });
        LoopRun {
            missions,
            measurement,
        }
    }

    /// Replays the first flown mission on two worker threads: the
    /// scenario promises a thread-count-independent golden.
    pub fn check_threads(&self, run: &LoopRun) -> Result<(), String> {
        let Some(unit) = (0..run.missions.len()).find(|&u| {
            !run.measurement
                .fingerprint(u)
                .unwrap_or("")
                .starts_with("refused")
        }) else {
            return Ok(());
        };
        let (replay, _, _) = self.fly(run.missions[unit], 2, None);
        if run.measurement.fingerprint(unit) == Some(replay.fingerprint.as_str()) {
            Ok(())
        } else {
            Err(format!(
                "{}: mission seed {} differs at --threads 2",
                self.name, run.missions[unit].seed
            ))
        }
    }

    /// The per-layer pass. After round 1, each mission is flown
    /// [`LAYER_ROUNDS`] more times plainly and as often with stage
    /// telemetry attached, in pairs, and the set-up phases are re-run
    /// once under the benchmark's own timers.
    ///
    /// Returns the missions attempted and those that failed: a replay
    /// that differs from round 1, or a set-up replica that disagrees with
    /// `begin` (then the `setup.*` figures time another program).
    pub fn layers(&self, metrics: &mut Metrics) -> (usize, usize) {
        let (missions, reference) = self.discover();

        let (publisher, reader) = metric_channel(1 << 14);
        let collector = Collector::spawn(reader, MetricMap::new());
        let mut publisher = Some(publisher);
        let mut setup = SetupPhases::default();
        let mut regions = RegionSums::default();
        let mut plain_roi = vec![f64::INFINITY; missions.len()];
        let mut traced_roi = vec![f64::INFINITY; missions.len()];
        let mut opt_iterations = 0u64;
        let mut failed = vec![false; missions.len()];
        for round in 0..LAYER_ROUNDS {
            for (i, mission) in missions.iter().enumerate() {
                // The two flights swap order each round, so that neither
                // side always runs right after a flight of the same mission.
                let plain_first = (round % 2 == 0).then(|| self.fly(*mission, 1, None).0);
                let (traced, report, back) = self.fly(*mission, 1, publisher.take());
                publisher = back;
                let plain = plain_first.unwrap_or_else(|| self.fly(*mission, 1, None).0);
                for replay in [&plain, &traced] {
                    failed[i] |= replay.fingerprint != reference[i].fingerprint;
                }
                plain_roi[i] = plain_roi[i].min(plain.roi());
                traced_roi[i] = traced_roi[i].min(traced.roi());
                if round > 0 {
                    continue;
                }
                let phases = setup.time(mission.seed);
                if traced.outcome == Outcome::Refused {
                    setup.refused_s += traced.setup;
                    failed[i] |= !phases.refused;
                }
                if let Some(report) = report {
                    regions.add(&report, traced.roi());
                    opt_iterations += report.tracking.opt_iterations;
                    failed[i] |= phases.refused || report.plan_expanded != phases.expanded;
                }
            }
        }
        let names = publisher.expect("publisher returned").into_names();
        let stages = collector.finish();
        let stage_us = |stage: &str, p99: bool| {
            names
                .iter()
                .position(|n| n == &format!("scenario.{stage}_ns"))
                .and_then(|id| stages.get(id as u32))
                .map_or(0.0, |m| {
                    let ns = if p99 { m.hist.p99() } else { m.hist.p50() };
                    ns as f64 / 1e3
                })
        };

        let p = self.name;
        metrics.push(format!("{p}.setup.map_gen_s"), setup.map_gen_s, "s");
        metrics.push(format!("{p}.setup.inflate_s"), setup.inflate_s, "s");
        metrics.push(format!("{p}.setup.route_s"), setup.route_s, "s");
        metrics.push(format!("{p}.setup.refused_s"), setup.refused_s, "s");
        metrics.push(
            format!("{p}.setup.route_expanded"),
            setup.expanded as f64,
            "count",
        );
        metrics.push(
            format!("{p}.stage.sense_p50_us"),
            stage_us("sense", false),
            "us",
        );
        for stage in ["localize", "track"] {
            metrics.push(
                format!("{p}.stage.{stage}_p50_us"),
                stage_us(stage, false),
                "us",
            );
            metrics.push(
                format!("{p}.stage.{stage}_p99_us"),
                stage_us(stage, true),
                "us",
            );
        }
        metrics.push(
            format!("{p}.stage.plan_p50_us"),
            stage_us("plan", false),
            "us",
        );
        if self.localizer == LocalizerKind::EkfSlam {
            metrics.push(format!("{p}.region.matrix_ops_s"), regions.matrix_ops, "s");
        }
        metrics.push(format!("{p}.region.optimize_s"), regions.optimize, "s");
        metrics.push(format!("{p}.region.simulate_s"), regions.simulate, "s");
        metrics.push(
            format!("{p}.control.opt_iterations"),
            opt_iterations as f64,
            "count",
        );
        metrics.push(
            format!("{p}.unattributed_share"),
            1.0 - regions.stages / regions.ticks,
            "share",
        );
        metrics.push(
            format!("{p}.trace_overhead_share"),
            traced_roi.iter().sum::<f64>() / plain_roi.iter().sum::<f64>() - 1.0,
            "share",
        );
        (missions.len(), failed.iter().filter(|&&f| f).count())
    }
}

/// A finished timed run of a loop workload.
#[derive(Debug)]
pub struct LoopRun {
    /// The mission stream round 1 discovered.
    pub missions: Vec<Mission>,
    /// Best-of-R state per mission.
    pub measurement: Measurement,
}

/// Region totals summed over a pass's reports.
#[derive(Debug, Default)]
struct RegionSums {
    /// ROI of the ticks the reports cover.
    ticks: f64,
    stages: f64,
    matrix_ops: f64,
    optimize: f64,
    simulate: f64,
}

impl RegionSums {
    fn add(&mut self, report: &ScenarioReport, roi: f64) {
        self.ticks += roi;
        for region in &report.regions {
            let s = region.total.as_secs_f64();
            match region.name.as_str() {
                "sense" | "localize" | "plan" | "track" => self.stages += s,
                "matrix_ops" => self.matrix_ops += s,
                "optimize" => self.optimize += s,
                "simulate" => self.simulate += s,
                _ => {}
            }
        }
    }
}

/// The scenario's set-up phases, re-run through the same public calls
/// `ScenarioState::begin` makes so each can be timed on its own.
#[derive(Debug, Default)]
struct SetupPhases {
    map_gen_s: f64,
    inflate_s: f64,
    route_s: f64,
    refused_s: f64,
    expanded: u64,
}

/// What one replica set-up found.
struct PhaseResult {
    refused: bool,
    expanded: u64,
}

/// Map size, resolution, clearance and endpoint margin of the scenario
/// world (mirrors `rtr-scenario`'s constants).
const MAP_CELLS: usize = 256;
const MAP_RESOLUTION: f64 = 0.1;
const PLAN_CLEARANCE: f64 = 0.3;
const ENDPOINT_MARGIN: i64 = 24;

impl SetupPhases {
    fn time(&mut self, seed: u64) -> PhaseResult {
        let start = Instant::now();
        let map = maps::indoor_floor_plan(MAP_CELLS, MAP_RESOLUTION, seed);
        self.map_gen_s += secs(start);
        let start = Instant::now();
        let planning = map.inflated(PLAN_CLEARANCE);
        self.inflate_s += secs(start);
        let footprint = Footprint::new(0.6, 0.4);
        let far = MAP_CELLS as i64 - 1 - ENDPOINT_MARGIN;
        let endpoints = free_cell_near(&planning, &footprint, (ENDPOINT_MARGIN, ENDPOINT_MARGIN))
            .zip(free_cell_near(&planning, &footprint, (far, far)));
        let Some((start_cell, goal_cell)) = endpoints else {
            return PhaseResult {
                refused: true,
                expanded: 0,
            };
        };
        let planner = Pp2d::new(Pp2dConfig {
            start: start_cell,
            goal: goal_cell,
            footprint,
            weight: 1.0,
        });
        let start = Instant::now();
        let route = planner.plan(&planning, &mut Profiler::new(), &mut NullTrace);
        self.route_s += secs(start);
        let expanded = route.as_ref().map_or(0, |r| r.expanded);
        self.expanded += expanded;
        PhaseResult {
            refused: route.is_none(),
            expanded,
        }
    }
}

/// Nearest footprint-free cell to `target` in Chebyshev ring order, as
/// the scenario places its endpoints.
fn free_cell_near(
    map: &GridMap2D,
    footprint: &Footprint,
    target: (i64, i64),
) -> Option<(usize, usize)> {
    for radius in 0..=40i64 {
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                if dx.abs().max(dy.abs()) != radius {
                    continue;
                }
                let (ix, iy) = (target.0 + dx, target.1 + dy);
                if !map.in_bounds(ix, iy) {
                    continue;
                }
                let center = map.cell_center(ix as usize, iy as usize);
                if !footprint.collides(map, &Pose2::new(center.x, center.y, 0.0)) {
                    return Some((ix as usize, iy as usize));
                }
            }
        }
    }
    None
}
