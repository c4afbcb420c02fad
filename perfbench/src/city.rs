//! `city_large` and `city_small`: `Scenario::city` through `CitySim` with
//! `nproc` cluster workers.
//!
//! * `city_large` (10 000 users, 200 BSs): 200 clusters plus a global S4
//!   over 10 200 nodes, so cluster fan-out and the serial global part both
//!   weigh.
//! * `city_small` (100 users, 2 BSs): 2 clusters, where the per-slot cost
//!   of dispatching to workers dominates the cluster work.
//!
//! An episode is a fresh `CitySim` stepped for `warm + measured` slots.
//! Every report must equal the one a 1-worker controller produces on the
//! same observations.

use crate::layers::Counts;
use crate::stats::{Episodes, Samples};
use crate::{median_us, nproc, secs, Report};
use greencell_core::{
    solve_energy_management_warm_into, EnergyManagementInput, EnergyOutcome, S4Workspace,
    SlotReport,
};
use greencell_energy::{Battery, QuadraticCost};
use greencell_net::GridIndex;
use greencell_sim::{CitySim, ClusterSet, Scenario, ShardedController};
use greencell_stochastic::Rng;
use greencell_units::Energy;
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

pub struct Shape {
    name: &'static str,
    users: usize,
    base_stations: usize,
    /// Untimed slots at the start of each episode.
    warm: usize,
    /// Timed slots per episode.
    measured: usize,
    /// Scenarios (seeds derived from `--seed`) the untraced run rotates
    /// over.
    scenarios: usize,
    /// A seed used in place of `--seed`, for a workload whose cost swings
    /// between seeds by more than a regression bound could absorb.
    fixed_seed: Option<u64>,
    min_episodes: usize,
    /// Episodes per second of `--seconds`.
    per_second: f64,
    /// Set-ups timed before each episode besides the episode's own.
    extra_setups: usize,
    /// `ClusterSet::decompose` calls timed by the traced run.
    decompositions: usize,
    /// Whether the traced run times the S4 kernel at this city's global
    /// size (10 200 nodes: only `city_large`).
    s4_kernel: bool,
}

/// Slot cost still climbs through the fill transient here, so the window
/// is short and fixed: slots 10–59 of every episode.
pub const LARGE: Shape = Shape {
    name: "city_large",
    users: 10_000,
    base_stations: 200,
    warm: 10,
    measured: 50,
    scenarios: 1,
    fixed_seed: None,
    min_episodes: 3,
    per_second: 0.5,
    extra_setups: 1,
    decompositions: 7,
    s4_kernel: true,
};

/// The generator gives 100 users two sessions, and whether a seed puts both
/// in one cell (one idle cluster) or one in each sets slot cost: per-seed
/// medians range from 0.64 to 1.46 ms. So the workload always runs the
/// same three scenarios (seed 42 and two derived from it) instead of
/// following `--seed`. The window lies in the fill transient, which is
/// fine: it is the same deterministic slots on every build.
pub const SMALL: Shape = Shape {
    name: "city_small",
    users: 100,
    base_stations: 2,
    warm: 100,
    measured: 300,
    scenarios: 3,
    fixed_seed: Some(42),
    min_episodes: 6,
    per_second: 2.5,
    extra_setups: 5,
    decompositions: 101,
    s4_kernel: false,
};

const KERNEL_REPS: usize = 21;

impl Shape {
    fn scenario(&self, seed: u64) -> Scenario {
        Scenario::city(
            self.users,
            self.base_stations,
            Scenario::default_city_area(self.base_stations),
            seed,
        )
    }

    fn horizon(&self) -> usize {
        self.warm + self.measured
    }

    /// Builds the scenario and a `CitySim` at `workers`, timed.
    fn setup(&self, seed: u64, workers: usize) -> Result<(CitySim, f64), Box<dyn Error>> {
        let start = Instant::now();
        let sim = CitySim::with_workers(&self.scenario(seed), workers)?;
        Ok((sim, secs(start)))
    }
}

pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let workers = nproc();
    let seed = shape.fixed_seed.unwrap_or(seed);
    let seeds: Vec<u64> = (0..shape.scenarios)
        .map(|k| crate::sub_seed(seed, k))
        .collect();
    let mut references = Vec::new();
    for &s in &seeds {
        let mut sim = CitySim::with_workers(&shape.scenario(s), 1)?;
        let reports: Vec<SlotReport> = (0..shape.horizon())
            .map(|_| sim.step())
            .collect::<Result<_, _>>()?;
        references.push(reports);
    }

    let mut episodes = Episodes::new(shape.scenarios, shape.measured);
    for e in 0..crate::episodes(seconds, shape.per_second, shape.min_episodes) {
        let k = e % shape.scenarios;
        // Extra set-ups are spread across the run so they see the same
        // host conditions as the episodes.
        for _ in 0..shape.extra_setups {
            let (sim, s) = shape.setup(seeds[k], workers)?;
            episodes.setup(k, s);
            black_box(sim);
        }
        let (mut sim, s) = shape.setup(seeds[k], workers)?;
        episodes.setup(k, s);
        let what = format!("{} scenario {k} at {workers} workers", shape.name);
        if let Some(slot_us) =
            crate::timed_slots(report, &what, &references[k], shape.warm, || sim.step())
        {
            episodes.push(k, None, &slot_us);
        }
    }
    episodes.report(report);
    Ok(())
}

/// A synthetic S4 instance at the city-global size (one BS per 51 nodes,
/// like 200 BSs among 10 200 nodes), drawn from `seed`. Labelled synthetic:
/// the sharded controller's global S4 inputs are not public.
struct SyntheticS4 {
    z: Vec<f64>,
    demand: Vec<Energy>,
    renewable: Vec<Energy>,
    batteries: Vec<Battery>,
    grid_connected: Vec<bool>,
    grid_limits: Vec<Energy>,
    is_bs: Vec<bool>,
    cost: QuadraticCost,
}

impl SyntheticS4 {
    fn new(nodes: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let kwh = Energy::from_kilowatt_hours;
        Self {
            z: (0..nodes).map(|_| -rng.range_f64(1.0e4, 1.6e5)).collect(),
            demand: (0..nodes).map(|_| kwh(rng.range_f64(0.0, 0.15))).collect(),
            renewable: (0..nodes).map(|_| kwh(rng.range_f64(0.0, 0.2))).collect(),
            batteries: (0..nodes)
                .map(|_| {
                    Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.1), kwh(rng.range_f64(0.0, 1.0)))
                })
                .collect(),
            grid_connected: vec![true; nodes],
            grid_limits: vec![kwh(0.2); nodes],
            is_bs: (0..nodes).map(|i| i % 51 == 0).collect(),
            cost: QuadraticCost::paper_default(),
        }
    }

    fn kernel_us(&self, v: f64) -> f64 {
        let input = EnergyManagementInput {
            z: &self.z,
            demand: &self.demand,
            renewable: &self.renewable,
            batteries: &self.batteries,
            grid_connected: &self.grid_connected,
            grid_limits: &self.grid_limits,
            is_base_station: &self.is_bs,
            cost: &self.cost,
            v,
        };
        let mut ws = S4Workspace::new();
        let mut out = EnergyOutcome::empty();
        median_us(KERNEL_REPS, || {
            let _ = solve_energy_management_warm_into(&input, &mut ws, &mut out);
            black_box(&out);
        })
    }
}

pub fn trace(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let workers = nproc();
    let scenario = shape.scenario(shape.fixed_seed.unwrap_or(seed));
    let layout = scenario.build_layout();
    let mut decompose = Samples::new();
    let mut clusters = ClusterSet::decompose(&layout, &scenario);
    for _ in 0..shape.decompositions {
        let start = Instant::now();
        clusters = ClusterSet::decompose(&layout, &scenario);
        decompose.push(secs(start));
    }
    let occupied = scenario.cutoff_radius_m().map_or(0, |d_cut| {
        let mut index = GridIndex::new(d_cut, scenario.area_m, scenario.area_m);
        for &p in &layout.positions {
            index.insert(p);
        }
        index.occupied_cells()
    });

    let mut obs_us = Samples::new();
    let mut step_us = Samples::new();
    let mut step_1w_us = Samples::new();
    let mut counts = None;
    let mut redecompositions = 0;
    // A traced slot steps two controllers, so half the untraced rate.
    for _ in 0..crate::episodes(seconds, shape.per_second / 2.0, 1) {
        let mut sim = CitySim::with_workers(&scenario, 1)?;
        let mut parallel = ShardedController::with_workers(&scenario, workers)?;
        let mut serial = ShardedController::with_workers(&scenario, 1)?;
        let mut reports = Vec::with_capacity(shape.horizon());
        for t in 0..shape.horizon() {
            let start = Instant::now();
            let obs = sim.next_observation();
            obs_us.push(secs(start) * 1e6);
            // Alternate which controller steps first so drift in machine
            // speed does not favour one worker count.
            let timed = |ctl: &mut ShardedController| {
                let start = Instant::now();
                let r = ctl.step(&obs);
                (r, secs(start) * 1e6)
            };
            let ((rp, tp), (rs, ts)) = if t % 2 == 0 {
                let p = timed(&mut parallel);
                (p, timed(&mut serial))
            } else {
                let s = timed(&mut serial);
                (timed(&mut parallel), s)
            };
            if t >= shape.warm {
                step_us.push(tp);
                step_1w_us.push(ts);
            }
            report.attempted += 1;
            let (rp, rs) = (rp?, rs?);
            if rp != rs {
                report.fail_op(|| {
                    format!(
                        "{} slot {t}: report at {workers} workers differs from 1 worker",
                        shape.name
                    )
                });
            }
            reports.push(rp);
        }
        redecompositions = parallel.redecompositions();
        Counts::agree(&mut counts, Counts::of(&reports), shape.name, report);
    }

    let (p_n, p_1) = (step_us.median(), step_1w_us.median());
    let n = workers as f64;
    report.metric("shard.step_us_p50", p_n, step_us.len());
    report.metric("shard.step_us_p50_1w", p_1, step_1w_us.len());
    report.metric("shard.speedup", p_1 / p_n, step_us.len());
    // Amdahl's serial fraction s from T_n = T_1·(s + (1 − s)/n), computed
    // from the two medians; above 1 means adding workers cost time.
    let serial_frac = if workers > 1 {
        (p_n / p_1 - 1.0 / n) / (1.0 - 1.0 / n)
    } else {
        1.0
    };
    report.metric("shard.serial_frac", serial_frac, step_us.len());
    report.metric("shard.obs_us", obs_us.median(), obs_us.len());
    report.metric("shard.decompose_s", decompose.median(), decompose.len());
    report.metric("shard.clusters", clusters.len() as f64, 1);
    report.metric("shard.largest_cluster", clusters.largest() as f64, 1);
    report.metric("shard.occupied_cells", occupied as f64, 1);
    report.metric("shard.redecompositions", redecompositions as f64, 1);
    if let Some(c) = counts {
        c.report(report);
    }
    if shape.s4_kernel {
        let fixture = SyntheticS4::new(layout.len(), seed);
        report.metric(
            "s4.kernel_us.n10200",
            fixture.kernel_us(scenario.v),
            KERNEL_REPS,
        );
    }
    Ok(())
}
