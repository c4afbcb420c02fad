//! `paper`: `Scenario::paper(seed)` through the dense `Simulator`, one
//! thread, the paper's §VI setup. The S1–S4 stages do almost all the work.
//!
//! Each scenario is stepped once through its first `WARM` slots, which
//! carry the queues through the fill transient to the plateau of slot
//! cost. An episode clones that warmed simulator and times the next
//! `MEASURED` slots, so every episode repeats the same slots and its
//! reports must equal the reference bit for bit.

use crate::layers::{Counts, DenseLayers};
use crate::stats::{Episodes, Samples};
use crate::{median_us, secs, Report};
use greencell_core::{
    dpp, greedy_schedule_with, solve_energy_management_warm_into, Controller, EnergyConfig,
    EnergyManagementInput, EnergyOutcome, S1Inputs, S1Scratch, S4Workspace, ScheduleOutcome,
    SlotObservation, SlotReport,
};
use greencell_energy::NodeEnergyModel;
use greencell_net::NodeId;
use greencell_phy::PhyConfig;
use greencell_sim::{Scenario, Simulator};
use greencell_trace::RingSink;
use greencell_units::{Energy, Power};
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

const WARM: usize = 500;
const MEASURED: usize = 500;
const HORIZON: usize = WARM + MEASURED;
/// Scenarios (seeds derived from `--seed`) the untraced run rotates over,
/// so its figures average over topologies.
const SCENARIOS: usize = 4;
const MIN_EPISODES: usize = 2 * SCENARIOS;
const EPISODES_PER_SECOND: f64 = 12.0;
const TRACE_EPISODES_PER_SECOND: f64 = 2.0;
const SETUPS: usize = 101;
const SETUPS_PER_EPISODE: usize = 2;
/// Kernel fixtures are rebuilt every this many measured slots.
const KERNEL_EVERY: usize = 50;
const KERNEL_REPS: usize = 21;
const OVERHEAD_PAIRS: usize = 3;

fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::paper(seed);
    s.horizon = HORIZON;
    s
}

/// The controller-only replay of a recorded `Simulator` run: the reports
/// every timed episode must reproduce.
fn replay_reference(scenario: &Scenario) -> Result<Vec<SlotReport>, Box<dyn Error>> {
    let mut sim = Simulator::new(scenario)?;
    let mut ctl = sim.controller().clone();
    let (_, observations) = sim.run_recording()?;
    let mut reports = Vec::with_capacity(observations.len());
    for obs in &observations {
        reports.push(ctl.step(obs)?);
    }
    Ok(reports)
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let mut references = Vec::with_capacity(SCENARIOS);
    let mut warmed = Vec::with_capacity(SCENARIOS);
    for k in 0..SCENARIOS {
        let scenario = scenario(crate::sub_seed(seed, k));
        let reference = replay_reference(&scenario)?;
        let mut sim = Simulator::new(&scenario)?;
        let what = format!("paper scenario {k} warm-up");
        crate::timed_slots(report, &what, &reference[..WARM], WARM, || {
            sim.step_with_report()
        });
        references.push(reference);
        warmed.push(sim);
    }

    let mut episodes = Episodes::new(SCENARIOS, MEASURED);
    for e in 0..crate::episodes(seconds, EPISODES_PER_SECOND, MIN_EPISODES) {
        let k = e % SCENARIOS;
        // Set-ups are spread across the run so they see the same host
        // conditions as the episodes.
        for _ in 0..SETUPS_PER_EPISODE {
            let t = Instant::now();
            let sim = Simulator::new(&scenario(crate::sub_seed(seed, k)))?;
            episodes.setup(k, secs(t));
            black_box(sim);
        }
        let mut sim = warmed[k].clone();
        let what = format!("paper scenario {k}, {WARM} slots in");
        if let Some(slot_us) = crate::timed_slots(report, &what, &references[k][WARM..], 0, || {
            sim.step_with_report()
        }) {
            episodes.push(k, None, &slot_us);
        }
    }
    episodes.report(report);
    Ok(())
}

/// Per-node constants of the scenario's energy configuration, as the
/// controller hoists them.
struct NodeConsts {
    max_powers: Vec<Power>,
    models: Vec<NodeEnergyModel>,
    grid_limits: Vec<Energy>,
    is_bs: Vec<bool>,
}

impl NodeConsts {
    fn new(energy: &EnergyConfig, ctl: &Controller) -> Self {
        Self {
            max_powers: energy.nodes.iter().map(|c| c.max_power).collect(),
            models: energy.nodes.iter().map(|c| c.energy_model).collect(),
            grid_limits: energy.nodes.iter().map(|c| c.grid_limit).collect(),
            is_bs: ctl
                .network()
                .topology()
                .nodes()
                .iter()
                .map(|n| n.kind().is_base_station())
                .collect(),
        }
    }
}

/// Times the S1 kernel and the warm S4 kernel on the inputs the controller
/// is about to solve for `obs`, rebuilt from its public state.
#[allow(clippy::too_many_arguments)]
fn kernel_sample(
    ctl: &Controller,
    obs: &SlotObservation,
    scenario: &Scenario,
    phy: &PhyConfig,
    energy: &EnergyConfig,
    consts: &NodeConsts,
    s1_us: &mut Samples,
    s4_us: &mut Samples,
) {
    let n = consts.models.len();
    let battery = |i: usize| ctl.battery(NodeId::from_index(i));
    let budget: Vec<Energy> = (0..n)
        .map(|i| {
            let fixed = consts.models[i].const_energy() + consts.models[i].idle_energy();
            let grid = if obs.grid_connected[i] {
                consts.grid_limits[i]
            } else {
                Energy::ZERO
            };
            (obs.renewable[i] + battery(i).max_discharge_now() + grid - fixed).max(Energy::ZERO)
        })
        .collect();
    let inputs = S1Inputs {
        net: ctl.network(),
        phy,
        spectrum: &obs.spectrum,
        links: ctl.links(),
        max_powers: &consts.max_powers,
        energy_models: &consts.models,
        traffic_budget: &budget,
        available: &obs.node_available,
        slot: scenario.slot,
        packet_size: scenario.packet_size,
    };
    let mut scratch = S1Scratch::new();
    let mut schedule = ScheduleOutcome::empty();
    s1_us.push(median_us(KERNEL_REPS, || {
        greedy_schedule_with(&inputs, &mut scratch, &mut schedule);
        black_box(&schedule);
    }));

    let transmissions = schedule.schedule.transmissions();
    let demand: Vec<Energy> = (0..n)
        .map(|i| {
            let node = NodeId::from_index(i);
            let tx_power = transmissions
                .iter()
                .position(|t| t.tx() == node)
                .map(|k| schedule.powers[k]);
            let receiving = transmissions.iter().any(|t| t.rx() == node);
            consts.models[i].slot_demand(tx_power, receiving, scenario.slot)
        })
        .collect();
    let z: Vec<f64> = (0..n)
        .map(|i| ctl.shifted_level(NodeId::from_index(i)))
        .collect();
    let batteries: Vec<_> = (0..n).map(|i| *battery(i)).collect();
    let cost = dpp::scaled_cost(&energy.cost, obs.price_multiplier);
    let input = EnergyManagementInput {
        z: &z,
        demand: &demand,
        renewable: &obs.renewable,
        batteries: &batteries,
        grid_connected: &obs.grid_connected,
        grid_limits: &consts.grid_limits,
        is_base_station: &consts.is_bs,
        cost: &cost,
        v: scenario.v,
    };
    let mut ws = S4Workspace::new();
    let mut out = EnergyOutcome::empty();
    s4_us.push(median_us(KERNEL_REPS, || {
        // An infeasible slot is still a timing sample: the controller would
        // have paid for this solve before falling back.
        let _ = solve_energy_management_warm_into(&input, &mut ws, &mut out);
        black_box(&out);
    }));
}

pub fn trace(seed: u64, seconds: f64, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let scenario = scenario(seed);
    let mut layers = DenseLayers::default();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let sim = Simulator::new(&scenario)?;
        layers.setup(secs(t));
        black_box(sim);
    }
    let net = scenario.build_network()?;
    let energy = scenario.energy_config(&net);
    let phy = scenario.phy();

    let mut s1_us = Samples::new();
    let mut s4_us = Samples::new();
    let mut counts = None;
    for _ in 0..crate::episodes(seconds, TRACE_EPISODES_PER_SECOND, 1) {
        let mut sim = Simulator::new(&scenario)?;
        let mut ctl = sim.controller().clone();
        let consts = NodeConsts::new(&energy, &ctl);
        let start = Instant::now();
        let (metrics, observations) = sim.run_recording()?;
        let recording = secs(start);
        let mut stepped = 0.0;
        let mut reports = Vec::with_capacity(HORIZON);
        for (t, obs) in observations.iter().enumerate() {
            if t >= WARM && (t - WARM).is_multiple_of(KERNEL_EVERY) {
                kernel_sample(
                    &ctl, obs, &scenario, &phy, &energy, &consts, &mut s1_us, &mut s4_us,
                );
            }
            let start = Instant::now();
            let r = ctl.step(obs)?;
            let dt = secs(start);
            stepped += dt;
            if t >= WARM {
                layers.step(dt * 1e6);
            }
            report.attempted += 1;
            if r.cost.to_bits() != metrics.cost_series().values()[t].to_bits()
                || r.shed_transmissions > 0
            {
                report.fail_op(|| format!("paper slot {t}: replay diverged or shed"));
            }
            reports.push(r);
        }
        layers.pass(HORIZON, recording, stepped, 0.0, [&ctl]);
        Counts::agree(&mut counts, Counts::of(&reports), "paper", report);
    }

    let mut overhead = Samples::new();
    for k in 0..OVERHEAD_PAIRS {
        let plain = || -> Result<f64, Box<dyn Error>> {
            let mut sim = Simulator::new(&scenario)?;
            let t = Instant::now();
            sim.run()?;
            Ok(secs(t))
        };
        let traced = || -> Result<f64, Box<dyn Error>> {
            let mut sim = Simulator::new(&scenario)?;
            let mut sink = RingSink::new(RingSink::DEFAULT_CAPACITY);
            let t = Instant::now();
            sim.run_traced(&mut sink)?;
            Ok(secs(t))
        };
        let (p, tr) = if k % 2 == 0 {
            let p = plain()?;
            (p, traced()?)
        } else {
            let tr = traced()?;
            (plain()?, tr)
        };
        overhead.push((tr - p) / p);
    }

    layers.report(report);
    report.metric("s1.kernel_us", s1_us.median(), s1_us.len());
    report.metric("s4.kernel_us.paper", s4_us.median(), s4_us.len());
    if let Some(c) = counts {
        c.report(report);
    }
    report.metric("trace.overhead_frac", overhead.median(), overhead.len());
    Ok(())
}
