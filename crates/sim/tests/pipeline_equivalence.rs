//! Golden-fingerprint equivalence of the staged pipeline controller
//! against the frozen pre-refactor oracle (`Controller::step_reference`).
//!
//! Two simulators are built from the *same* scenario; one is flipped into
//! reference mode. Both see identical observations and fault plans
//! (common random numbers), so every per-slot [`SlotReport`] — admissions,
//! routing, energy decisions, degradation events, cost — and the final
//! [`RunMetrics`] must match **bit for bit**, across the clean seed
//! scenarios, all four acceptance fault scenarios, and both degradation
//! policies.
//!
//! [`SlotReport`]: greencell_core::SlotReport
//! [`RunMetrics`]: greencell_sim::RunMetrics

use greencell_core::{Controller, DegradationPolicy};
use greencell_sim::faults::FaultSpec;
use greencell_sim::{Architecture, Scenario, Simulator};

/// Steps a pipeline simulator and a reference simulator in lockstep and
/// asserts bit-identical per-slot reports, final metrics, and watchdog
/// verdicts. Returns how many slots completed (shorter than the horizon
/// only when both arms abort identically under the strict policy).
fn assert_equivalent(label: &str, scenario: &Scenario) -> usize {
    let mut pipeline = Simulator::new(scenario).expect("scenario builds");
    let mut oracle = Simulator::new(scenario).expect("scenario builds");
    oracle.set_reference(true);
    for slot in 0..scenario.horizon {
        let a = pipeline.step_with_report();
        let b = oracle.step_with_report();
        assert_eq!(a, b, "{label}: slot {slot} diverged");
        if a.is_err() {
            // Both arms aborted with the identical error (strict policy);
            // neither advanced past this slot.
            return slot;
        }
    }
    assert_eq!(
        pipeline.metrics(),
        oracle.metrics(),
        "{label}: final metrics diverged"
    );
    assert_eq!(
        pipeline.watchdog().report(),
        oracle.watchdog().report(),
        "{label}: watchdog verdicts diverged"
    );
    scenario.horizon
}

/// The four acceptance fault scenarios (see `chaos.rs`): seed 4243 makes
/// the bursty Markov faults demonstrably strike inside 30 slots, and
/// V = 1e4 keeps the queue equilibrium inside the horizon.
fn fault_scenarios(policy: DegradationPolicy) -> Vec<(String, Scenario)> {
    let horizon = 30;
    let specs = [
        ("bs_outage", FaultSpec::bs_outage()),
        (
            "renewable_drought",
            FaultSpec::renewable_drought(horizon / 4, horizon / 2),
        ),
        (
            "price_spike",
            FaultSpec::price_spike(horizon / 4, horizon / 2, 6.0),
        ),
        ("band_loss", FaultSpec::band_loss()),
    ];
    specs
        .into_iter()
        .map(|(label, spec)| {
            let mut s = Scenario::tiny(4243);
            s.horizon = horizon;
            s.v = 1e4;
            s.faults = Some(spec);
            s.degradation = policy;
            (format!("{label}/{policy:?}"), s)
        })
        .collect()
}

/// Clean seed scenarios: the tiny fixture and a shortened paper §VI run
/// (both fault-free, graceful policy — the all-green fast path).
#[test]
fn pipeline_matches_oracle_on_the_seed_scenarios() {
    let tiny = Scenario::tiny(4242);
    assert_eq!(assert_equivalent("tiny", &tiny), tiny.horizon);

    let mut paper = Scenario::paper(7);
    paper.horizon = 40;
    assert_eq!(assert_equivalent("paper", &paper), paper.horizon);
}

/// All four fault scenarios under the graceful ladder: shed → grid-only →
/// drop-schedule → safe-mode rungs fire identically in both drivers.
#[test]
fn pipeline_matches_oracle_under_every_fault_scenario() {
    for (label, scenario) in fault_scenarios(DegradationPolicy::Graceful) {
        let slots = assert_equivalent(&label, &scenario);
        assert_eq!(slots, scenario.horizon, "{label}: graceful run truncated");
    }
}

/// The same four fault scenarios under the strict policy: shedding is
/// still allowed, but any deeper infeasibility must abort — and both
/// drivers must abort on the identical slot with the identical error.
#[test]
fn pipeline_matches_oracle_under_strict_degradation() {
    let mut clean = Scenario::tiny(4242);
    clean.degradation = DegradationPolicy::Strict;
    assert_eq!(
        assert_equivalent("clean/Strict", &clean),
        clean.horizon,
        "the fault-free strict run must complete"
    );
    for (label, scenario) in fault_scenarios(DegradationPolicy::Strict) {
        assert_equivalent(&label, &scenario);
    }
}

/// The kitchen-sink chaos plan — every fault class at once — stays
/// bit-identical through the full graceful ladder.
#[test]
fn pipeline_matches_oracle_under_chaos() {
    for seed in [11, 4243] {
        let mut s = Scenario::tiny(seed);
        s.horizon = 25;
        s.v = 1e4;
        s.faults = Some(FaultSpec::chaos(s.horizon));
        let label = format!("chaos/{seed}");
        let slots = assert_equivalent(&label, &s);
        assert_eq!(slots, s.horizon, "{label}: graceful run truncated");
    }
}

/// The ablation axes ride through the same seam: both S1 schedulers, the
/// one-hop architecture, and the grid-only energy policy resolve to
/// pipeline stages that reproduce the oracle's `match` arms exactly.
#[test]
fn pipeline_matches_oracle_across_policy_axes() {
    let mut sequential = Scenario::tiny(4242);
    sequential.scheduler = greencell_core::SchedulerKind::SequentialFix;
    assert_equivalent("sequential_fix", &sequential);

    let mut one_hop = Scenario::tiny(4242);
    one_hop.architecture = Architecture::OneHopRenewable;
    assert_equivalent("one_hop", &one_hop);

    let mut grid_only = Scenario::tiny(4242);
    grid_only.energy_policy = greencell_core::EnergyPolicy::GridOnly;
    assert_equivalent("grid_only", &grid_only);
}

/// The driver caches S3's routing caps per active mask, while the oracle
/// rebuilds them every slot. A hand-built mask sequence walks the cache
/// through every invalidation: no mask → BS 0 down → no mask → BS 1 down
/// → BS 0 down twice (a cache hit) → a user node down → an all-up mask
/// spelled out in full, then an arena reset (export + import) before the
/// cycle repeats. Every report must match the oracle's bit for bit.
#[test]
fn routing_cap_cache_follows_every_mask_change() {
    let mut multi_hop = Scenario::paper(42);
    multi_hop.horizon = 32;
    let mut one_hop = multi_hop.clone();
    one_hop.architecture = Architecture::OneHopRenewable;
    for (label, s) in [("multi_hop", multi_hop), ("one_hop", one_hop)] {
        let (_, observations) = Simulator::new(&s)
            .expect("scenario builds")
            .run_recording()
            .expect("run completes");
        let controller = || {
            let net = s.build_network().expect("network builds");
            let energy = s.energy_config(&net);
            Controller::new(net, s.phy(), energy, s.controller_config()).expect("controller builds")
        };
        let (mut cached, mut oracle) = (controller(), controller());
        let user = s.bs_positions.len() + 2;
        let down: [Option<usize>; 8] = [
            None,
            Some(0),
            None,
            Some(1),
            Some(0),
            Some(0),
            Some(user),
            None,
        ];
        for (t, obs) in observations.iter().enumerate() {
            let phase = t % down.len();
            let mut obs = obs.clone();
            obs.node_available = match down[phase] {
                Some(d) => (0..obs.renewable.len()).map(|i| i != d).collect(),
                None if phase == down.len() - 1 => vec![true; obs.renewable.len()],
                None => Vec::new(),
            };
            if phase == 0 && t > 0 {
                let state = cached.export_state();
                cached.import_state(&state);
            }
            let a = cached.step(&obs);
            let b = oracle.step_reference(&obs);
            assert_eq!(a, b, "{label}: slot {t} (phase {phase}) diverged");
        }
    }
}
