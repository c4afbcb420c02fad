//! Equivalence gate for the city-scale sharded path.
//!
//! With pruning disabled (`gain_floor = 0`, i.e. cutoff = ∞) the
//! decomposition is a single cluster and [`CitySim`] must replay the
//! dense [`Simulator`] **bit for bit**: same observation streams, same
//! per-slot [`greencell_core::SlotReport`]s, down to every `f64`
//! diagnostic. Pinned on the paper scenario, the tiny scenario, and an
//! unpruned city scenario (hotspot placement + diurnal traffic still
//! active, so those knobs are covered by the gate too). Under each of the
//! four fault archetypes the city controller must replay the dense run's
//! recorded observations bit for bit, in lockstep with the frozen oracle
//! `Controller::step_reference`.

use greencell_core::{Controller, SlotObservation, SlotReport};
use greencell_sim::{CitySim, FaultSpec, Scenario, ShardedController, Simulator};

fn assert_city_matches_dense(label: &str, scenario: &Scenario) {
    assert_eq!(
        scenario.gain_floor, 0.0,
        "{label}: the bit-identity gate needs pruning off (one cluster)"
    );
    let mut dense = Simulator::new(scenario).expect("dense path builds");
    let mut city = CitySim::new(scenario).expect("sharded path builds");
    assert_eq!(
        city.controller().decomposition().len(),
        1,
        "{label}: cutoff = ∞ must give exactly one cluster"
    );
    for slot in 0..scenario.horizon {
        let d = dense.step_with_report().expect("dense slot steps");
        let c = city.step().expect("sharded slot steps");
        assert_eq!(d, c, "{label}: slot {slot} diverged");
    }
}

#[test]
fn paper_scenario_is_bit_identical() {
    let mut s = Scenario::paper(42);
    s.horizon = 40;
    assert_city_matches_dense("paper", &s);
}

#[test]
fn tiny_scenario_is_bit_identical() {
    assert_city_matches_dense("tiny", &Scenario::tiny(7));
}

#[test]
fn unpruned_city_scenario_is_bit_identical() {
    let mut s = Scenario::city(60, 2, Scenario::default_city_area(2), 9);
    s.gain_floor = 0.0; // cutoff = ∞: hotspots + diurnal stay, pruning off
    s.horizon = 25;
    assert_city_matches_dense("city-unpruned", &s);
}

#[test]
fn single_cluster_sub_network_is_the_dense_network() {
    let s = Scenario::tiny(3);
    let city = CitySim::new(&s).expect("sharded path builds");
    let dense = s.build_network().expect("dense network builds");
    let single = city
        .controller()
        .single_network()
        .expect("one cluster covers everything");
    let (st, dt) = (single.topology(), dense.topology());
    assert_eq!(st.len(), dt.len());
    for i in st.nodes().iter().zip(dt.nodes()) {
        assert_eq!(i.0.kind(), i.1.kind());
    }
    for (i, j) in dt.ordered_pairs() {
        // Bitwise-equal gains: the sub-network is assembled by the same
        // builder path with the same inputs.
        assert_eq!(st.gain(i, j), dt.gain(i, j), "gain ({i:?}, {j:?})");
    }
    assert_eq!(single.session_count(), dense.session_count());
}

/// A *pruned* city run decomposes into several clusters, completes its
/// horizon cleanly (no degradation events in a fault-free calibrated
/// scenario), serves traffic, and keeps queues bounded. Full reports are
/// deliberately not compared against the dense pipeline here: dense
/// routing may push packets onto never-schedulable cross-cluster
/// zero-gain links (phantom queues), which the sharded path excludes by
/// construction — the documented, principled divergence.
#[test]
fn pruned_city_run_is_clean_and_decomposed() {
    let mut s = Scenario::city(80, 3, Scenario::default_city_area(3), 13);
    s.horizon = 20;
    let mut city = CitySim::new(&s).expect("sharded path builds");
    assert!(
        city.controller().decomposition().len() > 1,
        "calibrated city should decompose into several clusters"
    );
    let reports = city.run().expect("pruned run completes");
    assert_eq!(reports.len(), s.horizon);
    assert!(
        reports.iter().all(|r| r.degradation.is_empty()),
        "fault-free calibrated city should never hit the ladder"
    );
    assert!(reports.iter().all(|r| r.cost.is_finite() && r.cost >= 0.0));
    assert!(
        reports.iter().any(|r| r.routed.count() > 0),
        "traffic should move"
    );
}

/// Dense vs city under faults at cutoff = ∞: the dense [`Simulator`]
/// records its fault-laden observations; the city controller, built from
/// the same scenario without a fault plan, replays them at 1 and 2
/// workers. Every report must equal the dense run's and the frozen
/// oracle's on the same observations.
#[test]
fn fault_archetypes_replay_bit_identically_on_the_city_path() {
    for (label, faults) in [
        ("bs_outage", FaultSpec::bs_outage()),
        ("band_loss", FaultSpec::band_loss()),
        ("drought", FaultSpec::renewable_drought(4, 10)),
        ("price_spike", FaultSpec::price_spike(3, 9, 4.0)),
    ] {
        let mut s = Scenario::paper(42);
        s.horizon = 30;
        s.faults = Some(faults);
        assert_eq!(s.gain_floor, 0.0, "{label}: the gate needs cutoff = ∞");
        let (_, observations) = Simulator::new(&s)
            .expect("dense path builds")
            .run_recording()
            .expect("dense run completes");
        let mut dense = Simulator::new(&s).expect("dense path builds");
        let dense_reports: Vec<SlotReport> = (0..s.horizon)
            .map(|_| dense.step_with_report().expect("dense slot steps"))
            .collect();

        let net = s.build_network().expect("dense network builds");
        let energy = s.energy_config(&net);
        let mut oracle =
            Controller::new(net, s.phy(), energy, s.controller_config()).expect("oracle builds");
        for (t, obs) in observations.iter().enumerate() {
            let r = oracle.step_reference(obs).expect("oracle slot steps");
            assert_eq!(r, dense_reports[t], "{label}: oracle slot {t} diverged");
        }

        let mut clean = s.clone();
        clean.faults = None;
        for workers in [1, 2] {
            let mut city =
                ShardedController::with_workers(&clean, workers).expect("city path builds");
            assert_eq!(city.decomposition().len(), 1, "{label}: one cluster");
            for (t, obs) in observations.iter().enumerate() {
                let r = city.step(obs).expect("city slot steps");
                assert_eq!(
                    r, dense_reports[t],
                    "{label}: city slot {t} at {workers} workers diverged"
                );
            }
        }
    }
}

/// A pruned multi-cluster city whose observations carry a rotating
/// base-station outage: the fault mask reaches every cluster through the
/// shared pre-pass, changes the run, and the reports stay byte-identical
/// at 1 and 4 workers.
#[test]
fn pruned_city_under_bs_outages_is_worker_count_invariant() {
    let mut s = Scenario::city(80, 3, Scenario::default_city_area(3), 13);
    s.horizon = 24;
    let mut sim = CitySim::new(&s).expect("city path builds");
    assert!(
        sim.controller().decomposition().len() > 1,
        "want several clusters"
    );
    let n_bs = s.bs_positions.len();
    let clean: Vec<SlotObservation> = (0..s.horizon).map(|_| sim.next_observation()).collect();
    // BS (t / 4) mod n_bs is down for the first two slots of every
    // four-slot window.
    let outaged: Vec<SlotObservation> = clean
        .iter()
        .enumerate()
        .map(|(t, obs)| {
            let down = (t / 4) % n_bs;
            let mut obs = obs.clone();
            obs.node_available = (0..obs.renewable.len())
                .map(|i| !(i == down && t % 4 < 2))
                .collect();
            obs
        })
        .collect();
    let run = |observations: &[SlotObservation], workers: usize| -> Vec<String> {
        let mut city = ShardedController::with_workers(&s, workers).expect("city path builds");
        observations
            .iter()
            .map(|obs| format!("{:?}", city.step(obs).expect("city slot steps")))
            .collect()
    };
    let one = run(&outaged, 1);
    assert_eq!(one, run(&outaged, 4), "1 vs 4 workers under outages");
    assert_ne!(
        one,
        run(&clean, 1),
        "the outage mask must reach the clusters"
    );
}
