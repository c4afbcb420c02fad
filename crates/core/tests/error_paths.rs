//! Error-path coverage: the controller reports configuration problems and
//! unrecoverable deficits as typed errors instead of panicking.

use greencell_core::{
    Controller, ControllerConfig, ControllerError, CoopPolicy, DegradationEvent, DegradationPolicy,
    EnergyConfig, NodeEnergyConfig, RelayPolicy, SchedulerKind, SleepPolicy, SlotObservation,
};
use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
use greencell_net::{Network, NetworkBuilder, PathLossModel, Point};
use greencell_phy::{PhyConfig, SpectrumState};
use greencell_units::{Bandwidth, DataRate, Energy, PacketSize, Packets, Power, TimeDelta};

fn tiny_net() -> Network {
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
    b.add_base_station(Point::new(0.0, 0.0));
    let u = b.add_user(Point::new(200.0, 0.0));
    b.add_session(u, DataRate::from_kilobits_per_second(100.0));
    b.build().unwrap()
}

fn node_config(overhead_watts: f64) -> NodeEnergyConfig {
    NodeEnergyConfig {
        battery: Battery::new(
            Energy::from_kilowatt_hours(1.0),
            Energy::from_kilowatt_hours(0.1),
            Energy::from_kilowatt_hours(0.1),
        ),
        energy_model: NodeEnergyModel::new(
            Power::from_watts(overhead_watts) * TimeDelta::from_minutes(1.0),
            Energy::ZERO,
            Power::from_milliwatts(100.0),
        ),
        max_power: Power::from_watts(1.0),
        grid_limit: Energy::from_kilowatt_hours(0.2),
    }
}

fn config() -> ControllerConfig {
    ControllerConfig {
        v: 1e5,
        lambda: 0.02,
        k_max: Packets::new(100),
        packet_size: PacketSize::from_bits(10_000),
        slot: TimeDelta::from_minutes(1.0),
        scheduler: SchedulerKind::Greedy,
        relay: RelayPolicy::MultiHop,
        energy_policy: greencell_core::EnergyPolicy::MarginalPrice,
        w_max: Bandwidth::from_megahertz(2.0),
        degradation: DegradationPolicy::Graceful,
        bs_sleep: None,
        energy_coop: None,
    }
}

fn strict_config() -> ControllerConfig {
    ControllerConfig {
        degradation: DegradationPolicy::Strict,
        ..config()
    }
}

#[test]
fn mismatched_energy_config_is_reported() {
    let net = tiny_net();
    let energy = EnergyConfig {
        nodes: vec![node_config(0.0); 5], // network has 2 nodes
        cost: QuadraticCost::paper_default(),
    };
    let err = Controller::new(net, PhyConfig::new(1.0, 1e-20), energy, config()).unwrap_err();
    assert_eq!(
        err,
        ControllerError::EnergyConfigMismatch {
            nodes: 2,
            configured: 5
        }
    );
    assert!(err.to_string().contains("energy config covers 5"));
}

/// An energy config whose user node's fixed overhead (20 kW per minute
/// ≈ 0.33 kWh) exceeds renewable (0) + battery (empty) + the 0.2 kWh grid
/// cap — the idle demand is unservable by any sourcing.
fn idle_deficit_energy() -> EnergyConfig {
    EnergyConfig {
        nodes: vec![node_config(0.0), node_config(20_000.0)],
        cost: QuadraticCost::paper_default(),
    }
}

fn zero_renewable_obs() -> SlotObservation {
    SlotObservation {
        spectrum: SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]),
        renewable: vec![Energy::ZERO; 2],
        grid_connected: vec![true, true],
        session_demand: vec![Packets::new(600)],
        price_multiplier: 1.0,
        node_available: vec![],
    }
}

#[test]
fn unservable_idle_demand_is_reported_under_strict_policy() {
    let mut ctl = Controller::new(
        tiny_net(),
        PhyConfig::new(1.0, 1e-20),
        idle_deficit_energy(),
        strict_config(),
    )
    .unwrap();
    let err = ctl.step(&zero_renewable_obs()).unwrap_err();
    assert_eq!(err, ControllerError::IdleDeficit { node: 1 });
    assert!(err.to_string().contains("idle energy demand"));
}

/// A strict abort must not wipe the dynamic network state: the next slot
/// keeps its scheduler, its sleep timers and both dynamic policies, and
/// the state export still carries the timers.
#[test]
fn strict_abort_keeps_the_dynamic_network_state() {
    let config = ControllerConfig {
        scheduler: SchedulerKind::SequentialFix,
        bs_sleep: Some(SleepPolicy {
            threshold_pkts: 1.0,
            w_slots: 3,
            wake_threshold_pkts: 5.0,
            ramp_slots: 1,
            sleep_power: Power::from_watts(1.0),
            ramp_power: Power::from_watts(5.0),
        }),
        energy_coop: Some(CoopPolicy { eta_x: 0.5 }),
        ..strict_config()
    };
    let mut ctl = Controller::new(
        tiny_net(),
        PhyConfig::new(1.0, 1e-20),
        idle_deficit_energy(),
        config,
    )
    .unwrap();
    for _ in 0..2 {
        let err = ctl.step(&zero_renewable_obs()).unwrap_err();
        assert_eq!(err, ControllerError::IdleDeficit { node: 1 });
        let ns = ctl
            .network_state()
            .expect("the dynamic state survives the abort");
        assert_eq!(ns.scheduler(), SchedulerKind::SequentialFix);
        assert!(ns.sleep_policy().is_some() && ns.coop_policy().is_some());
        let state = ctl.export_state();
        assert_eq!(state.slot, 0, "an aborted slot does not count");
        assert_eq!(state.awake, [true, true]);
        assert_eq!(state.idle_slots.len(), 2, "sleep timers are exported");
        assert_eq!(state.ramp_remaining.len(), 2);
        assert_eq!(state.association.len(), 2);
    }
}

#[test]
fn unservable_idle_demand_degrades_to_safe_mode_under_graceful_policy() {
    let mut ctl = Controller::new(
        tiny_net(),
        PhyConfig::new(1.0, 1e-20),
        idle_deficit_energy(),
        config(),
    )
    .unwrap();
    let obs = zero_renewable_obs();
    for _ in 0..3 {
        let report = ctl.step(&obs).expect("graceful policy never aborts");
        // The starving user browns out by exactly overhead − grid cap
        // (the battery is empty): 0.33̄ − 0.2 = 0.13̄ kWh.
        let deficit = report
            .degradation
            .iter()
            .find_map(|e| match e {
                DegradationEvent::SafeMode { node: 1, deficit } => Some(*deficit),
                _ => None,
            })
            .expect("node 1 must report a safe-mode brown-out");
        assert!((deficit.as_kilowatt_hours() - (20.0 / 60.0 - 0.2)).abs() < 1e-6);
        // Safe mode drops the slot's load entirely.
        assert_eq!(report.admitted, Packets::ZERO);
        assert_eq!(report.routed, Packets::ZERO);
        assert_eq!(report.scheduled_links, 0);
        // The healthy BS still pays only for what it draws.
        assert!(report.cost >= 0.0);
        assert!(report.grid_draw <= Energy::from_kilowatt_hours(0.4));
    }
}

#[test]
fn down_base_station_blocks_admission_and_scheduling() {
    let net = tiny_net();
    let energy = EnergyConfig {
        nodes: vec![node_config(0.0), node_config(0.0)],
        cost: QuadraticCost::paper_default(),
    };
    let mut ctl = Controller::new(net, PhyConfig::new(1.0, 1e-20), energy, config()).unwrap();
    let outage = SlotObservation {
        renewable: vec![Energy::from_joules(600.0); 2],
        node_available: vec![false, true],
        ..zero_renewable_obs()
    };
    for _ in 0..5 {
        let report = ctl.step(&outage).expect("outage slots still run");
        assert_eq!(report.admitted, Packets::ZERO, "down BS must not admit");
        assert_eq!(report.scheduled_links, 0, "down BS must not transmit");
    }
    // Recovery: the BS comes back and traffic flows again.
    let healthy = SlotObservation {
        node_available: vec![],
        ..outage
    };
    let mut delivered_any = false;
    for _ in 0..10 {
        let report = ctl.step(&healthy).expect("recovers");
        delivered_any |= report.routed > Packets::ZERO;
    }
    assert!(delivered_any, "traffic should flow after the outage clears");
}

#[test]
#[should_panic(expected = "renewable vector length")]
fn malformed_observation_panics_loudly() {
    let net = tiny_net();
    let energy = EnergyConfig {
        nodes: vec![node_config(0.0); 2],
        cost: QuadraticCost::paper_default(),
    };
    let mut ctl = Controller::new(net, PhyConfig::new(1.0, 1e-20), energy, config()).unwrap();
    let obs = SlotObservation {
        spectrum: SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]),
        renewable: vec![Energy::ZERO; 7],
        grid_connected: vec![true, true],
        session_demand: vec![Packets::new(600)],
        price_multiplier: 1.0,
        node_available: vec![],
    };
    let _ = ctl.step(&obs);
}

#[test]
fn controller_recovers_after_transient_energy_shortage() {
    // A disconnected user with a drained battery can still be scheduled
    // once it harvests enough: run with zero renewables (no relaying
    // through the user), then with plentiful renewables, and confirm
    // traffic flows in the second phase.
    let net = tiny_net();
    let energy = EnergyConfig {
        nodes: vec![node_config(0.0), node_config(0.0)],
        cost: QuadraticCost::paper_default(),
    };
    let mut ctl = Controller::new(net, PhyConfig::new(1.0, 1e-20), energy, config()).unwrap();
    let lean = SlotObservation {
        spectrum: SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]),
        renewable: vec![Energy::ZERO; 2],
        grid_connected: vec![true, false],
        session_demand: vec![Packets::new(600)],
        price_multiplier: 1.0,
        node_available: vec![],
    };
    for _ in 0..5 {
        ctl.step(&lean).expect("lean slots still run");
    }
    let plentiful = SlotObservation {
        renewable: vec![Energy::from_joules(600.0); 2],
        grid_connected: vec![true, true],
        ..lean.clone()
    };
    let mut delivered_any = false;
    for _ in 0..10 {
        let report = ctl.step(&plentiful).expect("recovers");
        delivered_any |= report.routed > Packets::ZERO;
    }
    assert!(
        delivered_any,
        "traffic should flow once energy is available"
    );
}
