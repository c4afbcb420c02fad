//! The cluster-partitioned controller and its observation driver.
//!
//! [`ShardedController`] decomposes a city into interference clusters,
//! builds one sub-network per cluster, and hands them to the one slot
//! driver, [`SlotDriver`], as its partitions: S1 scheduling, S2 admission
//! and S3 routing run per cluster — optionally on several worker threads —
//! while S4 energy management stays global (the provider's cost `f(P)`
//! couples all base stations). The dense
//! [`Controller`](greencell_core::Controller) is the same driver with one
//! partition, so with pruning disabled (one cluster) every [`SlotReport`]
//! is bit-identical to the dense pipeline's; the `city_equivalence`
//! integration test pins that, fault archetypes included.
//!
//! Worker count never changes results: clusters are solved from their own
//! state only and are assigned to threads in contiguous deterministic
//! chunks, so the per-cluster outputs — and every global reduction, which
//! always runs in cluster-id order on one thread — are identical at any
//! parallelism.

use greencell_core::pipeline::SlotDriver;
use greencell_core::{EnergyConfig, NetworkState, SlotObservation, SlotReport};
use greencell_energy::QuadraticCost;
use greencell_net::{Network, NetworkBuilder, NodeId, NodeKind, PathLossModel};
use greencell_phy::SpectrumState;
use greencell_stochastic::{Distribution, Poisson, Rng};
use greencell_trace::NoopSink;
use greencell_units::{Bandwidth, Energy, Packets, Power};

use super::ClusterSet;
use crate::engine::SimError;
use crate::scenario::{DemandModel, GridModel, Scenario, ScenarioLayout};

/// A cluster-parallel drop-in for the dense controller on city-scale
/// scenarios: S1–S3 per interference cluster, S4 global, same degradation
/// ladder, bit-identical reports when pruning is off (one cluster).
///
/// Construct from a [`Scenario`]; step with the same [`SlotObservation`]s
/// the dense pipeline takes, fault masks included (or drive it with
/// [`CitySim`]).
#[derive(Debug)]
pub struct ShardedController {
    driver: SlotDriver,
    /// The static decomposition the partitions are built from.
    decomposition: ClusterSet,
    /// The scenario and layout, kept for awake-set re-decomposition.
    scenario: Scenario,
    layout: ScenarioLayout,
    /// The decomposition over the currently-awake node set (recomputed on
    /// every awake-set change; equals `decomposition` while all BSs are
    /// up). Partitions stay bound to the static decomposition — masking
    /// inside a static cluster is exactly equivalent because cross-cluster
    /// gains are zero, so a user's best awake BS is always in its own
    /// static cluster.
    effective: ClusterSet,
    redecompositions: u64,
    masked: Vec<bool>,
}

impl ShardedController {
    /// Single-threaded construction; see [`ShardedController::with_workers`].
    ///
    /// # Errors
    ///
    /// See [`ShardedController::with_workers`].
    pub fn new(scenario: &Scenario) -> Result<Self, SimError> {
        Self::with_workers(scenario, 1)
    }

    /// Builds the decomposition and one driver partition per cluster that
    /// has a base station, solving clusters on up to `workers` threads per
    /// slot. Worker count does not affect results, only wall-clock.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedAtScale`] if the scenario uses shadowing, or
    /// if a session destination lands in a cluster with no base station
    /// (no admission source could ever reach it);
    /// [`SimError::Network`] if a cluster sub-network fails validation.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's controller configuration is numerically
    /// invalid (same contract as the dense controller).
    pub fn with_workers(scenario: &Scenario, workers: usize) -> Result<Self, SimError> {
        if scenario.shadowing_sigma_db > 0.0 {
            return Err(SimError::UnsupportedAtScale {
                detail: "log-normal shadowing breaks the geometric interference-closure \
                         guarantee of cluster decomposition"
                    .into(),
            });
        }
        let layout = scenario.build_layout();
        let is_bs: Vec<bool> = layout.kinds.iter().map(|k| k.is_base_station()).collect();
        let decomposition = ClusterSet::decompose(&layout, scenario);
        let node_cluster = decomposition.membership();
        for &(dest, _) in &layout.sessions {
            let members = &decomposition.clusters()[node_cluster[dest]];
            if !is_bs[members[0]] {
                return Err(SimError::UnsupportedAtScale {
                    detail: format!(
                        "session destination node {dest} lies in a base-station-free \
                         interference cluster; no admission source could reach it"
                    ),
                });
            }
        }
        let energy = EnergyConfig {
            nodes: is_bs
                .iter()
                .map(|&bs| scenario.node_energy_config(bs))
                .collect(),
            cost: QuadraticCost::new(scenario.cost.0, scenario.cost.1, scenario.cost.2),
        };
        let mut driver = SlotDriver::new(
            scenario.phy(),
            energy,
            scenario.controller_config(),
            is_bs.clone(),
            workers,
        );
        for (cid, members) in decomposition.clusters().iter().enumerate() {
            // Global ids put BSs first, members are ascending: a cluster
            // has a BS iff its first member is one. BS-less clusters get no
            // partition; their nodes idle.
            if !is_bs[members[0]] {
                continue;
            }
            let mut b = NetworkBuilder::new(
                PathLossModel::new(scenario.path_loss_c, scenario.path_loss_gamma),
                scenario.band_count(),
            );
            for &g in members {
                match layout.kinds[g] {
                    NodeKind::BaseStation => b.add_base_station(layout.positions[g]),
                    NodeKind::User => b.add_user(layout.positions[g]),
                };
            }
            for (local, &g) in members.iter().enumerate() {
                b.set_bands(NodeId::from_index(local), layout.bands[g]);
            }
            let mut sessions = Vec::new();
            for (sid, &(dest, demand)) in layout.sessions.iter().enumerate() {
                if node_cluster[dest] == cid {
                    let local = members
                        .binary_search(&dest)
                        .expect("destination is a member");
                    b.add_session(NodeId::from_index(local), demand);
                    sessions.push(sid);
                }
            }
            if scenario.gain_floor > 0.0 {
                b.set_gain_floor(scenario.gain_floor);
            }
            let net = b.build().map_err(SimError::Network)?;
            driver.add_partition(net, members.clone(), sessions);
        }
        driver.reserve_arenas();
        Ok(Self {
            driver,
            effective: decomposition.clone(),
            decomposition,
            scenario: scenario.clone(),
            masked: Vec::with_capacity(layout.len()),
            layout,
            redecompositions: 0,
        })
    }

    /// Runs one slot through the shared driver, then re-decomposes the
    /// effective cluster set if the sleep machine changed the awake set.
    ///
    /// # Errors
    ///
    /// [`SimError::Controller`] under the strict degradation policy when
    /// S4 stays infeasible after shedding.
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions for this scenario.
    pub fn step(&mut self, obs: &SlotObservation) -> Result<SlotReport, SimError> {
        let report = self.driver.step(obs, &mut NoopSink);
        if self.driver.awake_set_changed() {
            let awake = self.driver.network_state().map_or(&[][..], |ns| ns.awake());
            let is_bs = self.layout.kinds.iter().map(|k| k.is_base_station());
            self.masked.clear();
            self.masked
                .extend(is_bs.zip(awake).map(|(bs, &up)| bs && !up));
            self.effective =
                ClusterSet::decompose_masked(&self.layout, &self.scenario, &self.masked);
            self.redecompositions += 1;
        }
        Ok(report?)
    }

    /// The cluster decomposition this controller solves over.
    #[must_use]
    pub fn decomposition(&self) -> &ClusterSet {
        &self.decomposition
    }

    /// Number of clusters that carry a sub-network solver (clusters with
    /// at least one base station).
    #[must_use]
    pub fn solver_count(&self) -> usize {
        self.driver.partitions().len()
    }

    /// The configured worker-thread cap.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.driver.workers()
    }

    /// Slots stepped so far.
    #[must_use]
    pub fn slot(&self) -> u64 {
        self.driver.slot()
    }

    /// When the decomposition is a single cluster covering every node
    /// (pruning off, or one fully connected component), its sub-network —
    /// which is then exactly the dense [`Scenario::build_network`] result.
    #[must_use]
    pub fn single_network(&self) -> Option<&Network> {
        match self.driver.partitions() {
            [only] if self.decomposition.len() == 1 => Some(only.network()),
            _ => None,
        }
    }

    /// The live dynamic network state, or `None` when both the sleep and
    /// cooperation policies are disabled (the state is then inert).
    #[must_use]
    pub fn network_state(&self) -> Option<&NetworkState> {
        self.driver.network_state()
    }

    /// How many times an awake-set change triggered recomputation of the
    /// effective decomposition.
    #[must_use]
    pub fn redecompositions(&self) -> u64 {
        self.redecompositions
    }

    /// The decomposition over the currently-awake node set. Equals
    /// [`ShardedController::decomposition`] until a BS sleeps; sleeping
    /// base stations split off as singleton clusters.
    #[must_use]
    pub fn effective_decomposition(&self) -> &ClusterSet {
        &self.effective
    }

    /// Total data-queue backlog across all clusters (stability telemetry).
    #[must_use]
    pub fn total_data_backlog(&self) -> Packets {
        self.driver
            .partitions()
            .iter()
            .map(|p| p.data().total_backlog())
            .sum()
    }
}

/// Drives a [`ShardedController`] with observations drawn by the exact
/// per-stream discipline of the dense [`Simulator`](crate::Simulator):
/// the master seed splits into topology, band, renewable, grid, and
/// demand streams in that order, and each slot consumes draws in the same
/// sequence — so a fault-free, i.i.d.-grid scenario produces
/// bit-identical observations on either driver.
#[derive(Debug)]
pub struct CitySim {
    scenario: Scenario,
    controller: ShardedController,
    band_rng: Rng,
    renewable_rng: Rng,
    grid_rng: Rng,
    demand_rng: Rng,
    is_bs: Vec<bool>,
    session_cells: Vec<usize>,
    session_nominal: Vec<Packets>,
    slots_run: usize,
}

impl CitySim {
    /// Single-threaded construction; see [`CitySim::with_workers`].
    ///
    /// # Errors
    ///
    /// See [`CitySim::with_workers`].
    pub fn new(scenario: &Scenario) -> Result<Self, SimError> {
        Self::with_workers(scenario, 1)
    }

    /// Builds the sharded controller and observation streams.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedAtScale`] for a fault plan and for Markov
    /// grid chains — this driver draws neither, so it would silently run
    /// the scenario without them — and for anything
    /// [`ShardedController::with_workers`] rejects. The controller itself
    /// takes fault masks: pre-draw observations that carry them and step
    /// [`CitySim::controller_mut`] directly.
    pub fn with_workers(scenario: &Scenario, workers: usize) -> Result<Self, SimError> {
        if scenario.faults.is_some() {
            return Err(SimError::UnsupportedAtScale {
                detail: "CitySim draws no fault plan; fault injection is wired into the \
                         dense Simulator"
                    .into(),
            });
        }
        if matches!(scenario.grid_model, GridModel::Markov { .. }) {
            return Err(SimError::UnsupportedAtScale {
                detail: "Markov grid chains are only wired into the dense Simulator".into(),
            });
        }
        let mut master = Rng::seed_from(scenario.seed);
        let _topology = master.split(); // consumed by build_layout
        let band_rng = master.split();
        let renewable_rng = master.split();
        let grid_rng = master.split();
        let demand_rng = master.split();
        let controller = ShardedController::with_workers(scenario, workers)?;
        let layout = scenario.build_layout();
        let session_cells = layout.session_cells();
        let session_nominal = layout
            .sessions
            .iter()
            .map(|&(_, demand)| (demand * scenario.slot).whole_packets(scenario.packet_size))
            .collect();
        Ok(Self {
            scenario: scenario.clone(),
            controller,
            band_rng,
            renewable_rng,
            grid_rng,
            demand_rng,
            is_bs: layout.kinds.iter().map(|k| k.is_base_station()).collect(),
            session_cells,
            session_nominal,
            slots_run: 0,
        })
    }

    /// Draws the next slot's observation (advancing every stream and the
    /// slot counter) without stepping the controller. Pair with
    /// [`CitySim::controller_mut`] to drive the solve yourself — e.g. to
    /// pre-draw observations outside a measured region.
    pub fn next_observation(&mut self) -> SlotObservation {
        let s = &self.scenario;
        let mut bandwidths = Vec::with_capacity(s.band_count());
        bandwidths.push(Bandwidth::from_megahertz(s.cellular_band_mhz));
        for &(lo, hi) in &s.random_bands {
            bandwidths.push(Bandwidth::from_megahertz(self.band_rng.range_f64(lo, hi)));
        }
        let renewables_on = s.architecture.renewables_enabled();
        let renewable: Vec<Energy> = self
            .is_bs
            .iter()
            .map(|&bs| {
                let max = if bs {
                    s.bs_renewable_max
                } else {
                    s.user_renewable_max
                };
                // Draw even when disabled (common random numbers).
                let watts = self.renewable_rng.range_f64(0.0, max.as_watts());
                if renewables_on {
                    Power::from_watts(watts) * s.slot
                } else {
                    Energy::ZERO
                }
            })
            .collect();
        let grid_connected: Vec<bool> = self
            .is_bs
            .iter()
            .map(|&bs| {
                let draw = self.grid_rng.chance(s.user_grid_probability);
                bs || draw
            })
            .collect();
        let n_cells = s.bs_positions.len();
        let session_demand: Vec<Packets> = self
            .session_nominal
            .iter()
            .enumerate()
            .map(|(sid, &base)| {
                let mut nominal = base;
                if let Some(profile) = s.diurnal {
                    nominal =
                        profile.scale(nominal, self.slots_run, self.session_cells[sid], n_cells);
                }
                match s.demand_model {
                    DemandModel::Constant => nominal,
                    DemandModel::Poisson => {
                        let poisson = Poisson::new(nominal.count_f64()).expect("non-negative mean");
                        Packets::new(poisson.sample(&mut self.demand_rng))
                    }
                }
            })
            .collect();
        let price_multiplier = s.pricing.multiplier(self.slots_run);
        self.slots_run += 1;
        SlotObservation {
            spectrum: SpectrumState::new(bandwidths),
            renewable,
            grid_connected,
            session_demand,
            price_multiplier,
            node_available: vec![],
        }
    }

    /// Draws one observation and steps the controller.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedController::step`] errors.
    pub fn step(&mut self) -> Result<SlotReport, SimError> {
        let obs = self.next_observation();
        self.controller.step(&obs)
    }

    /// Runs the scenario's full horizon, collecting every slot report.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CitySim::step`] error.
    pub fn run(&mut self) -> Result<Vec<SlotReport>, SimError> {
        let mut reports = Vec::with_capacity(self.scenario.horizon);
        for _ in 0..self.scenario.horizon {
            reports.push(self.step()?);
        }
        Ok(reports)
    }

    /// The scenario this simulation runs.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The underlying sharded controller.
    #[must_use]
    pub fn controller(&self) -> &ShardedController {
        &self.controller
    }

    /// Mutable access to the controller, for callers that pre-draw
    /// observations with [`CitySim::next_observation`].
    pub fn controller_mut(&mut self) -> &mut ShardedController {
        &mut self.controller
    }

    /// Slots stepped (or observed) so far.
    #[must_use]
    pub fn slots_run(&self) -> usize {
        self.slots_run
    }
}
