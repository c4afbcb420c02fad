//! The dense per-slot controller (problem P3, §IV-C) and its public
//! records.
//!
//! [`Controller`] is the single-partition case of
//! [`crate::pipeline::SlotDriver`], the one slot driver: S1/S3/S4 run
//! behind stage traits resolved once at construction, every per-slot
//! buffer lives in a retained arena, and the degradation ladder is a chain
//! of [`crate::pipeline::FallbackStage`] rungs. What stays here is the
//! public surface — reports, errors, timings, state capture — and the
//! frozen pre-pipeline oracle [`Controller::step_reference`].

use crate::pipeline::{self, EnergyStage, SlotDriver};
use crate::{
    dpp, greedy_schedule_with, resource_allocation, route_flows_reference, s1::S1Inputs,
    sequential_fix_schedule_with, solve_energy_management, ControllerConfig, EnergyConfig,
    EnergyManagementError, EnergyManagementInput, NetworkState, S1Scratch, ScheduleOutcome,
    SchedulerKind, SlotObservation,
};
use greencell_energy::Battery;
use greencell_net::{Network, NodeId, SessionId};
use greencell_phy::{packets_per_slot, potential_capacity, PhyConfig};
use greencell_queue::{DataQueueBank, LinkQueueBank, PacketQueue};
use greencell_trace::{NoopSink, Sink};
use greencell_units::{Energy, Packets};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Error from [`Controller::new`] or [`Controller::step`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControllerError {
    /// The energy configuration does not cover every node.
    EnergyConfigMismatch {
        /// Nodes in the network.
        nodes: usize,
        /// Entries in the energy configuration.
        configured: usize,
    },
    /// S4 failed even after shedding every transmission — a node cannot
    /// source its *idle* demand (`E^const + E^idle`). The hardware
    /// configuration is inconsistent with the node's supply.
    IdleDeficit {
        /// The starving node.
        node: usize,
    },
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EnergyConfigMismatch { nodes, configured } => write!(
                f,
                "energy config covers {configured} nodes but the network has {nodes}"
            ),
            Self::IdleDeficit { node } => {
                write!(f, "node {node} cannot source its idle energy demand")
            }
        }
    }
}

impl Error for ControllerError {}

impl From<EnergyManagementError> for ControllerError {
    /// The strict-policy mapping: any S4 failure that survives shedding
    /// means some node cannot source its idle demand.
    fn from(e: EnergyManagementError) -> Self {
        match e {
            EnergyManagementError::Deficit { node, .. } => Self::IdleDeficit { node },
            _ => Self::IdleDeficit { node: 0 },
        }
    }
}

/// One rung of the graceful-degradation ladder taken during a slot,
/// recorded in [`SlotReport::degradation`] (under
/// [`crate::DegradationPolicy::Graceful`]; the strict policy aborts
/// instead).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DegradationEvent {
    /// Transmissions touching a starving node were shed before S4 retried.
    Shed {
        /// The node whose energy deficit triggered the shedding.
        node: usize,
        /// How many transmissions were dropped.
        dropped: usize,
    },
    /// The marginal-price solver failed on an idle schedule; the slot ran
    /// on the storage-oblivious grid-only solver instead.
    GridOnlyFallback,
    /// Even grid-only sourcing was infeasible: the slot ran in safe mode
    /// and this node browned out by `deficit`.
    SafeMode {
        /// The browned-out node.
        node: usize,
        /// The unserved energy.
        deficit: Energy,
    },
}

/// What one controller step did — everything the simulator records.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotReport {
    /// Slot index (0-based).
    pub slot: u64,
    /// The provider's energy cost `f(P(t))` this slot.
    pub cost: f64,
    /// Total base-station grid draw `P(t)`.
    pub grid_draw: Energy,
    /// Number of scheduled transmissions.
    pub scheduled_links: usize,
    /// Total admitted packets `Σ_s k_s(t)`.
    pub admitted: Packets,
    /// Total packets moved by routing this slot.
    pub routed: Packets,
    /// The achieved `Ψ̂₁(t)` value (diagnostic, Eq. (35)).
    pub psi1: f64,
    /// The achieved `Ψ̂₂(t)` value (diagnostic, Eq. (36)).
    pub psi2: f64,
    /// The achieved `Ψ̂₃(t)` value (diagnostic, Eq. (37)).
    pub psi3: f64,
    /// The achieved `Ψ̂₄(t)` value (diagnostic, Eq. (38)).
    pub psi4: f64,
    /// The Lyapunov function `L(Θ(t))` before this slot's updates.
    pub lyapunov_before: f64,
    /// The Lyapunov function `L(Θ(t+1))` after this slot's updates.
    pub lyapunov_after: f64,
    /// Transmissions shed because their transmitter could not source the
    /// energy (should stay 0 in fault-free runs; counted for diagnostics).
    pub shed_transmissions: usize,
    /// Degradation-ladder rungs taken this slot (empty on a clean slot).
    pub degradation: Vec<DegradationEvent>,
}

impl SlotReport {
    /// Lemma 1's left-hand side for this slot:
    /// `Δ(Θ(t)) + V·(f(P(t)) − λ·Σ k_s(t))`. Lemma 1 bounds it by
    /// `B + Ψ̂₁ + Ψ̂₂ + Ψ̂₃ + Ψ̂₄`; see [`crate::dpp::penalty_constant_b`].
    #[must_use]
    pub fn drift_plus_penalty(&self, v: f64, lambda: f64) -> f64 {
        crate::dpp::drift_plus_penalty(
            self.lyapunov_before,
            self.lyapunov_after,
            v,
            self.cost,
            lambda,
            self.admitted.count_f64(),
        )
    }

    /// The sum `Ψ̂₁ + Ψ̂₂ + Ψ̂₃ + Ψ̂₄` this slot's decisions achieved.
    #[must_use]
    pub fn psi_total(&self) -> f64 {
        self.psi1 + self.psi2 + self.psi3 + self.psi4
    }
}

/// Cumulative wall-clock spent in each stage of the S1→S4 pipeline,
/// accumulated across every [`Controller::step`] call by the driver's
/// [`crate::pipeline::StageClock`] (one capture site, not per-stage
/// hand-wired reads).
///
/// Kept on the controller (not in [`SlotReport`]) so slot reports stay
/// comparable across runs: wall-clock is nondeterministic, decisions are
/// not. S4 runs inside the shedding retry loop, so its total includes any
/// retries, and S3's includes the link-service refresh after each shed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Time in S1 link scheduling (greedy or sequential-fix).
    pub s1: Duration,
    /// Time in S2 admission control / resource allocation.
    pub s2: Duration,
    /// Time in S3 routing (including realized link-service computation).
    pub s3: Duration,
    /// Time in S4 energy management (marginal-price or grid-only solve).
    pub s4: Duration,
    /// Number of slots accumulated.
    pub slots: u64,
}

impl StageTimings {
    /// Total time across all four stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.s1 + self.s2 + self.s3 + self.s4
    }

    /// Per-stage share of the total, as `[s1, s2, s3, s4]` fractions;
    /// all zeros when nothing has been timed yet.
    #[must_use]
    pub fn shares(&self) -> [f64; 4] {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return [0.0; 4];
        }
        [
            self.s1.as_secs_f64() / total,
            self.s2.as_secs_f64() / total,
            self.s3.as_secs_f64() / total,
            self.s4.as_secs_f64() / total,
        ]
    }
}

/// The complete evolving state of a [`Controller`] — everything that
/// changes from slot to slot, captured by [`Controller::export_state`] and
/// replayed by [`Controller::import_state`].
///
/// Holds the battery fleet `x_i(t)` (including any runtime capacity fade
/// or charge blocks a fault injected), the data queue bank's packing
/// (`queues[s·n + i]` plus per-session delivered/phantom counters), and
/// the link bank's `queues[i·n + j]` packing. Construction facts (network,
/// configs, `β`, resolved stages) are deliberately absent: a restore
/// rebuilds those from the same inputs and only overlays this state.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// The next slot index to run (0-based).
    pub slot: u64,
    /// Per-node batteries, verbatim (level, limits, fade, charge block).
    pub batteries: Vec<Battery>,
    /// Data queues in the bank's `queues[s·n + i]` layout.
    pub data_queues: Vec<PacketQueue>,
    /// Per-session delivered totals.
    pub delivered: Vec<Packets>,
    /// Per-session phantom-forward totals.
    pub phantom: Vec<Packets>,
    /// Link queues in the bank's `queues[i·n + j]` layout.
    pub link_queues: Vec<PacketQueue>,
    /// Per-node awake flags from the dynamic [`crate::NetworkState`]
    /// (empty when neither dynamic policy is enabled).
    pub awake: Vec<bool>,
    /// Per-node consecutive-idle-slot counters (empty when static).
    pub idle_slots: Vec<u32>,
    /// Per-node remaining ramp-up slots (empty when static).
    pub ramp_remaining: Vec<u32>,
    /// Per-user best awake BS, `usize::MAX` = uncovered (empty when
    /// static).
    pub association: Vec<usize>,
    /// Cumulative BS sleep transitions.
    pub sleep_transitions: u64,
    /// Cumulative BS wake transitions.
    pub wake_transitions: u64,
    /// Cumulative kWh delivered by inter-BS energy transfers.
    pub transferred_kwh: f64,
}

/// The online finite-queue-aware energy-cost controller (the paper's
/// decomposition algorithm, §IV-C).
///
/// Owns the full network state — data queues `Q^s_i`, virtual link queues
/// `G_ij`/`H_ij`, and batteries `x_i` — and advances it one slot per
/// [`Controller::step`] given that slot's random observation. The slot
/// itself runs in [`crate::pipeline::SlotDriver`] with a single partition
/// whose local ids are the global ids: the config enums resolve to stage
/// implementations at construction, and the city-scale sharded controller
/// runs the same driver over many partitions. See the crate-level example.
#[derive(Debug, Clone)]
pub struct Controller {
    penalty_b: f64,
    driver: SlotDriver,
}

impl Controller {
    /// Builds a controller with empty queues and the configured initial
    /// battery states.
    ///
    /// # Errors
    ///
    /// [`ControllerError::EnergyConfigMismatch`] if `energy.nodes` does not
    /// have exactly one entry per network node.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ControllerConfig::validate`].
    pub fn new(
        net: Network,
        phy: PhyConfig,
        energy: EnergyConfig,
        config: ControllerConfig,
    ) -> Result<Self, ControllerError> {
        config.validate();
        let nodes = net.topology().len();
        if energy.nodes.len() != nodes {
            return Err(ControllerError::EnergyConfigMismatch {
                nodes,
                configured: energy.nodes.len(),
            });
        }
        let penalty_b = dpp::penalty_constant_b(&net, &energy, &config, &phy);
        let is_bs = net
            .topology()
            .nodes()
            .iter()
            .map(|n| n.kind().is_base_station())
            .collect();
        let sessions = (0..net.session_count()).collect();
        let mut driver = SlotDriver::new(phy, energy, config, is_bs, 1);
        driver.add_partition(net, (0..nodes).collect(), sessions);
        Ok(Self { penalty_b, driver })
    }

    /// The dynamic network state, when a dynamic-topology policy
    /// (`bs_sleep` / `energy_coop`) is enabled; `None` for the paper's
    /// static configuration.
    #[must_use]
    pub fn network_state(&self) -> Option<&NetworkState> {
        self.driver.network_state()
    }

    /// The network being controlled.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.driver.parts[0].net
    }

    /// The data queue bank `Q^s_i(t)`.
    #[must_use]
    pub fn data(&self) -> &DataQueueBank {
        &self.driver.parts[0].data
    }

    /// The virtual link queue bank `G_ij(t)` / `H_ij(t)`.
    #[must_use]
    pub fn links(&self) -> &LinkQueueBank {
        &self.driver.parts[0].links
    }

    /// Battery of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn battery(&self, i: NodeId) -> &Battery {
        &self.driver.batteries[i.index()]
    }

    /// Mutable battery of node `i`, for hardware fault injection (capacity
    /// fade, charge-path failure) between slots.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn battery_mut(&mut self, i: NodeId) -> &mut Battery {
        &mut self.driver.batteries[i.index()]
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.driver.config
    }

    /// The scaling constant `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.driver.beta
    }

    /// The shift constant `γ_max`.
    #[must_use]
    pub fn gamma_max(&self) -> f64 {
        self.driver.gamma_max
    }

    /// Lemma 1's constant `B` — the `B/V` of Theorem 5's gap.
    #[must_use]
    pub fn penalty_b(&self) -> f64 {
        self.penalty_b
    }

    /// Cumulative wall-clock spent in each pipeline stage so far.
    #[must_use]
    pub fn stage_timings(&self) -> StageTimings {
        self.driver.timings
    }

    /// The next slot index [`Controller::step`] will run (0-based; equals
    /// the number of slots stepped so far).
    #[must_use]
    pub fn slot(&self) -> u64 {
        self.driver.slot
    }

    /// Captures every piece of state that evolves across slots — the queue
    /// banks `Q^s_i`/`G_ij`, the batteries `x_i`, and the slot counter —
    /// as a [`ControllerState`] a later [`Controller::import_state`] can
    /// replay from.
    ///
    /// Derived constants (`β`, `γ_max`, `B`), the resolved pipeline stages,
    /// and the per-slot arena are *not* captured: they are pure functions
    /// of the construction inputs, and the S1/S4 warm-kernel equivalence
    /// gates prove the pipeline's decisions are bit-identical whether its
    /// workspaces are warm or freshly defaulted.
    #[must_use]
    pub fn export_state(&self) -> ControllerState {
        let ns = &self.driver.ctx.net_state;
        let (awake, idle_slots, ramp_remaining) = ns.export_timers();
        // Static runs persist no dynamic state.
        fn kept<T: Clone>(dynamic: bool, v: &[T]) -> Vec<T> {
            if dynamic {
                v.to_vec()
            } else {
                Vec::new()
            }
        }
        let dynamic = ns.dynamic();
        ControllerState {
            slot: self.driver.slot,
            batteries: self.driver.batteries.clone(),
            data_queues: self.data().queues().to_vec(),
            delivered: self.data().delivered_per_session().to_vec(),
            phantom: self.data().phantom_per_session().to_vec(),
            link_queues: self.links().queues().to_vec(),
            awake: kept(dynamic, awake),
            idle_slots: kept(dynamic, idle_slots),
            ramp_remaining: kept(dynamic, ramp_remaining),
            association: kept(dynamic, ns.association()),
            sleep_transitions: ns.sleep_transitions(),
            wake_transitions: ns.wake_transitions(),
            transferred_kwh: ns.transferred_kwh(),
        }
    }

    /// Overwrites the evolving state from a captured [`ControllerState`],
    /// resetting the per-slot arena and stage timings (warm kernels restart
    /// cold — provably without affecting decisions, wall-clock restarts
    /// from zero by design).
    ///
    /// # Panics
    ///
    /// Panics if the state's dimensions disagree with this controller's
    /// network (battery count, queue-bank layouts).
    pub fn import_state(&mut self, state: &ControllerState) {
        let d = &mut self.driver;
        assert_eq!(
            state.batteries.len(),
            d.batteries.len(),
            "battery count mismatch"
        );
        d.slot = state.slot;
        d.batteries.clone_from(&state.batteries);
        let part = &mut d.parts[0];
        part.data
            .restore(&state.data_queues, &state.delivered, &state.phantom);
        part.links.restore(&state.link_queues);
        d.reset_arena();
        if !state.awake.is_empty() {
            d.ctx.net_state.restore(
                &state.awake,
                &state.idle_slots,
                &state.ramp_remaining,
                &state.association,
                state.sleep_transitions,
                state.wake_transitions,
                state.transferred_kwh,
            );
        }
        d.timings = StageTimings::default();
    }

    /// Swaps the S4 stage for any object registered through the
    /// [`crate::pipeline`] seam (e.g.
    /// `pipeline::energy_stage("grid_only")`), overriding what
    /// [`crate::EnergyPolicy::key`] resolved at construction. Ablation
    /// hook: lets a custom or baseline energy policy run under the full
    /// driver (timing, tracing, degradation ladder) without a config enum
    /// variant.
    pub fn set_energy_stage(&mut self, stage: &'static dyn EnergyStage) {
        self.driver.energy_stage = stage;
    }

    /// The registry key of the S4 stage currently in force.
    #[must_use]
    pub fn energy_stage_key(&self) -> &'static str {
        self.driver.energy_stage.key()
    }

    /// The current Lyapunov function value `L(Θ(t))` given the shifted
    /// battery levels.
    fn lyapunov_value(&self, z: &[f64]) -> f64 {
        greencell_queue::lyapunov_value(self.data(), self.links(), z)
    }

    /// The shifted battery level `z_i(t)` in kWh.
    #[must_use]
    pub fn shifted_level(&self, i: NodeId) -> f64 {
        self.driver.shifted_level(i.index())
    }

    /// Runs one slot of the S1→S2→S3→S4 pipeline and advances all queues.
    ///
    /// # Errors
    ///
    /// [`ControllerError::IdleDeficit`] if a node cannot source even its
    /// fixed overhead energy (configuration inconsistency).
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions for this network.
    pub fn step(&mut self, obs: &SlotObservation) -> Result<SlotReport, ControllerError> {
        self.step_traced(obs, &mut NoopSink)
    }

    /// [`Controller::step`] with instrumentation: emits stage spans
    /// (S1–S4, per retry attempt, plus the state advance and the whole
    /// slot), degradation marks, and drift/penalty/Ψ̂ gauges into `sink`.
    ///
    /// Every gauge and counter payload is derived from the slot index and
    /// the deterministic decisions, never from wall-clock — only the
    /// spans are nondeterministic. With [`NoopSink`] the instrumentation
    /// reduces to one `enabled()` branch per site.
    ///
    /// # Errors
    ///
    /// [`ControllerError::IdleDeficit`] if a node cannot source even its
    /// fixed overhead energy (configuration inconsistency). The aborted
    /// slot advances no queue, battery or slot counter.
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions for this network.
    pub fn step_traced(
        &mut self,
        obs: &SlotObservation,
        sink: &mut dyn Sink,
    ) -> Result<SlotReport, ControllerError> {
        self.driver.step(obs, sink)
    }

    /// The pre-refactor monolithic step, frozen as an equivalence oracle
    /// for the pipeline driver. Allocates per slot, emits no spans, and
    /// does not accumulate [`StageTimings`]; its decisions and state
    /// advance are bit-identical to what [`Controller::step`] produced
    /// before the stage extraction. Used by the `pipeline_equivalence`
    /// and `prop_pipeline_config` tests; not part of the public API.
    #[doc(hidden)]
    pub fn step_reference(&mut self, obs: &SlotObservation) -> Result<SlotReport, ControllerError> {
        let nodes = self.driver.parts[0].net.topology().len();
        obs.validate(
            nodes,
            self.driver.parts[0].net.session_count(),
            self.driver.parts[0].net.band_count(),
        );

        // Shifted battery levels for this slot.
        let z: Vec<f64> = (0..nodes)
            .map(|i| self.shifted_level(NodeId::from_index(i)))
            .collect();

        // Energy admission budget.
        let traffic_budget: Vec<Energy> = (0..nodes)
            .map(|i| {
                let fixed =
                    self.driver.models[i].const_energy() + self.driver.models[i].idle_energy();
                let grid = if obs.grid_connected[i] {
                    self.driver.grid_limits[i]
                } else {
                    Energy::ZERO
                };
                (obs.renewable[i] + self.driver.batteries[i].max_discharge_now() + grid - fixed)
                    .max(Energy::ZERO)
            })
            .collect();

        // S1 — link scheduling (+ minimal powers).
        let s1_inputs = S1Inputs {
            net: &self.driver.parts[0].net,
            phy: &self.driver.phy,
            spectrum: &obs.spectrum,
            links: &self.driver.parts[0].links,
            max_powers: &self.driver.max_powers,
            energy_models: &self.driver.models,
            traffic_budget: &traffic_budget,
            available: &obs.node_available,
            slot: self.driver.config.slot,
            packet_size: self.driver.config.packet_size,
        };
        let mut s1_scratch = S1Scratch::default();
        let mut outcome = ScheduleOutcome::default();
        match self.driver.config.scheduler {
            SchedulerKind::Greedy => {
                greedy_schedule_with(&s1_inputs, &mut s1_scratch, &mut outcome);
            }
            SchedulerKind::SequentialFix => {
                sequential_fix_schedule_with(&s1_inputs, &mut s1_scratch, &mut outcome);
            }
        }

        // S2 — source selection and admission control.
        let mut admissions = resource_allocation(
            &self.driver.parts[0].net,
            &self.driver.parts[0].data,
            self.driver.config.lambda,
            self.driver.config.v,
            self.driver.config.k_max,
        );
        if !obs.node_available.is_empty() {
            admissions.retain(|a| obs.is_node_available(a.source.index()));
        }

        // S3 + S4 with the inline degradation ladder.
        let mut shed = 0usize;
        let mut degradation: Vec<DegradationEvent> = Vec::new();
        let beta_cap = Packets::new(self.driver.beta.floor() as u64);
        let routing_caps: Vec<(NodeId, NodeId, Packets)> = self.driver.parts[0]
            .net
            .topology()
            .ordered_pairs()
            .filter(|&(i, j)| !self.driver.parts[0].net.link_bands(i, j).is_empty())
            .filter(|&(i, j)| obs.is_node_available(i.index()) && obs.is_node_available(j.index()))
            .filter(|&(i, _)| match self.driver.config.relay {
                crate::RelayPolicy::MultiHop => true,
                crate::RelayPolicy::OneHop => self.driver.parts[0]
                    .net
                    .topology()
                    .node(i)
                    .kind()
                    .is_base_station(),
            })
            .map(|(i, j)| (i, j, beta_cap))
            .collect();

        let mut link_service: Vec<(NodeId, NodeId, Packets)> = Vec::new();
        let (flows, energy_outcome) = loop {
            self.link_service_into(&outcome, &obs.spectrum, &mut link_service);
            let flows = route_flows_reference(
                &self.driver.parts[0].net,
                &self.driver.parts[0].data,
                &self.driver.parts[0].links,
                &routing_caps,
                &admissions,
                &obs.session_demand,
            );
            let demand: Vec<Energy> = (0..nodes)
                .map(|i| {
                    let node = NodeId::from_index(i);
                    let tx_power = outcome.schedule.transmission_from(node).and_then(|t| {
                        outcome
                            .schedule
                            .transmissions()
                            .iter()
                            .position(|u| u == t)
                            .map(|k| outcome.powers[k])
                    });
                    let receiving = outcome.schedule.transmission_to(node).is_some();
                    self.driver.models[i].slot_demand(tx_power, receiving, self.driver.config.slot)
                })
                .collect();
            let scaled_cost = greencell_energy::QuadraticCost::new(
                self.driver.cost.quadratic() * obs.price_multiplier,
                self.driver.cost.linear() * obs.price_multiplier,
                self.driver.cost.constant() * obs.price_multiplier,
            );
            let input = EnergyManagementInput {
                z: &z,
                demand: &demand,
                renewable: &obs.renewable,
                batteries: &self.driver.batteries,
                grid_connected: &obs.grid_connected,
                grid_limits: &self.driver.grid_limits,
                is_base_station: &self.driver.is_bs,
                cost: &scaled_cost,
                v: self.driver.config.v,
            };
            let solved = match self.driver.config.energy_policy {
                crate::EnergyPolicy::MarginalPrice => solve_energy_management(&input),
                crate::EnergyPolicy::GridOnly => crate::solve_grid_only(&input),
            };
            match solved {
                Ok(out) => break (flows, out),
                Err(err) => {
                    // Rung 1 — shed every transmission touching the
                    // starving node and retry.
                    if !outcome.schedule.is_empty() {
                        let node = match &err {
                            EnergyManagementError::Deficit { node, .. } => {
                                NodeId::from_index((*node).min(nodes - 1))
                            }
                            _ => outcome.schedule.transmissions()[0].tx(),
                        };
                        let before = outcome.schedule.len();
                        let reduced = pipeline::shed_node(
                            &self.driver.parts[0].net,
                            &outcome,
                            node,
                            &obs.spectrum,
                            &self.driver.phy,
                            &self.driver.max_powers,
                        );
                        let dropped = before - reduced.schedule.len();
                        if dropped > 0 {
                            outcome = reduced;
                            shed += dropped;
                            degradation.push(DegradationEvent::Shed {
                                node: node.index(),
                                dropped,
                            });
                            continue;
                        }
                    }
                    if self.driver.config.degradation == crate::DegradationPolicy::Strict {
                        return Err(err.into());
                    }
                    // Rung 2 — the storage-oblivious grid-only solver.
                    if let Ok(out) = crate::solve_grid_only(&input) {
                        degradation.push(DegradationEvent::GridOnlyFallback);
                        break (flows, out);
                    }
                    // Rung 3a — drop the whole schedule and retry.
                    if !outcome.schedule.is_empty() {
                        let dropped = outcome.schedule.len();
                        shed += dropped;
                        degradation.push(DegradationEvent::Shed {
                            node: nodes, // sentinel: whole-schedule drop
                            dropped,
                        });
                        outcome.clear();
                        continue;
                    }
                    // Rung 3b — safe mode.
                    let safe = crate::solve_safe_mode(&input);
                    for &(node, deficit) in &safe.deficits {
                        degradation.push(DegradationEvent::SafeMode { node, deficit });
                    }
                    admissions.clear();
                    link_service.clear();
                    break (
                        greencell_queue::FlowPlan::new(
                            nodes,
                            self.driver.parts[0].net.session_count(),
                        ),
                        safe.outcome,
                    );
                }
            }
        };

        // Drift-plus-penalty diagnostics.
        let lyapunov_before = self.lyapunov_value(&z);
        let psi1 = dpp::psi1(
            self.driver.beta,
            link_service
                .iter()
                .map(|&(i, j, pkts)| self.driver.parts[0].links.h(i, j) * pkts.count_f64()),
        );
        let psi2 = dpp::psi2(
            admissions.iter().map(|a| {
                (
                    self.driver.parts[0]
                        .data
                        .backlog(a.source, a.session)
                        .count_f64(),
                    a.packets.count_f64(),
                )
            }),
            self.driver.config.lambda,
            self.driver.config.v,
        );
        let psi3 = dpp::psi3(flows.iter_nonzero().map(|(s, i, j, l)| {
            let coeff = -self.driver.parts[0].data.backlog(i, s).count_f64()
                + self.driver.parts[0].data.backlog(j, s).count_f64()
                + self.driver.beta * self.driver.parts[0].links.h(i, j);
            (coeff, l.count_f64())
        }));

        // Advance state.
        let admission_triples: Vec<(SessionId, NodeId, Packets)> = admissions
            .iter()
            .filter(|a| a.packets > Packets::ZERO)
            .map(|a| (a.session, a.source, a.packets))
            .collect();
        let routed = flows.total();
        self.driver.parts[0]
            .data
            .advance(&flows, &admission_triples);
        self.driver.parts[0].links.advance(&flows, &link_service);
        for (battery, decision) in self
            .driver
            .batteries
            .iter_mut()
            .zip(&energy_outcome.decisions)
        {
            decision
                .apply_to_battery(battery)
                .expect("validated decision must apply");
        }
        let z_after: Vec<f64> = (0..nodes)
            .map(|i| self.shifted_level(NodeId::from_index(i)))
            .collect();
        let lyapunov_after = self.lyapunov_value(&z_after);

        let report = SlotReport {
            slot: self.driver.slot,
            cost: energy_outcome.cost,
            grid_draw: energy_outcome.grid_draw,
            scheduled_links: outcome.schedule.len(),
            admitted: admission_triples.iter().map(|(_, _, k)| *k).sum(),
            routed,
            psi1,
            psi2,
            psi3,
            psi4: energy_outcome.objective,
            lyapunov_before,
            lyapunov_after,
            shed_transmissions: shed,
            degradation,
        };
        self.driver.slot += 1;
        Ok(report)
    }

    /// Realized per-link service in packets for the scheduled links,
    /// written into `out` (cleared first; capacity retained).
    ///
    /// Power control guarantees `SINR ≥ Γ` for every kept link, so
    /// Eq. (1)'s top branch applies.
    fn link_service_into(
        &self,
        outcome: &ScheduleOutcome,
        spectrum: &greencell_phy::SpectrumState,
        out: &mut Vec<(NodeId, NodeId, Packets)>,
    ) {
        out.clear();
        out.extend(outcome.schedule.transmissions().iter().map(|t| {
            let capacity = potential_capacity(spectrum.bandwidth(t.band()), &self.driver.phy);
            (
                t.tx(),
                t.rx(),
                packets_per_slot(
                    capacity,
                    self.driver.config.packet_size,
                    self.driver.config.slot,
                ),
            )
        }));
    }
}
