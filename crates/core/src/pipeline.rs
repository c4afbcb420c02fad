//! The typed, pluggable S1–S4 slot pipeline (§IV-C as an explicit stage
//! graph).
//!
//! [`SlotDriver`] is the one slot driver: the dense
//! [`crate::Controller`] runs it with a single partition, the city-scale
//! sharded controller with one [`Partition`] per interference cluster.
//! Each subproblem of the paper's per-slot decomposition sits behind a
//! trait —
//! [`ScheduleStage`] for S1 link scheduling, [`RelayStage`] for the
//! routing-eligibility seam, [`EnergyStage`] for S4 energy management —
//! resolved once at construction through the static registry
//! ([`schedule_stage`], [`relay_stage`], [`energy_stage`]) from the config
//! enums' [`crate::SchedulerKind::key`] / [`crate::RelayPolicy::key`] /
//! [`crate::EnergyPolicy::key`]. The degradation ladder (shed → grid-only
//! → drop schedule → safe mode) is a chain of [`FallbackStage`] rungs
//! selected by [`fallback_ladder`]; each rung sees the failed S4 input and
//! the slot's mutable state through a [`FallbackCx`] and answers with a
//! [`FallbackOutcome`].
//!
//! All per-slot scratch lives in arenas retained across slots — the global
//! [`SlotContext`] plus one per partition — so a steady-state slot touches
//! the heap zero times (audited in `crates/core/tests/s1_zero_alloc.rs`
//! and, for many partitions, `crates/sim/tests/city_zero_alloc.rs`).
//! Stage boundaries carry small
//! typed records ([`ObservationRecord`], [`ScheduleRecord`],
//! [`AllocationRecord`], [`RoutingRecord`], [`EnergyRecord`]) that the
//! driver assembles into the public [`crate::SlotReport`], and
//! [`StageClock`] gives every boundary the same timing + span treatment.
//!
//! Everything here is bit-identical to the pre-pipeline monolithic
//! controller: stage implementations call the exact same kernels in the
//! exact same order, and the golden-fingerprint suite plus the
//! `pipeline_equivalence` tests in `greencell-sim` hold that line.

use crate::netstate::NetworkState;
use crate::s1::S1Inputs;
use crate::{
    dpp, greedy_schedule_with, resource_allocation_masked_into, route_flows_into,
    sequential_fix_schedule_with, solve_energy_management_into, solve_energy_management_warm_into,
    solve_grid_only_into, solve_safe_mode, Admission, ControllerConfig, ControllerError,
    DegradationEvent, DegradationPolicy, EnergyConfig, EnergyManagementError,
    EnergyManagementInput, EnergyOutcome, RoutingCaps, S1Scratch, S3Scratch, S4Workspace,
    ScheduleOutcome, SlotObservation, SlotReport, StageTimings,
};
use greencell_energy::{Battery, CostFn, NodeEnergyModel, QuadraticCost};
use greencell_net::{Network, NodeId, SessionId};
use greencell_phy::{packets_per_slot, potential_capacity, PhyConfig, Schedule, SpectrumState};
use greencell_queue::{lyapunov_value, DataQueueBank, FlowPlan, LinkQueueBank};
use greencell_trace::{names, Sink, Stage, TraceEvent};
use greencell_units::{Energy, Packets, Power};
use std::fmt;
use std::time::{Duration, Instant};

/// An S1 link-scheduling stage: fills `out` with the slot's schedule and
/// minimal power assignment using caller-retained scratch.
///
/// Stages see the dynamic network state only through
/// [`S1Inputs::available`]: the driver's pre-pass has already run the
/// sleep machine, so the mask is the slot's active set.
pub trait ScheduleStage: fmt::Debug + Sync {
    /// The registry key this stage is looked up by.
    fn key(&self) -> &'static str;
    /// Runs S1 for one slot.
    fn schedule(&self, inputs: &S1Inputs<'_>, scratch: &mut S1Scratch, out: &mut ScheduleOutcome);
}

/// The relay-eligibility seam between S1/S3 and the topology: which nodes
/// may originate transmissions and carry routed flow (Fig. 2(f) ablation).
pub trait RelayStage: fmt::Debug + Sync {
    /// The registry key this stage is looked up by.
    fn key(&self) -> &'static str;
    /// Whether `node` may transmit/relay under this policy.
    fn may_relay(&self, net: &Network, node: NodeId) -> bool;
}

/// An S4 energy-management stage: solves the slot's sourcing problem into
/// a caller-retained workspace and outcome.
///
/// Stages also see the slot's mutable [`NetworkState`]: the paper's
/// per-node stages ignore it, while [`EnergyCoopStage`] records its
/// inter-BS transfers there.
pub trait EnergyStage: fmt::Debug + Sync {
    /// The registry key this stage is looked up by.
    fn key(&self) -> &'static str;
    /// Runs S4 for one slot.
    ///
    /// # Errors
    ///
    /// [`EnergyManagementError`] when the stage cannot source some node's
    /// demand — the driver then walks the degradation ladder.
    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError>;
}

/// Built-in S1 stage: the weight-greedy scheduler
/// ([`crate::greedy_schedule`]).
#[derive(Debug, Clone, Copy)]
pub struct GreedyStage;

impl ScheduleStage for GreedyStage {
    fn key(&self) -> &'static str {
        "greedy"
    }

    fn schedule(&self, inputs: &S1Inputs<'_>, scratch: &mut S1Scratch, out: &mut ScheduleOutcome) {
        greedy_schedule_with(inputs, scratch, out);
    }
}

/// Built-in S1 stage: the paper's sequential-fix LP heuristic
/// ([`crate::sequential_fix_schedule`]).
#[derive(Debug, Clone, Copy)]
pub struct SequentialFixStage;

impl ScheduleStage for SequentialFixStage {
    fn key(&self) -> &'static str {
        "sequential_fix"
    }

    fn schedule(&self, inputs: &S1Inputs<'_>, scratch: &mut S1Scratch, out: &mut ScheduleOutcome) {
        sequential_fix_schedule_with(inputs, scratch, out);
    }
}

/// Built-in relay stage: any node may relay (the paper's proposed
/// multi-hop architecture).
#[derive(Debug, Clone, Copy)]
pub struct MultiHopStage;

impl RelayStage for MultiHopStage {
    fn key(&self) -> &'static str {
        "multi_hop"
    }

    fn may_relay(&self, _net: &Network, _node: NodeId) -> bool {
        true
    }
}

/// Built-in relay stage: only base stations transmit (traditional
/// one-hop downlink).
#[derive(Debug, Clone, Copy)]
pub struct OneHopStage;

impl RelayStage for OneHopStage {
    fn key(&self) -> &'static str {
        "one_hop"
    }

    fn may_relay(&self, net: &Network, node: NodeId) -> bool {
        net.topology().node(node).kind().is_base_station()
    }
}

/// Built-in S4 stage: the exact marginal-price equilibrium, solved by the
/// warm-started threshold-replay kernel
/// ([`crate::solve_energy_management_warm_into`]) — bit-identical to the
/// frozen oracle behind [`MarginalPriceReferenceStage`], with the warm
/// state living in the slot arena's [`S4Workspace`].
#[derive(Debug, Clone, Copy)]
pub struct MarginalPriceStage;

impl EnergyStage for MarginalPriceStage {
    fn key(&self) -> &'static str {
        "marginal_price"
    }

    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        solve_energy_management_warm_into(input, ws, out)
    }
}

/// Built-in S4 stage: the frozen cold-bisection oracle
/// ([`crate::solve_energy_management_into`]), kept registered so
/// equivalence tests and A/B harnesses can pin the warm kernel against it
/// through the full controller seam
/// ([`crate::Controller::set_energy_stage`]).
#[derive(Debug, Clone, Copy)]
pub struct MarginalPriceReferenceStage;

impl EnergyStage for MarginalPriceReferenceStage {
    fn key(&self) -> &'static str {
        "marginal_price_reference"
    }

    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        solve_energy_management_into(input, ws, out)
    }
}

/// Built-in S4 stage: the storage-oblivious grid-first baseline
/// ([`crate::solve_grid_only`]) — the ablation policy registered through
/// the same seam as the paper's solver.
#[derive(Debug, Clone, Copy)]
pub struct GridOnlyStage;

impl EnergyStage for GridOnlyStage {
    fn key(&self) -> &'static str {
        "grid_only"
    }

    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        _ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        solve_grid_only_into(input, out)
    }
}

/// Coupled multi-node S4 stage (key `"energy_coop"`): computes this slot's
/// lossy inter-BS renewable transfers (efficiency `η_x`) in the
/// [`NetworkState`], then solves the marginal-price problem on the
/// transfer-adjusted renewable vector with the same warm kernel as
/// [`MarginalPriceStage`]. At `η_x = 0` the adjusted vector is a verbatim
/// copy and the stage is bit-identical to the per-node oracle — the
/// standing equivalence reference.
#[derive(Debug, Clone, Copy)]
pub struct EnergyCoopStage;

impl EnergyStage for EnergyCoopStage {
    fn key(&self) -> &'static str {
        "energy_coop"
    }

    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        net_state.compute_transfers(input);
        let adjusted = EnergyManagementInput {
            z: input.z,
            demand: input.demand,
            renewable: net_state.adjusted_renewable(),
            batteries: input.batteries,
            grid_connected: input.grid_connected,
            grid_limits: input.grid_limits,
            is_base_station: input.is_base_station,
            cost: input.cost,
            v: input.v,
        };
        solve_energy_management_warm_into(&adjusted, ws, out)
    }
}

static GREEDY: GreedyStage = GreedyStage;
static SEQUENTIAL_FIX: SequentialFixStage = SequentialFixStage;
static MULTI_HOP: MultiHopStage = MultiHopStage;
static ONE_HOP: OneHopStage = OneHopStage;
static MARGINAL_PRICE: MarginalPriceStage = MarginalPriceStage;
static MARGINAL_PRICE_REFERENCE: MarginalPriceReferenceStage = MarginalPriceReferenceStage;
static GRID_ONLY: GridOnlyStage = GridOnlyStage;
static ENERGY_COOP: EnergyCoopStage = EnergyCoopStage;

static SCHEDULE_STAGES: [&dyn ScheduleStage; 2] = [&GREEDY, &SEQUENTIAL_FIX];
static RELAY_STAGES: [&dyn RelayStage; 2] = [&MULTI_HOP, &ONE_HOP];
static ENERGY_STAGES: [&dyn EnergyStage; 4] = [
    &MARGINAL_PRICE,
    &MARGINAL_PRICE_REFERENCE,
    &GRID_ONLY,
    &ENERGY_COOP,
];

/// A stage-registry lookup failed: the error names the unknown key and
/// enumerates every registered key of that stage kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStageKey {
    /// Which registry was searched (`"schedule"`, `"relay"`, `"energy"`).
    pub kind: &'static str,
    /// The key that failed to resolve.
    pub key: String,
    /// Every key registered in that registry.
    pub valid: Vec<&'static str>,
}

impl fmt::Display for UnknownStageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} stage key \"{}\"; valid keys: {}",
            self.kind,
            self.key,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownStageKey {}

/// Looks up a registered S1 stage by key (`"greedy"`, `"sequential_fix"`).
///
/// # Errors
///
/// [`UnknownStageKey`] naming the key and the registered alternatives.
pub fn schedule_stage(key: &str) -> Result<&'static dyn ScheduleStage, UnknownStageKey> {
    SCHEDULE_STAGES
        .iter()
        .copied()
        .find(|s| s.key() == key)
        .ok_or_else(|| UnknownStageKey {
            kind: "schedule",
            key: key.to_string(),
            valid: SCHEDULE_STAGES.iter().map(|s| s.key()).collect(),
        })
}

/// Looks up a registered relay stage by key (`"multi_hop"`, `"one_hop"`).
///
/// # Errors
///
/// [`UnknownStageKey`] naming the key and the registered alternatives.
pub fn relay_stage(key: &str) -> Result<&'static dyn RelayStage, UnknownStageKey> {
    RELAY_STAGES
        .iter()
        .copied()
        .find(|s| s.key() == key)
        .ok_or_else(|| UnknownStageKey {
            kind: "relay",
            key: key.to_string(),
            valid: RELAY_STAGES.iter().map(|s| s.key()).collect(),
        })
}

/// Looks up a registered S4 stage by key (`"marginal_price"`,
/// `"marginal_price_reference"`, `"grid_only"`, `"energy_coop"`).
///
/// # Errors
///
/// [`UnknownStageKey`] naming the key and the registered alternatives.
pub fn energy_stage(key: &str) -> Result<&'static dyn EnergyStage, UnknownStageKey> {
    ENERGY_STAGES
        .iter()
        .copied()
        .find(|s| s.key() == key)
        .ok_or_else(|| UnknownStageKey {
            kind: "energy",
            key: key.to_string(),
            valid: ENERGY_STAGES.iter().map(|s| s.key()).collect(),
        })
}

/// What a [`FallbackStage`] rung decided about a failed S4 solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackOutcome {
    /// The rung changed the slot's plan (shed transmissions); re-run
    /// S3 + S4 on the reduced schedule.
    Retry,
    /// The rung produced a final energy outcome; the slot proceeds to the
    /// state advance.
    Resolved,
    /// The rung does not apply here; try the next one.
    Pass,
    /// Abort the slot with the original error (the strict policy).
    Abort,
}

/// One rung of the degradation ladder. Rungs run in the order
/// [`fallback_ladder`] lists them, each seeing the S4 error and the slot's
/// mutable state, until one answers something other than
/// [`FallbackOutcome::Pass`].
pub trait FallbackStage: fmt::Debug + Sync {
    /// Stable rung name (for debugging).
    fn name(&self) -> &'static str;
    /// Attempts to recover from `err`.
    fn attempt(&self, err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome;
}

/// Everything a [`FallbackStage`] may inspect or mutate: the environment
/// the failed S4 solve ran in, plus the slot's in-flight decisions, which
/// live in the driver's [`Partition`]s.
pub struct FallbackCx<'a> {
    /// PHY parameters (for power re-assignment after shedding).
    pub phy: &'a PhyConfig,
    /// This slot's spectrum state.
    pub spectrum: &'a SpectrumState,
    /// Global node count.
    pub nodes: usize,
    /// The slot index (for trace marks).
    pub slot: u64,
    /// The failed S4 input (its borrows stay valid through the ladder).
    pub input: &'a EnergyManagementInput<'a>,
    /// The partitions: shedding rungs reduce their S1 outcomes in place,
    /// safe mode clears their admissions, link service and flows.
    pub parts: &'a mut [Partition],
    /// Global node id → (owning partition, local id); see
    /// [`FallbackCx::owner`].
    owner: &'a [(usize, usize)],
    /// Where a resolving rung writes its energy outcome.
    pub energy: &'a mut EnergyOutcome,
    /// The slot's degradation log.
    pub degradation: &'a mut Vec<DegradationEvent>,
    /// Cumulative transmissions shed this slot.
    pub shed: &'a mut usize,
    /// Whether tracing is enabled for this slot.
    pub traced: bool,
    /// The trace sink (rungs emit marks only when `traced`).
    pub sink: &'a mut dyn Sink,
}

impl FallbackCx<'_> {
    /// Emits a degradation mark when tracing is enabled.
    pub fn mark(&mut self, name: &'static str) {
        if self.traced {
            self.sink.record(TraceEvent::Mark {
                slot: self.slot,
                name,
            });
        }
    }

    /// The partition that owns global node `node`, with the node's local
    /// id there; `None` for a node no partition solves (it idles).
    #[must_use]
    pub fn owner(&self, node: usize) -> Option<(usize, NodeId)> {
        let (part, local) = self.owner[node];
        (part != NO_PARTITION).then(|| (part, NodeId::from_index(local)))
    }

    /// Transmissions scheduled across every partition.
    #[must_use]
    pub fn scheduled(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.arena.outcome.schedule.len())
            .sum()
    }
}

/// Rung 1 — shed every transmission touching the starving node and retry;
/// an `Invalid` decision sheds the first transmitter (drop load, stay
/// safe). Passes when the schedule is already empty or shedding the
/// starving node's links would drop nothing.
#[derive(Debug, Clone, Copy)]
pub struct ShedStage;

impl FallbackStage for ShedStage {
    fn name(&self) -> &'static str {
        "shed"
    }

    fn attempt(&self, err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
        let Some(first) = cx.parts.iter().find_map(|p| {
            let t = p.arena.outcome.schedule.transmissions().first()?;
            Some(p.nodes[t.tx().index()])
        }) else {
            return FallbackOutcome::Pass;
        };
        let node = match err {
            EnergyManagementError::Deficit { node, .. } => (*node).min(cx.nodes - 1),
            _ => first,
        };
        // A node in no partition transmits nothing: shedding cannot help.
        let Some((part, local)) = cx.owner(node) else {
            return FallbackOutcome::Pass;
        };
        let p = &mut cx.parts[part];
        let outcome = &mut p.arena.outcome;
        let before = outcome.schedule.len();
        let reduced = shed_node(&p.net, outcome, local, cx.spectrum, cx.phy, &p.max_powers);
        let dropped = before - reduced.schedule.len();
        if dropped == 0 {
            // The starving node is already idle: shedding its links cannot
            // help. Fall through the ladder.
            return FallbackOutcome::Pass;
        }
        *outcome = reduced;
        *cx.shed += dropped;
        cx.degradation
            .push(DegradationEvent::Shed { node, dropped });
        cx.mark("degrade_shed");
        FallbackOutcome::Retry
    }
}

/// The strict policy's terminal rung: abort the slot.
#[derive(Debug, Clone, Copy)]
pub struct StrictAbortStage;

impl FallbackStage for StrictAbortStage {
    fn name(&self) -> &'static str {
        "strict_abort"
    }

    fn attempt(&self, _err: &EnergyManagementError, _cx: &mut FallbackCx<'_>) -> FallbackOutcome {
        FallbackOutcome::Abort
    }
}

/// Rung 2 — the storage-oblivious grid-only solver; catches marginal-price
/// internal failures and any case where abandoning the Lyapunov objective
/// restores feasibility.
#[derive(Debug, Clone, Copy)]
pub struct GridOnlyFallbackStage;

impl FallbackStage for GridOnlyFallbackStage {
    fn name(&self) -> &'static str {
        "grid_only_fallback"
    }

    fn attempt(&self, _err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
        if solve_grid_only_into(cx.input, cx.energy).is_ok() {
            cx.degradation.push(DegradationEvent::GridOnlyFallback);
            cx.mark("degrade_grid_only");
            FallbackOutcome::Resolved
        } else {
            FallbackOutcome::Pass
        }
    }
}

/// Rung 3a — still infeasible with traffic on the air: drop the whole
/// schedule and retry on idle demand.
#[derive(Debug, Clone, Copy)]
pub struct DropScheduleStage;

impl FallbackStage for DropScheduleStage {
    fn name(&self) -> &'static str {
        "drop_schedule"
    }

    fn attempt(&self, _err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
        let dropped = cx.scheduled();
        if dropped == 0 {
            return FallbackOutcome::Pass;
        }
        *cx.shed += dropped;
        cx.degradation.push(DegradationEvent::Shed {
            node: cx.nodes, // sentinel: whole-schedule drop
            dropped,
        });
        cx.mark("degrade_shed");
        for p in cx.parts.iter_mut() {
            p.arena.outcome.clear();
        }
        FallbackOutcome::Retry
    }
}

/// Rung 3b — safe mode: serve what physics allows, record each brown-out,
/// admit and route nothing. Always resolves.
#[derive(Debug, Clone, Copy)]
pub struct SafeModeStage;

impl FallbackStage for SafeModeStage {
    fn name(&self) -> &'static str {
        "safe_mode"
    }

    fn attempt(&self, _err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
        let safe = solve_safe_mode(cx.input);
        for &(node, deficit) in &safe.deficits {
            cx.degradation
                .push(DegradationEvent::SafeMode { node, deficit });
            cx.mark("degrade_safe_mode");
        }
        for p in cx.parts.iter_mut() {
            let a = &mut p.arena;
            a.admissions.clear();
            a.link_service.clear();
            a.flows.reset(p.nodes.len(), p.sessions.len());
        }
        *cx.energy = safe.outcome;
        FallbackOutcome::Resolved
    }
}

static SHED: ShedStage = ShedStage;
static STRICT_ABORT: StrictAbortStage = StrictAbortStage;
static GRID_ONLY_FALLBACK: GridOnlyFallbackStage = GridOnlyFallbackStage;
static DROP_SCHEDULE: DropScheduleStage = DropScheduleStage;
static SAFE_MODE: SafeModeStage = SafeModeStage;

static GRACEFUL_LADDER: [&dyn FallbackStage; 4] =
    [&SHED, &GRID_ONLY_FALLBACK, &DROP_SCHEDULE, &SAFE_MODE];
static STRICT_LADDER: [&dyn FallbackStage; 2] = [&SHED, &STRICT_ABORT];

/// The fallback ladder a degradation policy resolves to: graceful runs
/// shed → grid-only → drop schedule → safe mode; strict runs shed → abort.
#[must_use]
pub fn fallback_ladder(policy: DegradationPolicy) -> &'static [&'static dyn FallbackStage] {
    match policy {
        DegradationPolicy::Graceful => &GRACEFUL_LADDER,
        DegradationPolicy::Strict => &STRICT_LADDER,
    }
}

/// The relaxed controller's S4 chain: marginal price, else grid-only, else
/// safe mode (never fails). Shared with [`crate::RelaxedController`] so the
/// lower bound cannot drift from the online ladder's solver order.
#[must_use]
pub fn solve_energy_with_fallbacks(input: &EnergyManagementInput<'_>) -> EnergyOutcome {
    crate::solve_energy_management(input)
        .or_else(|_| crate::solve_grid_only(input))
        .unwrap_or_else(|_| solve_safe_mode(input).outcome)
}

/// Rebuilds the schedule without any transmission touching `node`, then
/// recomputes minimal powers.
pub(crate) fn shed_node(
    net: &Network,
    outcome: &ScheduleOutcome,
    node: NodeId,
    spectrum: &SpectrumState,
    phy: &PhyConfig,
    max_powers: &[Power],
) -> ScheduleOutcome {
    let mut schedule = Schedule::new();
    for t in outcome.schedule.transmissions() {
        if t.tx() != node && t.rx() != node {
            schedule
                .try_add(net, *t)
                .expect("subset of a valid schedule stays valid");
        }
    }
    let powers = if schedule.is_empty() {
        Vec::new()
    } else {
        greencell_phy::min_power_assignment(net, &schedule, spectrum, phy, max_powers)
            .unwrap_or_default()
    };
    ScheduleOutcome { schedule, powers }
}

/// The slot driver's global arena: the per-node buffers of the pre-pass
/// and of S4, the S4 workspace, and the dynamic [`NetworkState`]. Retained
/// across slots, so together with each [`Partition`]'s own arena a
/// steady-state slot performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct SlotContext {
    pub(crate) z: Vec<f64>,
    pub(crate) traffic_budget: Vec<Energy>,
    pub(crate) demand: Vec<Energy>,
    pub(crate) z_after: Vec<f64>,
    pub(crate) s4: S4Workspace,
    pub(crate) energy: EnergyOutcome,
    pub(crate) net_state: NetworkState,
}

impl SlotContext {
    /// Creates an empty arena; every buffer grows to its steady-state size
    /// over the first slot and is retained afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Uniform stage-boundary instrumentation: accumulates the stage's
/// wall-clock into the matching [`crate::StageTimings`] field *always*
/// (the sweep engine reads timings from untraced runs) and emits the
/// stage span only when the sink is enabled. Replaces the hand-wired
/// `Instant` pairs the monolithic `step_traced` carried per stage; with
/// [`greencell_trace::NoopSink`] the only per-slot wall-clock reads are
/// the four S1–S4 pairs — exactly the monolith's set (the Slot/Advance
/// spans stay gated behind `enabled()` in the driver).
#[derive(Debug)]
pub struct StageClock {
    start: Instant,
}

impl StageClock {
    /// Starts timing a stage.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Stops timing: accumulates into `acc` and, when `traced`, emits the
    /// stage's span into `sink`.
    pub fn stop(
        self,
        acc: &mut Duration,
        slot: u64,
        stage: Stage,
        traced: bool,
        sink: &mut dyn Sink,
    ) {
        let elapsed = self.start.elapsed();
        *acc += elapsed;
        if traced {
            sink.record(TraceEvent::span_ended(
                slot,
                stage,
                sink.now_nanos(),
                elapsed,
            ));
        }
    }
}

/// Typed record entering the pipeline: the validated observation boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservationRecord {
    /// The slot index this observation drives.
    pub slot: u64,
    /// Node count the observation was validated against.
    pub nodes: usize,
    /// Session count the observation was validated against.
    pub sessions: usize,
}

/// Typed record at the schedule boundary: the S1 outcome the slot finally
/// ran (after any degradation shedding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleRecord {
    /// Number of scheduled transmissions.
    pub scheduled_links: usize,
}

/// Typed record at the allocation boundary: what S2 admitted (after the
/// availability filter and any safe-mode clearing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationRecord {
    /// Total admitted packets `Σ_s k_s(t)`.
    pub admitted: Packets,
}

/// Typed record at the routing boundary: what S3 moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingRecord {
    /// Total packets moved by routing this slot.
    pub routed: Packets,
}

/// Typed record at the energy boundary: the resolved S4 decision's
/// headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyRecord {
    /// The slot cost `f(P(t))`.
    pub cost: f64,
    /// Total base-station grid draw `P(t)`.
    pub grid_draw: Energy,
    /// The achieved objective `Ψ̂₄(t)`.
    pub objective: f64,
}

/// Partition index of a node that no partition owns.
const NO_PARTITION: usize = usize::MAX;

/// One independent S1–S3 subproblem of a slot: a sub-network with its own
/// queue banks and warm per-slot scratch.
///
/// Local node ids are positions in the ascending global member list and
/// local session ids follow global session order, so the dense
/// controller's single partition — every node, every session — has local
/// ids equal to global ids. Base stations keep their lead because global
/// ids put base stations first.
#[derive(Debug, Clone)]
pub struct Partition {
    pub(crate) net: Network,
    /// Global node ids, ascending.
    nodes: Vec<usize>,
    /// Global session ids, ascending.
    sessions: Vec<usize>,
    pub(crate) data: DataQueueBank,
    pub(crate) links: LinkQueueBank,
    max_powers: Vec<Power>,
    models: Vec<NodeEnergyModel>,
    arena: PartitionArena,
}

/// A partition's per-slot scratch, reused across slots.
#[derive(Debug, Clone, Default)]
struct PartitionArena {
    /// Local slice of the slot's active mask (empty = every node up).
    avail: Vec<bool>,
    traffic_budget: Vec<Energy>,
    session_demand: Vec<Packets>,
    /// Local shifted levels: `z(t)` until the advance, then `z(t+1)`.
    z: Vec<f64>,
    s1: S1Scratch,
    outcome: ScheduleOutcome,
    s3: S3Scratch,
    flows: FlowPlan,
    admissions: Vec<Admission>,
    link_service: Vec<(NodeId, NodeId, Packets)>,
    /// S3's static routing caps with their per-sender offsets, built for
    /// the active mask `caps_mask`.
    routing_caps: RoutingCaps,
    caps_mask: Vec<bool>,
    /// Whether `routing_caps` was built since the arena was created.
    caps_built: bool,
    admission_triples: Vec<(SessionId, NodeId, Packets)>,
    /// This partition's term of `L(Θ)`: `L_p(t)` from the scatter until
    /// the advance, then `L_p(t+1)`.
    lyapunov: f64,
    /// The last advance's scheduled links, admitted and routed packets.
    tally: (usize, Packets, Packets),
}

impl PartitionArena {
    /// An arena pre-sized to the structural per-slot maxima of `net`, so
    /// the warm scratch never grows after construction: candidate
    /// `(i, j, m)` triples are bounded by the shared-band count over
    /// ordered pairs, routable links by the pairs with any shared band,
    /// schedules by the single-radio limit `⌊n/2⌋`.
    fn reserved(net: &Network) -> Self {
        let (n, s) = (net.topology().len(), net.session_count());
        let pairs = || net.topology().ordered_pairs();
        let link_slots = pairs()
            .filter(|&(i, j)| !net.link_bands(i, j).is_empty())
            .count();
        let candidates = pairs().map(|(i, j)| net.link_bands(i, j).len()).sum();
        let schedule_bound = n / 2 + 1;
        let mut arena = Self {
            avail: Vec::with_capacity(n),
            traffic_budget: Vec::with_capacity(n),
            session_demand: Vec::with_capacity(s),
            z: Vec::with_capacity(n),
            admissions: Vec::with_capacity(s),
            link_service: Vec::with_capacity(schedule_bound),
            caps_mask: Vec::with_capacity(n),
            admission_triples: Vec::with_capacity(s),
            ..Self::default()
        };
        arena.s1.reserve(n, net.band_count(), candidates);
        arena.outcome.reserve(schedule_bound);
        arena.s3.reserve(n, s, link_slots);
        arena.routing_caps.reserve(n, link_slots);
        arena.flows.reserve(link_slots + s);
        arena
    }

    /// Realized per-link service in packets for the scheduled links. Power
    /// control guarantees `SINR ≥ Γ` for every kept link, so Eq. (1)'s top
    /// branch applies.
    fn refresh_link_service(
        &mut self,
        phy: &PhyConfig,
        config: &ControllerConfig,
        spectrum: &SpectrumState,
    ) {
        self.link_service.clear();
        self.link_service
            .extend(self.outcome.schedule.transmissions().iter().map(|t| {
                let capacity = potential_capacity(spectrum.bandwidth(t.band()), phy);
                (
                    t.tx(),
                    t.rx(),
                    packets_per_slot(capacity, config.packet_size, config.slot),
                )
            }));
    }
}

/// The slot's shared, read-only inputs to every partition's S1–S3.
struct PartitionInputs<'a> {
    phy: &'a PhyConfig,
    config: &'a ControllerConfig,
    obs: &'a SlotObservation,
    z: &'a [f64],
    traffic_budget: &'a [Energy],
    /// The dynamic state after the pre-pass; `None` when static.
    net_state: Option<&'a NetworkState>,
    schedule_stage: &'static dyn ScheduleStage,
    relay_stage: &'static dyn RelayStage,
    beta_cap: Packets,
}

impl Partition {
    fn new(
        net: Network,
        nodes: Vec<usize>,
        sessions: Vec<usize>,
        max_powers: &[Power],
        models: &[NodeEnergyModel],
        beta: f64,
    ) -> Self {
        let destinations: Vec<NodeId> = net.sessions().iter().map(|s| s.destination()).collect();
        Self {
            data: DataQueueBank::new(nodes.len(), &destinations),
            links: LinkQueueBank::new(nodes.len(), beta),
            max_powers: nodes.iter().map(|&g| max_powers[g]).collect(),
            models: nodes.iter().map(|&g| models[g]).collect(),
            arena: PartitionArena::default(),
            net,
            nodes,
            sessions,
        }
    }

    /// The partition's sub-network (local ids).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The partition's data queue bank `Q^s_i(t)` (local ids).
    #[must_use]
    pub fn data(&self) -> &DataQueueBank {
        &self.data
    }

    /// Copies the partition's slice of the slot's global inputs and
    /// evaluates its Lyapunov term `L_p(t)`.
    fn scatter(&mut self, cx: &PartitionInputs<'_>) {
        let a = &mut self.arena;
        let mask = cx
            .net_state
            .map_or(cx.obs.node_available.as_slice(), NetworkState::active);
        a.avail.clear();
        if !mask.is_empty() {
            a.avail.extend(self.nodes.iter().map(|&g| mask[g]));
        }
        a.traffic_budget.clear();
        a.traffic_budget
            .extend(self.nodes.iter().map(|&g| cx.traffic_budget[g]));
        a.z.clear();
        a.z.extend(self.nodes.iter().map(|&g| cx.z[g]));
        a.session_demand.clear();
        a.session_demand
            .extend(self.sessions.iter().map(|&s| cx.obs.session_demand[s]));
        a.lyapunov = lyapunov_value(&self.data, &self.links, &a.z);
    }

    /// S1 — link scheduling (+ minimal powers) over the active mask.
    fn schedule(&mut self, cx: &PartitionInputs<'_>) {
        let a = &mut self.arena;
        let inputs = S1Inputs {
            net: &self.net,
            phy: cx.phy,
            spectrum: &cx.obs.spectrum,
            links: &self.links,
            max_powers: &self.max_powers,
            energy_models: &self.models,
            traffic_budget: &a.traffic_budget,
            available: &a.avail,
            slot: cx.config.slot,
            packet_size: cx.config.packet_size,
        };
        cx.schedule_stage
            .schedule(&inputs, &mut a.s1, &mut a.outcome);
    }

    /// S2 — source selection and admission control. A down source BS
    /// admits nothing (the session waits the outage out rather than being
    /// handed to a farther BS mid-fault). A BS that chose to sleep is
    /// different: sessions re-associate, so source selection skips it, and
    /// skips mid-ramp BSs, which cannot serve yet either.
    fn admit(&mut self, cx: &PartitionInputs<'_>) {
        let nodes = &self.nodes;
        let serving = |b: NodeId| match cx.net_state {
            Some(ns) => {
                let g = nodes[b.index()];
                !ns.is_asleep(g) && ns.ramp_remaining(g) == 0
            }
            None => true,
        };
        let a = &mut self.arena;
        let c = cx.config;
        resource_allocation_masked_into(
            &self.net,
            &self.data,
            c.lambda,
            c.v,
            c.k_max,
            &serving,
            &mut a.admissions,
        );
        let avail = &a.avail;
        a.admissions
            .retain(|x| avail.get(x.source.index()).copied().unwrap_or(true));
    }

    /// S3 — routing over every link that could ever carry traffic (common
    /// band at both ends, both endpoints active), capped at `β` packets per
    /// slot — the two-layer reading of constraint (25); see the `s3`
    /// module docs — plus the schedule's realized link service.
    ///
    /// The caps depend on the slot only through the active mask (the
    /// network, relay policy and `β` are fixed at construction), so the
    /// O(n²) scan that builds them, with its per-sender offset table, is
    /// cached in the arena and rerun only when the mask differs from the
    /// one they were built for: on the first slot, after a fault or
    /// sleep-mask change, and after an arena reset. A rebuild reuses the
    /// retained buffers.
    fn route(&mut self, cx: &PartitionInputs<'_>) {
        let (net, a) = (&self.net, &mut self.arena);
        if !a.caps_built || a.caps_mask != a.avail {
            let avail = &a.avail;
            let up = |i: NodeId| avail.get(i.index()).copied().unwrap_or(true);
            let caps = net
                .topology()
                .ordered_pairs()
                .filter(|&(i, j)| !net.link_bands(i, j).is_empty() && up(i) && up(j))
                .filter(|&(i, _)| cx.relay_stage.may_relay(net, i))
                .map(|(i, j)| (i, j, cx.beta_cap));
            a.routing_caps.rebuild(net.topology().len(), caps);
            a.caps_mask.clone_from(&a.avail);
            a.caps_built = true;
        }
        a.refresh_link_service(cx.phy, cx.config, &cx.obs.spectrum);
        route_flows_into(
            net,
            &self.data,
            &self.links,
            &a.routing_caps,
            &a.admissions,
            &a.session_demand,
            &mut a.s3,
            &mut a.flows,
        );
    }

    /// Writes every member's S4 demand for the current schedule.
    fn demand_into(&self, config: &ControllerConfig, demand: &mut [Energy]) {
        let outcome = &self.arena.outcome;
        let schedule = &outcome.schedule;
        for (local, &g) in self.nodes.iter().enumerate() {
            let node = NodeId::from_index(local);
            let tx_power = schedule.transmission_from(node).and_then(|t| {
                schedule
                    .transmissions()
                    .iter()
                    .position(|u| u == t)
                    .map(|k| outcome.powers[k])
            });
            let receiving = schedule.transmission_to(node).is_some();
            demand[g] = self.models[local].slot_demand(tx_power, receiving, config.slot);
        }
    }

    /// Advances the queues by their laws, takes the partition's slice of
    /// `z(t+1)` and evaluates `L_p(t+1)`; records the slot's scheduled
    /// links, admitted packets and routed packets in the arena's tally.
    fn advance(&mut self, z_after: &[f64]) {
        let a = &mut self.arena;
        a.admission_triples.clear();
        a.admission_triples.extend(
            a.admissions
                .iter()
                .filter(|x| x.packets > Packets::ZERO)
                .map(|x| (x.session, x.source, x.packets)),
        );
        let admitted = a.admission_triples.iter().map(|&(_, _, k)| k).sum();
        self.data.advance(&a.flows, &a.admission_triples);
        self.links.advance(&a.flows, &a.link_service);
        a.tally = (a.outcome.schedule.len(), admitted, a.flows.total());
        a.z.clear();
        a.z.extend(self.nodes.iter().map(|&g| z_after[g]));
        a.lyapunov = lyapunov_value(&self.data, &self.links, &a.z);
    }
}

/// Runs `work` on every partition in contiguous chunks over up to
/// `workers` scoped threads. The calling thread works the first chunk
/// itself, so a fan-out spawns at most `workers − 1` threads; with one
/// worker it spawns none. More than one worker needs a partition.
fn fan_out<F>(parts: &mut [Partition], workers: usize, work: F)
where
    F: Fn(&mut Partition) + Sync,
{
    if workers <= 1 {
        parts.iter_mut().for_each(work);
        return;
    }
    let work = &work;
    let mut chunks = parts.chunks_mut(parts.len().div_ceil(workers));
    let first = chunks.next();
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move || chunk.iter_mut().for_each(work));
        }
        first.into_iter().flatten().for_each(work);
    });
}

/// Global ids of the nodes no partition owns, ascending.
fn unowned(owner: &[(usize, usize)]) -> impl Iterator<Item = usize> + '_ {
    (0..owner.len()).filter(|&g| owner[g].0 == NO_PARTITION)
}

/// `L(Θ) = Σ_p L_p + ½·Σ_{unowned} z²`: the Lyapunov value decomposes over
/// partitions because every queue lives inside one partition and the
/// energy term is a per-node sum. Sums each partition's stored `L_p` in
/// partition order.
fn lyapunov(parts: &[Partition], owner: &[(usize, usize)], z: &[f64]) -> f64 {
    let mut total = 0.0;
    for p in parts {
        total += p.arena.lyapunov;
    }
    for g in unowned(owner) {
        total += 0.5 * z[g] * z[g];
    }
    total
}

/// The one S1→S4 slot driver (§IV-C), shared by the dense
/// [`crate::Controller`] and the city-scale sharded controller.
///
/// S1 scheduling, S2 admission and S3 routing separate per interference
/// partition; S4 energy sourcing is global, because the provider cost
/// `f(P)` couples every base station. A slot runs in five steps:
///
/// 1. a global pre-pass: the fault mask into the [`NetworkState`], the
///    sleep machine, shifted levels `z` and traffic budgets;
/// 2. the first fan-out: each partition's scatter, Lyapunov term
///    `L_p(t)` and S1–S3;
/// 3. global S4 with the [`fallback_ladder`];
/// 4. on the calling thread: Ψ̂₁–Ψ̂₃, the battery decisions and `z(t+1)`;
/// 5. the second fan-out: each partition's queue advance, `z(t+1)` slice
///    and `L_p(t+1)`.
///
/// A fan-out runs the partitions in contiguous chunks on scoped worker
/// threads, the calling thread working the first chunk; at one worker it
/// is a plain loop. Partitions are solved from their own state only and
/// every global reduction — Ψ̂, `L(t)`, `L(t+1)` and the slot tallies —
/// runs in partition order on the calling thread, so the worker count
/// never changes a result. Nodes no partition owns (interference clusters
/// without a base station) idle: no scheduling, no queues, idle demand.
#[derive(Debug, Clone)]
pub struct SlotDriver {
    pub(crate) phy: PhyConfig,
    pub(crate) config: ControllerConfig,
    pub(crate) cost: QuadraticCost,
    pub(crate) beta: f64,
    pub(crate) gamma_max: f64,
    workers: usize,
    schedule_stage: &'static dyn ScheduleStage,
    relay_stage: &'static dyn RelayStage,
    pub(crate) energy_stage: &'static dyn EnergyStage,
    ladder: &'static [&'static dyn FallbackStage],
    // Per-node energy hardware, in global node order.
    pub(crate) batteries: Vec<Battery>,
    pub(crate) models: Vec<NodeEnergyModel>,
    pub(crate) max_powers: Vec<Power>,
    pub(crate) grid_limits: Vec<Energy>,
    pub(crate) is_bs: Vec<bool>,
    pub(crate) parts: Vec<Partition>,
    /// Global node id → (owning partition, local id).
    owner: Vec<(usize, usize)>,
    sessions: usize,
    bands: usize,
    pub(crate) slot: u64,
    pub(crate) timings: StageTimings,
    awake_changed: bool,
    pub(crate) ctx: SlotContext,
}

impl SlotDriver {
    /// A driver with no partitions yet over the nodes whose kinds are
    /// `is_bs` (global ids), solving partitions on up to `workers` threads
    /// per slot. Add partitions with [`SlotDriver::add_partition`].
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ControllerConfig::validate`] or `energy`
    /// does not have one entry per node.
    #[must_use]
    pub fn new(
        phy: PhyConfig,
        energy: EnergyConfig,
        config: ControllerConfig,
        is_bs: Vec<bool>,
        workers: usize,
    ) -> Self {
        config.validate();
        let n = is_bs.len();
        assert_eq!(energy.nodes.len(), n, "one energy config per node");
        let beta = dpp::beta(&config, &phy);
        // γ_max over the whole network's base-station grid capacity, in
        // global node order — exactly `dpp::gamma_max` on the full network.
        let grid_limits: Vec<Energy> = energy.nodes.iter().map(|c| c.grid_limit).collect();
        let max_grid_draw: Energy = (0..n).filter(|&i| is_bs[i]).map(|i| grid_limits[i]).sum();
        let gamma_max = energy.cost.max_marginal(max_grid_draw);
        let energy_key = if config.energy_coop.is_some() {
            "energy_coop"
        } else {
            config.energy_policy.key()
        };
        let mut driver = Self {
            phy,
            beta,
            gamma_max,
            workers: workers.max(1),
            schedule_stage: schedule_stage(config.scheduler.key())
                .expect("built-in scheduler stage is registered"),
            relay_stage: relay_stage(config.relay.key())
                .expect("built-in relay stage is registered"),
            energy_stage: energy_stage(energy_key).expect("built-in energy stage is registered"),
            ladder: fallback_ladder(config.degradation),
            batteries: energy.nodes.iter().map(|c| c.battery).collect(),
            models: energy.nodes.iter().map(|c| c.energy_model).collect(),
            max_powers: energy.nodes.iter().map(|c| c.max_power).collect(),
            grid_limits,
            cost: energy.cost,
            owner: vec![(NO_PARTITION, 0); n],
            parts: Vec::new(),
            sessions: 0,
            bands: 0,
            slot: 0,
            timings: StageTimings::default(),
            awake_changed: false,
            ctx: SlotContext::default(),
            config,
            is_bs,
        };
        driver.reset_arena();
        driver
    }

    /// Adds a partition: the sub-network over the global nodes `nodes`
    /// (ascending; local id = position) carrying the global sessions
    /// `sessions` (ascending, in the sub-network's session order).
    ///
    /// # Panics
    ///
    /// Panics if a node already belongs to a partition or the sizes
    /// disagree with `net`.
    pub fn add_partition(&mut self, net: Network, nodes: Vec<usize>, sessions: Vec<usize>) {
        assert_eq!(net.topology().len(), nodes.len(), "one member per node");
        assert_eq!(net.session_count(), sessions.len(), "one id per session");
        let id = self.parts.len();
        for (local, &g) in nodes.iter().enumerate() {
            assert_eq!(self.owner[g].0, NO_PARTITION, "node {g} owned twice");
            self.owner[g] = (id, local);
        }
        self.sessions += sessions.len();
        self.bands = net.band_count();
        let part = Partition::new(
            net,
            nodes,
            sessions,
            &self.max_powers,
            &self.models,
            self.beta,
        );
        self.parts.push(part);
    }

    /// Replaces every per-slot buffer with a fresh one and the dynamic
    /// state with its initial value (warm kernels restart cold, which the
    /// kernel equivalence gates prove does not change a decision).
    pub(crate) fn reset_arena(&mut self) {
        self.ctx = SlotContext {
            net_state: NetworkState::new(
                &self.is_bs,
                self.config.bs_sleep,
                self.config.energy_coop,
                self.config.scheduler,
            ),
            ..SlotContext::default()
        };
        for p in &mut self.parts {
            p.arena = PartitionArena::default();
        }
    }

    /// Pre-sizes every partition's arena to its structural per-slot
    /// maxima, so no slot allocates even at a traffic peak the warm-up
    /// never reached. Without it the arenas grow over the first slots.
    pub fn reserve_arenas(&mut self) {
        for p in &mut self.parts {
            p.arena = PartitionArena::reserved(&p.net);
        }
    }

    /// The partitions, in solve order.
    #[must_use]
    pub fn partitions(&self) -> &[Partition] {
        &self.parts
    }

    /// The configured worker-thread cap.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The next slot index [`SlotDriver::step`] will run.
    #[must_use]
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The dynamic network state, or `None` when neither the sleep nor the
    /// cooperation policy is enabled (the state is then inert).
    #[must_use]
    pub fn network_state(&self) -> Option<&NetworkState> {
        self.ctx.net_state.dynamic().then_some(&self.ctx.net_state)
    }

    /// Whether the last slot's sleep machine changed the awake set.
    #[must_use]
    pub fn awake_set_changed(&self) -> bool {
        self.awake_changed
    }

    /// The shifted battery level `z_i(t)` of global node `i`, in kWh.
    pub(crate) fn shifted_level(&self, i: usize) -> f64 {
        let b = &self.batteries[i];
        dpp::shifted_level(
            b.level(),
            self.config.v,
            self.gamma_max,
            b.discharge_limit(),
        )
    }

    /// Runs one slot and advances every queue and battery.
    ///
    /// Emits stage spans (S1–S4 per attempt, the state advance and the
    /// whole slot), degradation marks, and drift/penalty/Ψ̂ gauges into
    /// `sink`; with [`greencell_trace::NoopSink`] that reduces to one
    /// `enabled()` branch per site. When the partitions fan out to more
    /// than one worker, S1–S3 run interleaved per partition inside the
    /// first fan-out and are neither timed nor traced per stage; the
    /// advance span covers the battery update and the second fan-out.
    ///
    /// # Errors
    ///
    /// [`ControllerError::IdleDeficit`] if a node cannot source even its
    /// fixed overhead energy under the strict policy. The aborted slot
    /// advances no queue, battery or slot counter; the dynamic state stays
    /// in place, with the sleep step the pre-pass already took.
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions.
    pub fn step(
        &mut self,
        obs: &SlotObservation,
        sink: &mut dyn Sink,
    ) -> Result<SlotReport, ControllerError> {
        let traced = sink.enabled();
        let slot_start = traced.then(Instant::now);
        let nodes = self.is_bs.len();
        obs.validate(nodes, self.sessions, self.bands);
        let observation = ObservationRecord {
            slot: self.slot,
            nodes,
            sessions: self.sessions,
        };
        let slot = observation.slot;
        let Self {
            phy,
            config,
            cost,
            beta,
            gamma_max,
            workers,
            schedule_stage,
            relay_stage,
            energy_stage,
            ladder,
            batteries,
            models,
            grid_limits,
            is_bs,
            parts,
            owner,
            timings,
            awake_changed,
            ctx,
            ..
        } = self;
        let SlotContext {
            z,
            traffic_budget,
            demand,
            z_after,
            s4,
            energy,
            net_state,
        } = ctx;
        let shifted =
            |b: &Battery| dpp::shifted_level(b.level(), config.v, *gamma_max, b.discharge_limit());

        // 1. Global pre-pass. The dynamic state takes the fault mask and
        //    every node's backlog, then runs the sleep machine; entirely
        //    skipped when neither dynamic policy is enabled.
        let dynamic = net_state.dynamic();
        *awake_changed = false;
        if dynamic {
            net_state.begin_slot(&obs.node_available);
            for p in parts.iter() {
                for (local, &g) in p.nodes.iter().enumerate() {
                    let backlog = p.data.node_backlog(NodeId::from_index(local));
                    net_state.set_node_backlog(g, backlog.count_f64());
                }
            }
            // Partition-local gains; a pair in different partitions has
            // exactly zero gain by the decomposition's closure guarantee.
            let parts = &*parts;
            let gain = |u: usize, b: usize| {
                let ((pu, lu), (pb, lb)) = (owner[u], owner[b]);
                if pu != pb || pu == NO_PARTITION {
                    return 0.0;
                }
                parts[pu]
                    .net
                    .topology()
                    .gain(NodeId::from_index(lu), NodeId::from_index(lb))
            };
            *awake_changed = net_state.step_sleep(&gain);
        }
        z.clear();
        z.extend(batteries.iter().map(shifted));
        // Energy admission budget: what a node could source for *traffic*
        // on top of its fixed overhead this slot.
        traffic_budget.clear();
        traffic_budget.extend((0..nodes).map(|i| {
            let fixed = models[i].const_energy() + models[i].idle_energy();
            let grid = if obs.grid_connected[i] {
                grid_limits[i]
            } else {
                Energy::ZERO
            };
            (obs.renewable[i] + batteries[i].max_discharge_now() + grid - fixed).max(Energy::ZERO)
        }));

        // 2. First fan-out: per-partition scatter, L_p(t) and S1–S3.
        let inputs = PartitionInputs {
            phy,
            config,
            obs,
            z,
            traffic_budget,
            net_state: dynamic.then_some(&*net_state),
            schedule_stage: *schedule_stage,
            relay_stage: *relay_stage,
            beta_cap: Packets::new(beta.floor() as u64),
        };
        let workers = (*workers).min(parts.len().max(1));
        if workers <= 1 {
            for p in parts.iter_mut() {
                p.scatter(&inputs);
            }
            let clock = StageClock::start();
            parts.iter_mut().for_each(|p| p.schedule(&inputs));
            clock.stop(&mut timings.s1, slot, Stage::S1, traced, sink);
            let clock = StageClock::start();
            parts.iter_mut().for_each(|p| p.admit(&inputs));
            clock.stop(&mut timings.s2, slot, Stage::S2, traced, sink);
            let clock = StageClock::start();
            parts.iter_mut().for_each(|p| p.route(&inputs));
            clock.stop(&mut timings.s3, slot, Stage::S3, traced, sink);
        } else {
            fan_out(parts, workers, |p| {
                p.scatter(&inputs);
                p.schedule(&inputs);
                p.admit(&inputs);
                p.route(&inputs);
            });
        }

        // 3. Global S4, with the fallback ladder in case S4 reports a
        //    deficit the worst-case precheck missed (or a fault made the
        //    observation inconsistent): graceful descends shed → grid-only
        //    → drop schedule → safe mode; strict aborts after shedding.
        let mut shed = 0usize;
        let mut degradation: Vec<DegradationEvent> = Vec::new();
        // Time-of-use pricing: this slot the provider pays `m·f(P)`, which
        // for the quadratic f is exactly the scaled quadratic — S4's
        // exactness is preserved.
        let scaled_cost = dpp::scaled_cost(cost, obs.price_multiplier);
        let mut retry = false;
        loop {
            if retry {
                // A rung shed transmissions: refresh the realized link
                // service. Flows do not read the schedule.
                let clock = StageClock::start();
                for p in parts.iter_mut() {
                    p.arena.refresh_link_service(phy, config, &obs.spectrum);
                }
                clock.stop(&mut timings.s3, slot, Stage::S3, traced, sink);
            }
            demand.clear();
            demand.resize(nodes, Energy::ZERO);
            for p in parts.iter() {
                p.demand_into(config, demand);
            }
            for g in unowned(owner) {
                demand[g] = models[g].slot_demand(None, false, config.slot);
            }
            // Sleep-policy demand override: an asleep BS draws only its
            // sleep power, a ramping BS its ramp power. Outage-forced-awake
            // BSs take the normal path.
            if let Some(sp) = config.bs_sleep {
                for (i, d) in demand.iter_mut().enumerate() {
                    if !is_bs[i] {
                        continue;
                    }
                    if net_state.is_asleep(i) {
                        *d = sp.sleep_power * config.slot;
                    } else if net_state.ramp_remaining(i) > 0 {
                        *d = sp.ramp_power * config.slot;
                    }
                }
            }
            let input = EnergyManagementInput {
                z,
                demand,
                renewable: &obs.renewable,
                batteries,
                grid_connected: &obs.grid_connected,
                grid_limits,
                is_base_station: is_bs,
                cost: &scaled_cost,
                v: config.v,
            };
            let clock = StageClock::start();
            let solved = energy_stage.solve(&input, net_state, s4, energy);
            clock.stop(&mut timings.s4, slot, Stage::S4, traced, sink);
            let Err(err) = solved else { break };
            #[cfg(feature = "shed-debug")]
            eprintln!("slot {slot}: S4 error {err:?}");
            let mut cx = FallbackCx {
                phy,
                spectrum: &obs.spectrum,
                nodes,
                slot,
                input: &input,
                parts,
                owner,
                energy,
                degradation: &mut degradation,
                shed: &mut shed,
                traced,
                sink: &mut *sink,
            };
            let decision = ladder
                .iter()
                .map(|rung| rung.attempt(&err, &mut cx))
                .find(|&d| d != FallbackOutcome::Pass)
                .unwrap_or(FallbackOutcome::Pass);
            match decision {
                FallbackOutcome::Retry => retry = true,
                FallbackOutcome::Resolved => break,
                FallbackOutcome::Pass | FallbackOutcome::Abort => return Err(err.into()),
            }
        }

        // 4. Drift-plus-penalty diagnostics for the chosen actions, against
        //    the *pre-update* queue state (as in Lemma 1), then the state
        //    advance: batteries by the decisions here, then queues by their
        //    laws in the second fan-out.
        let lyapunov_before = lyapunov(parts, owner, z);
        let psi1 = dpp::psi1(
            *beta,
            parts.iter().flat_map(|p| {
                p.arena
                    .link_service
                    .iter()
                    .map(|&(i, j, pkts)| p.links.h(i, j) * pkts.count_f64())
            }),
        );
        let psi2 = dpp::psi2(
            parts.iter().flat_map(|p| {
                p.arena.admissions.iter().map(|a| {
                    (
                        p.data.backlog(a.source, a.session).count_f64(),
                        a.packets.count_f64(),
                    )
                })
            }),
            config.lambda,
            config.v,
        );
        let psi3 = dpp::psi3(parts.iter().flat_map(|p| {
            p.arena.flows.iter_nonzero().map(|(s, i, j, l)| {
                let coeff = -p.data.backlog(i, s).count_f64()
                    + p.data.backlog(j, s).count_f64()
                    + *beta * p.links.h(i, j);
                (coeff, l.count_f64())
            })
        }));

        let advance_start = traced.then(Instant::now);
        for (battery, decision) in batteries.iter_mut().zip(&energy.decisions) {
            decision
                .apply_to_battery(battery)
                .expect("validated decision must apply");
        }
        z_after.clear();
        z_after.extend(batteries.iter().map(shifted));
        // 5. Second fan-out: per-partition queue advance, z(t+1) slice and
        //    L_p(t+1); the tallies are summed here in partition order.
        let z_after = &*z_after;
        fan_out(parts, workers, |p| p.advance(z_after));
        let (mut scheduled_links, mut admitted, mut routed) = (0, Packets::ZERO, Packets::ZERO);
        for p in parts.iter() {
            let (l, a, r) = p.arena.tally;
            scheduled_links += l;
            admitted += a;
            routed += r;
        }
        let lyapunov_after = lyapunov(parts, owner, z_after);
        if let Some(start) = advance_start {
            sink.record(TraceEvent::span_ended(
                slot,
                Stage::Advance,
                sink.now_nanos(),
                start.elapsed(),
            ));
        }
        let schedule = ScheduleRecord { scheduled_links };
        let allocation = AllocationRecord { admitted };
        let routing = RoutingRecord { routed };
        let energy_record = EnergyRecord {
            cost: energy.cost,
            grid_draw: energy.grid_draw,
            objective: energy.objective,
        };
        let report = SlotReport {
            slot,
            cost: energy_record.cost,
            grid_draw: energy_record.grid_draw,
            scheduled_links: schedule.scheduled_links,
            admitted: allocation.admitted,
            routed: routing.routed,
            psi1,
            psi2,
            psi3,
            psi4: energy_record.objective,
            lyapunov_before,
            lyapunov_after,
            shed_transmissions: shed,
            degradation,
        };
        if traced {
            for (name, value) in [
                ("psi1", report.psi1),
                ("psi2", report.psi2),
                ("psi3", report.psi3),
                ("psi4", report.psi4),
                (names::DRIFT, report.lyapunov_after - report.lyapunov_before),
                (
                    names::PENALTY,
                    config.v * (report.cost - config.lambda * report.admitted.count_f64()),
                ),
            ] {
                sink.record(TraceEvent::Gauge { slot, name, value });
            }
            for (name, value) in [
                ("scheduled_links", report.scheduled_links as u64),
                ("admitted", report.admitted.count()),
                ("routed", report.routed.count()),
                ("shed", report.shed_transmissions as u64),
            ] {
                sink.record(TraceEvent::Counter { slot, name, value });
            }
            if let Some(start) = slot_start {
                sink.record(TraceEvent::span_ended(
                    slot,
                    Stage::Slot,
                    sink.now_nanos(),
                    start.elapsed(),
                ));
            }
        }
        self.slot += 1;
        self.timings.slots += 1;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_all_builtin_keys() {
        for key in ["greedy", "sequential_fix"] {
            assert_eq!(schedule_stage(key).expect("registered").key(), key);
        }
        for key in ["multi_hop", "one_hop"] {
            assert_eq!(relay_stage(key).expect("registered").key(), key);
        }
        for key in [
            "marginal_price",
            "marginal_price_reference",
            "grid_only",
            "energy_coop",
        ] {
            assert_eq!(energy_stage(key).expect("registered").key(), key);
        }
        assert!(schedule_stage("no_such_stage").is_err());
        assert!(relay_stage("no_such_stage").is_err());
        assert!(energy_stage("no_such_stage").is_err());
    }

    #[test]
    fn registry_errors_name_the_key_and_enumerate_valid_keys() {
        let err = schedule_stage("no_such_stage").expect_err("unknown key");
        assert_eq!(err.kind, "schedule");
        assert_eq!(err.key, "no_such_stage");
        assert_eq!(err.valid, ["greedy", "sequential_fix"]);
        assert_eq!(
            err.to_string(),
            "unknown schedule stage key \"no_such_stage\"; \
             valid keys: greedy, sequential_fix"
        );
        let err = relay_stage("mutli_hop").expect_err("misspelled key");
        assert_eq!(
            err.to_string(),
            "unknown relay stage key \"mutli_hop\"; valid keys: multi_hop, one_hop"
        );
        let err = energy_stage("marginal").expect_err("truncated key");
        assert_eq!(
            err.to_string(),
            "unknown energy stage key \"marginal\"; valid keys: \
             marginal_price, marginal_price_reference, grid_only, energy_coop"
        );
    }

    #[test]
    fn config_keys_round_trip_through_the_registry() {
        use crate::{EnergyPolicy, RelayPolicy, SchedulerKind};
        for kind in [SchedulerKind::Greedy, SchedulerKind::SequentialFix] {
            assert!(schedule_stage(kind.key()).is_ok());
        }
        for policy in [RelayPolicy::MultiHop, RelayPolicy::OneHop] {
            assert!(relay_stage(policy.key()).is_ok());
        }
        for policy in [EnergyPolicy::MarginalPrice, EnergyPolicy::GridOnly] {
            assert!(energy_stage(policy.key()).is_ok());
        }
    }

    #[test]
    fn ladders_match_their_policies() {
        let graceful: Vec<_> = fallback_ladder(DegradationPolicy::Graceful)
            .iter()
            .map(|r| r.name())
            .collect();
        assert_eq!(
            graceful,
            ["shed", "grid_only_fallback", "drop_schedule", "safe_mode"]
        );
        let strict: Vec<_> = fallback_ladder(DegradationPolicy::Strict)
            .iter()
            .map(|r| r.name())
            .collect();
        assert_eq!(strict, ["shed", "strict_abort"]);
    }
}
