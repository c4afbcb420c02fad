//! S3 — routing: choose the per-session flows `l^s_ij(t)` minimizing
//! `Σ_s Σ_ij (−Q^s_i + Q^s_j + β·H_ij)·l^s_ij` (§IV-C3).
//!
//! The objective is linear, so each link's flow goes entirely to the
//! session with the most negative coefficient — a backpressure rule with
//! `β·H_ij` as a link-congestion penalty. Destination delivery is handled
//! first: constraint (18) asks the destination's inflow to equal `v_s(t)`,
//! so for each session the cheapest link into `d_s` carries up to `v_s(t)`
//! packets.
//!
//! ## The two-layer interpretation (documented deviation)
//!
//! Read literally, the paper couples S1 and S3 into a deadlock: S1 fixes
//! `α^m_ij = 0` wherever `H_ij = 0`, while (25) caps `l^s_ij` by the
//! *scheduled* capacity — so from the all-zero initial state no link is
//! ever scheduled and no packet ever moves. The functional reading (and
//! the standard one for shadow-queue designs à la Bui–Srikant–Stolyar)
//! treats `G_ij` as a genuine link-layer buffer: **routing** moves packets
//! from the network-layer queue `Q^s_i` into the link buffer `G_ij`,
//! bounded per link-slot by the same constant the paper's Lemma 1 uses for
//! `G`'s arrivals (`β = max (1/δ)c^max_ij·Δt` packets), and **scheduling**
//! drains `G_ij` over the air at the realized capacity — which is exactly
//! constraint (25) applied at the layer where transmission happens. Both
//! queueing laws (15) and (28) are implemented verbatim; only the cap on
//! `l` moves from "this slot's `α`" to "the link's capacity bound".
//!
//! Additional documented deviations: flows are capped by the sender's
//! actual backlog (the paper's `max{·,0}` tolerates phantom packets; we
//! do not manufacture them), and each link carries at most one session per
//! slot (the paper's winner-take-all, applied after delivery flows).

use crate::Admission;
use greencell_net::{Network, NodeId, SessionId};
use greencell_queue::{DataQueueBank, FlowPlan, LinkQueueBank};
use greencell_units::Packets;
use std::ops::Range;

/// S3's routing caps `(i, j, cap)` grouped by sender, with a per-sender
/// offset table: sender `i`'s links are `caps[starts[i]..starts[i + 1]]`.
///
/// The caps keep the order they were given in, which must list senders in
/// ascending order (`Topology::ordered_pairs` is i-major, so a filtered
/// pass over it is). That makes a link's position in the list — the
/// routing tie-break — the same whether S3 scans every link or only the
/// links of backlogged senders.
#[derive(Debug, Clone, Default)]
pub struct RoutingCaps {
    caps: Vec<(NodeId, NodeId, Packets)>,
    /// `nodes + 1` offsets into `caps`.
    starts: Vec<usize>,
}

impl RoutingCaps {
    /// Creates an empty cap list over zero nodes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the buffers for `nodes` nodes and up to `links` caps, so a
    /// rebuild allocates nothing.
    pub fn reserve(&mut self, nodes: usize, links: usize) {
        self.caps.reserve(links);
        self.starts.reserve(nodes + 1);
    }

    /// Replaces the caps with `caps` over a `nodes`-node network and
    /// rebuilds the offset table, reusing the buffers.
    ///
    /// # Panics
    ///
    /// Panics unless the senders ascend and are all below `nodes`.
    pub fn rebuild(
        &mut self,
        nodes: usize,
        caps: impl IntoIterator<Item = (NodeId, NodeId, Packets)>,
    ) {
        self.caps.clear();
        self.caps.extend(caps);
        self.starts.clear();
        let mut k = 0;
        for i in 0..nodes {
            self.starts.push(k);
            while k < self.caps.len() && self.caps[k].0.index() == i {
                k += 1;
            }
        }
        self.starts.push(k);
        assert!(
            k == self.caps.len(),
            "routing caps must list senders in ascending order, each below {nodes}"
        );
    }

    /// The caps, in the order they were given.
    #[must_use]
    pub fn as_slice(&self) -> &[(NodeId, NodeId, Packets)] {
        &self.caps
    }

    /// Number of nodes the offset table spans.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Positions of sender `i`'s caps.
    fn sender(&self, i: NodeId) -> Range<usize> {
        self.starts[i.index()]..self.starts[i.index() + 1]
    }
}

/// Retained scratch for [`route_flows_into`]: the backlogged senders with
/// their remaining backlog, the phase-2 candidate heap, and the per-link
/// spent capacity and one-session-per-link marker. The per-link buffers
/// are all-zero between calls — routing records the links it touches and
/// clears exactly those — so a slot costs nothing per idle link. No buffer
/// shrinks, so steady-state routing performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct S3Scratch {
    /// `(Q^s_i > 0` sender, remaining backlog`)`, session-major, ascending
    /// node.
    senders: Vec<(NodeId, Packets)>,
    /// Session `s`'s senders are `senders[sender_start[s]..sender_start[s + 1]]`.
    sender_start: Vec<usize>,
    /// Phase-2 candidates `(!w.to_bits(), s, cap position, sender
    /// position)`: for the negative `w` kept here, ascending `!bits` is
    /// ascending `w`, so the tuple's own order is `(w, s, cap position)`.
    combos: Vec<(u64, SessionId, usize, usize)>,
    spent: Vec<Packets>,
    link_used: Vec<bool>,
    touched: Vec<usize>,
}

impl S3Scratch {
    /// Creates empty scratch; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the buffers for `nodes` nodes, `sessions` sessions, and up to
    /// `links` routable links, so a steady-state slot allocates nothing
    /// even when the backpressure candidate set hits a new peak.
    pub fn reserve(&mut self, nodes: usize, sessions: usize, links: usize) {
        self.senders.reserve(nodes * sessions);
        self.sender_start.reserve(sessions + 1);
        self.combos.reserve(links * sessions);
        self.spent.reserve(links);
        self.link_used.reserve(links);
    }
}

/// Runs S3.
///
/// `routing_caps` lists every link routing may use this slot with its flow
/// cap in packets (the controller passes all `ℳ_i ∩ ℳ_j ≠ ∅` pairs with
/// the `β` bound); `admissions` supplies the chosen sources `s_s(t)` (for
/// constraint (16)); `session_demand` supplies `v_s(t)` (for (18)).
/// The caps must list senders in ascending order (see [`RoutingCaps`]).
///
/// # Panics
///
/// Panics if `session_demand.len()` differs from the session count or
/// the caps are out of sender order.
#[must_use]
pub fn route_flows(
    net: &Network,
    data: &DataQueueBank,
    links: &LinkQueueBank,
    routing_caps: &[(NodeId, NodeId, Packets)],
    admissions: &[Admission],
    session_demand: &[Packets],
) -> FlowPlan {
    let mut caps = RoutingCaps::new();
    caps.rebuild(net.topology().len(), routing_caps.iter().copied());
    let mut scratch = S3Scratch::new();
    let mut plan = FlowPlan::new(net.topology().len(), net.session_count());
    route_flows_into(
        net,
        data,
        links,
        &caps,
        admissions,
        session_demand,
        &mut scratch,
        &mut plan,
    );
    plan
}

/// [`route_flows`] into caller-owned scratch and plan — the pipeline's
/// allocation-free path. The plan is reset to the network's dimensions
/// (retaining its buffer); decisions are identical to
/// [`route_flows_reference`].
///
/// The work is proportional to the backlogged senders and their links,
/// not to every link. A link's coefficient `−Q^s_i + Q^s_j + β·H_ij` can
/// only be negative where `Q^s_i > 0`, and delivery needs sender backlog
/// too, so both phases draw their candidates from the links of
/// backlogged senders only, with each session's source and destination
/// hoisted out of the link loop. Phase 1 visits its candidates in cap
/// order, as the dense scan does, so ties resolve to the same link;
/// phase 2 sorts by the same total order `(w, s, cap position)`.
///
/// # Panics
///
/// Panics if `session_demand.len()` differs from the session count or
/// the caps span a different node count than the network.
#[allow(clippy::too_many_arguments)]
pub fn route_flows_into(
    net: &Network,
    data: &DataQueueBank,
    links: &LinkQueueBank,
    routing_caps: &RoutingCaps,
    admissions: &[Admission],
    session_demand: &[Packets],
    scratch: &mut S3Scratch,
    plan: &mut FlowPlan,
) {
    let sessions = net.session_count();
    assert_eq!(session_demand.len(), sessions, "one demand per session");
    let nodes = net.topology().len();
    assert_eq!(
        routing_caps.node_count(),
        nodes,
        "caps/network node mismatch"
    );
    let beta = links.beta();
    let caps = routing_caps.as_slice();
    // Structural bounds, so a slot that reaches a new traffic peak still
    // allocates nothing: one delivery per session plus one session per
    // link, and at most every (session, node) queue backlogged.
    plan.reset(nodes, sessions);
    plan.reserve(caps.len() + sessions);
    let S3Scratch {
        senders,
        sender_start,
        combos,
        spent,
        link_used,
        touched,
    } = scratch;
    senders.clear();
    senders.reserve(nodes * sessions);
    touched.reserve(caps.len() + sessions);
    // All-zero at rest, so resizing to new caps needs no clearing.
    spent.resize(caps.len(), Packets::ZERO);
    link_used.resize(caps.len(), false);

    // Backlogged senders and their remaining backlog (anti-phantom).
    sender_start.clear();
    for s in 0..sessions {
        sender_start.push(senders.len());
        let s = SessionId::from_index(s);
        senders.extend(
            (0..nodes)
                .map(|i| {
                    (
                        NodeId::from_index(i),
                        data.backlog(NodeId::from_index(i), s),
                    )
                })
                .filter(|&(_, q)| q > Packets::ZERO),
        );
    }
    sender_start.push(senders.len());

    let source_of = |s: SessionId| -> NodeId {
        admissions
            .iter()
            .find(|a| a.session == s)
            .map_or(NodeId::from_index(usize::MAX - 1), |a| a.source)
    };

    // Phase 1: destination delivery per (18).
    for session in net.sessions() {
        let s = session.id();
        let dest = session.destination();
        let want = session_demand[s.index()];
        if want == Packets::ZERO {
            continue;
        }
        // Cheapest link into the destination with spare capacity and actual
        // backlog at the sender; the first such minimum in cap order.
        let mut best: Option<(f64, NodeId, usize, usize)> = None;
        let first = sender_start[s.index()];
        let last = sender_start[s.index() + 1];
        for (pos, &(i, backlog)) in senders.iter().enumerate().take(last).skip(first) {
            if i == dest || backlog == Packets::ZERO {
                continue;
            }
            for idx in routing_caps.sender(i) {
                let (_, j, c) = caps[idx];
                if j != dest || c == spent[idx] {
                    continue;
                }
                let w = -data.backlog(i, s).count_f64()
                    + data.backlog(j, s).count_f64()
                    + beta * links.h(i, j);
                let better = best.is_none_or(|(bw, bi, _, _)| {
                    w.total_cmp(&bw).then(i.cmp(&bi)) == std::cmp::Ordering::Less
                });
                if better {
                    best = Some((w, i, idx, pos));
                }
            }
        }
        if let Some((_, i, idx, pos)) = best {
            let (_, j, c) = caps[idx];
            let amount = want.min(c.saturating_sub(spent[idx])).min(senders[pos].1);
            if amount > Packets::ZERO {
                plan.set(s, i, j, amount);
                spent[idx] += amount;
                senders[pos].1 = senders[pos].1.saturating_sub(amount);
                touched.push(idx);
            }
        }
    }

    // Phase 2: backpressure — globally greedy over (session, link) pairs
    // with negative coefficients, one session per link.
    combos.clear();
    for s_idx in 0..sessions {
        let s = SessionId::from_index(s_idx);
        let source = source_of(s); // (16)
        let dest = net.session(s).destination(); // (17); dest inflow is phase 1's
        let (first, last) = (sender_start[s_idx], sender_start[s_idx + 1]);
        for (pos, &(i, _)) in senders.iter().enumerate().take(last).skip(first) {
            if i == dest {
                continue;
            }
            let q_i = data.backlog(i, s).count_f64();
            for idx in routing_caps.sender(i) {
                let (_, j, c) = caps[idx];
                if c == spent[idx] || j == source || j == dest {
                    continue;
                }
                let w = -q_i + data.backlog(j, s).count_f64() + beta * links.h(i, j);
                if w < 0.0 {
                    combos.push((!w.to_bits(), s, idx, pos));
                }
            }
        }
    }
    // Every `(session, link)` pair is distinct, so the order is total and
    // the unstable in-place sort is deterministic; integer keys compare
    // faster than `f64::total_cmp`.
    combos.sort_unstable();
    for &(_, s, idx, pos) in combos.iter() {
        if link_used[idx] {
            continue;
        }
        let (i, j, c) = caps[idx];
        let amount = c.saturating_sub(spent[idx]).min(senders[pos].1);
        if amount == Packets::ZERO {
            continue;
        }
        let already = plan.get(s, i, j);
        plan.set(s, i, j, already + amount);
        spent[idx] += amount;
        senders[pos].1 = senders[pos].1.saturating_sub(amount);
        link_used[idx] = true;
        touched.push(idx);
    }

    // Back to all-zero for the next call.
    for &idx in touched.iter() {
        spent[idx] = Packets::ZERO;
        link_used[idx] = false;
    }
    touched.clear();
}

/// The dense S3 scan that [`route_flows_into`] replaced, frozen as its
/// equivalence oracle: every link and every session is visited each
/// call, and the caps may come in any order. Allocates per call. Used by
/// [`crate::Controller::step_reference`] and the S3 kernel property tests;
/// not part of the public API.
///
/// # Panics
///
/// Panics if `session_demand.len()` differs from the session count.
#[doc(hidden)]
#[must_use]
pub fn route_flows_reference(
    net: &Network,
    data: &DataQueueBank,
    links: &LinkQueueBank,
    routing_caps: &[(NodeId, NodeId, Packets)],
    admissions: &[Admission],
    session_demand: &[Packets],
) -> FlowPlan {
    let mut scratch = ReferenceScratch::default();
    let mut plan = FlowPlan::empty();
    let sessions = net.session_count();
    assert_eq!(session_demand.len(), sessions, "one demand per session");
    let nodes = net.topology().len();
    let beta = links.beta();
    plan.reset(nodes, sessions);

    // Remaining link capacity and remaining sender backlog (anti-phantom).
    let cap = &mut scratch.cap;
    cap.clear();
    cap.extend_from_slice(routing_caps);
    let backlog = &mut scratch.backlog;
    backlog.clear();
    for s in 0..sessions {
        for i in 0..nodes {
            backlog.push(data.backlog(NodeId::from_index(i), SessionId::from_index(s)));
        }
    }
    let b_idx = |s: SessionId, i: NodeId| s.index() * nodes + i.index();

    let source_of = |s: SessionId| -> NodeId {
        admissions
            .iter()
            .find(|a| a.session == s)
            .map_or(NodeId::from_index(usize::MAX - 1), |a| a.source)
    };

    let coeff = |s: SessionId, i: NodeId, j: NodeId| -> f64 {
        -data.backlog(i, s).count_f64() + data.backlog(j, s).count_f64() + beta * links.h(i, j)
    };

    // Phase 1: destination delivery per (18).
    for session in net.sessions() {
        let s = session.id();
        let dest = session.destination();
        let want = session_demand[s.index()];
        if want == Packets::ZERO {
            continue;
        }
        // Cheapest link into the destination with spare capacity and actual
        // backlog at the sender.
        let best = cap
            .iter()
            .enumerate()
            .filter(|(_, &(i, j, c))| {
                j == dest && c > Packets::ZERO && i != dest && backlog[b_idx(s, i)] > Packets::ZERO
            })
            .min_by(|(_, &(i1, j1, _)), (_, &(i2, j2, _))| {
                coeff(s, i1, j1)
                    .total_cmp(&coeff(s, i2, j2))
                    .then(i1.cmp(&i2))
            })
            .map(|(idx, _)| idx);
        if let Some(idx) = best {
            let (i, j, c) = cap[idx];
            let amount = want.min(c).min(backlog[b_idx(s, i)]);
            if amount > Packets::ZERO {
                plan.set(s, i, j, amount);
                cap[idx].2 = c.saturating_sub(amount);
                let bi = b_idx(s, i);
                backlog[bi] = backlog[bi].saturating_sub(amount);
            }
        }
    }

    // Phase 2: backpressure — globally greedy over (session, link) pairs
    // with negative coefficients, one session per link.
    let combos = &mut scratch.combos;
    combos.clear();
    for (idx, &(i, j, c)) in cap.iter().enumerate() {
        if c == Packets::ZERO {
            continue;
        }
        for s_idx in 0..sessions {
            let s = SessionId::from_index(s_idx);
            if j == source_of(s)                          // (16)
                || i == net.session(s).destination()      // (17)
                || j == net.session(s).destination()
            // dest inflow handled in phase 1
            {
                continue;
            }
            let w = coeff(s, i, j);
            if w < 0.0 {
                combos.push((w, s, idx));
            }
        }
    }
    // Unstable sort is in-place (no merge buffer) and — because the
    // `(session, link)` pair makes every triple distinct under this
    // comparator — yields exactly the order a stable sort would.
    combos.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let link_used = &mut scratch.link_used;
    link_used.clear();
    link_used.resize(cap.len(), false);
    for &(_, s, idx) in combos.iter() {
        if link_used[idx] {
            continue;
        }
        let (i, j, remaining) = cap[idx];
        let bi = b_idx(s, i);
        let amount = remaining.min(backlog[bi]);
        if amount == Packets::ZERO {
            continue;
        }
        let already = plan.get(s, i, j);
        plan.set(s, i, j, already + amount);
        cap[idx].2 = remaining.saturating_sub(amount);
        backlog[bi] = backlog[bi].saturating_sub(amount);
        link_used[idx] = true;
    }
    plan
}

/// The buffers of [`route_flows_reference`].
#[derive(Default)]
struct ReferenceScratch {
    cap: Vec<(NodeId, NodeId, Packets)>,
    backlog: Vec<Packets>,
    combos: Vec<(f64, SessionId, usize)>,
    link_used: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_net::{NetworkBuilder, PathLossModel, Point};
    use greencell_units::DataRate;

    /// Chain: BS(0) → u1(1) → u2(2); one session destined to u2.
    fn fixture() -> (Network, DataQueueBank, LinkQueueBank) {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        b.add_base_station(Point::new(0.0, 0.0));
        b.add_user(Point::new(300.0, 0.0));
        let u2 = b.add_user(Point::new(600.0, 0.0));
        b.add_session(u2, DataRate::from_kilobits_per_second(100.0));
        let net = b.build().unwrap();
        let data = DataQueueBank::new(3, &[u2]);
        let links = LinkQueueBank::new(3, 10.0);
        (net, data, links)
    }

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }
    fn s0() -> SessionId {
        SessionId::from_index(0)
    }

    fn fill(data: &mut DataQueueBank, node: usize, pkts: u64) {
        data.advance(&FlowPlan::new(3, 1), &[(s0(), n(node), Packets::new(pkts))]);
    }

    fn adm(source: usize) -> Vec<Admission> {
        vec![Admission {
            session: s0(),
            source: n(source),
            packets: Packets::ZERO,
        }]
    }

    #[test]
    fn backpressure_forwards_toward_emptier_queue() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 0, 100); // BS heavily backlogged, u1 empty
        let caps = vec![(n(0), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        // coeff = −100 + 0 + 0 < 0 ⇒ forward min(cap, backlog) = 40.
        assert_eq!(plan.get(s0(), n(0), n(1)).count(), 40);
    }

    #[test]
    fn empty_sender_moves_nothing() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 1, 100); // u1 full, BS empty
        let caps = vec![(n(0), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn positive_coefficient_blocks_flow() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 0, 10);
        fill(&mut data, 1, 100); // downstream more congested: coeff = −10+100 > 0
        let caps = vec![(n(0), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn destination_delivery_satisfies_demand_first() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 1, 50); // relay u1 holds 50 packets for u2
        let caps = vec![(n(1), n(2), Packets::new(40))];
        // v_s = 30: phase 1 delivers 30; phase 2 never adds onto dest links.
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::new(30)]);
        assert_eq!(plan.get(s0(), n(1), n(2)).count(), 30);
    }

    #[test]
    fn delivery_capped_by_capacity_and_backlog() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 1, 5);
        let caps = vec![(n(1), n(2), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::new(30)]);
        assert_eq!(plan.get(s0(), n(1), n(2)).count(), 5); // backlog-limited
    }

    #[test]
    fn no_flow_into_the_source() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 1, 50);
        // Link u1 → BS (node 0), but node 0 is the session's source.
        let caps = vec![(n(1), n(0), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn no_flow_out_of_the_destination() {
        let (net, data, links) = fixture();
        // The destination holds no queue for its own session, so the only
        // way flow could leave it is a bug in the (17) filter; check the
        // rule directly on link u2 → u1.
        let caps = vec![(n(2), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn congested_link_queue_discourages_routing() {
        let (net, mut data, mut links) = fixture();
        fill(&mut data, 0, 10);
        // Pile 100 packets onto virtual queue (0→1): β·H = 10·(10·100) ≫ 10.
        let mut vplan = FlowPlan::new(3, 1);
        vplan.set(s0(), n(0), n(1), Packets::new(100));
        links.advance(&vplan, &[]);
        let caps = vec![(n(0), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn most_negative_coefficient_claims_capacity_first() {
        // Two links out of node 0 with limited backlog: the steeper
        // gradient (toward the emptier next hop) wins the packets.
        let (net, mut data, links) = fixture();
        fill(&mut data, 0, 30);
        fill(&mut data, 1, 20); // u1 moderately full; u2 is dest (skip)
        let caps = vec![
            (n(0), n(1), Packets::new(100)), // coeff −30+20 = −10
        ];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.get(s0(), n(0), n(1)).count(), 30);
    }

    #[test]
    fn one_session_per_link_per_slot() {
        // Two sessions both want link 0→1; only the more negative one gets
        // it this slot.
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        b.add_base_station(Point::new(0.0, 0.0));
        b.add_user(Point::new(300.0, 0.0));
        let u2 = b.add_user(Point::new(600.0, 0.0));
        b.add_session(u2, DataRate::ZERO);
        b.add_session(u2, DataRate::ZERO);
        let net = b.build().unwrap();
        let mut data = DataQueueBank::new(3, &[u2, u2]);
        data.advance(
            &FlowPlan::new(3, 2),
            &[
                (SessionId::from_index(0), n(0), Packets::new(10)),
                (SessionId::from_index(1), n(0), Packets::new(90)),
            ],
        );
        let links = LinkQueueBank::new(3, 10.0);
        let caps = vec![(n(0), n(1), Packets::new(50))];
        let adm: Vec<Admission> = (0..2)
            .map(|s| Admission {
                session: SessionId::from_index(s),
                source: n(0),
                packets: Packets::ZERO,
            })
            .collect();
        let plan = route_flows(&net, &data, &links, &caps, &adm, &[Packets::ZERO; 2]);
        assert_eq!(plan.get(SessionId::from_index(1), n(0), n(1)).count(), 50);
        assert_eq!(plan.get(SessionId::from_index(0), n(0), n(1)).count(), 0);
    }
}
