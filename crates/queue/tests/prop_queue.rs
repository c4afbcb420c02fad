//! Property tests: the queueing laws' structural invariants hold for
//! arbitrary arrival/service sequences.

use greencell_net::{NodeId, SessionId};
use greencell_queue::{lyapunov_value, DataQueueBank, FlowPlan, LinkQueueBank, PacketQueue};
use greencell_stochastic::Rng;
use greencell_units::Packets;
use proptest::prelude::*;

/// One queue of the dense model: `(backlog, arrivals, offered, wasted)`.
type Cell = [u64; 4];

/// `Q(t+1) = max{Q − b, 0} + a` with the lifetime counters.
fn law(q: &mut Cell, a: u64, b: u64) -> u64 {
    let wasted = b.saturating_sub(q[0]);
    *q = [
        q[0].saturating_sub(b) + a,
        q[1] + a,
        q[2] + b,
        q[3] + wasted,
    ];
    wasted
}

fn cell(q: &PacketQueue) -> Cell {
    [
        q.backlog().count(),
        q.total_arrivals(),
        q.total_offered(),
        q.total_wasted(),
    ]
}

/// A naive replay of Eqs. (15) and (28): every queue, every slot, with
/// `l^s_ij` held as a dense `s × n × n` array.
struct DenseModel {
    nodes: usize,
    dests: Vec<usize>,
    /// `data[s·n + i]`.
    data: Vec<Cell>,
    delivered: Vec<u64>,
    phantom: Vec<u64>,
    /// `links[i·n + j]`.
    links: Vec<Cell>,
}

impl DenseModel {
    fn new(nodes: usize, dests: &[usize]) -> Self {
        Self {
            nodes,
            dests: dests.to_vec(),
            data: vec![[0; 4]; dests.len() * nodes],
            delivered: vec![0; dests.len()],
            phantom: vec![0; dests.len()],
            links: vec![[0; 4]; nodes * nodes],
        }
    }

    fn step(
        &mut self,
        l: &[u64],
        admissions: &[(usize, usize, u64)],
        service: &[(usize, usize, u64)],
    ) {
        let n = self.nodes;
        let at = |s: usize, i: usize, j: usize| l[(s * n + i) * n + j];
        for (s, &dest) in self.dests.iter().enumerate() {
            for i in 0..n {
                let inflow: u64 = (0..n).map(|j| at(s, j, i)).sum();
                if i == dest {
                    self.delivered[s] += inflow;
                    continue;
                }
                let outflow: u64 = (0..n).map(|j| at(s, i, j)).sum();
                self.phantom[s] += law(&mut self.data[s * n + i], inflow, outflow);
            }
        }
        for &(s, i, k) in admissions {
            law(&mut self.data[s * n + i], k, 0);
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let arrivals: u64 = (0..self.dests.len()).map(|s| at(s, i, j)).sum();
                    let served = service
                        .iter()
                        .find(|&&(a, b, _)| (a, b) == (i, j))
                        .map_or(0, |&(_, _, p)| p);
                    law(&mut self.links[i * n + j], arrivals, served);
                }
            }
        }
    }
}

/// The Lyapunov value as the full double loop over every queue — the
/// summation the sparse `lyapunov_value` must reproduce bit for bit.
fn dense_lyapunov(data: &DataQueueBank, links: &LinkQueueBank, z: &[f64]) -> f64 {
    let mut total = 0.0;
    for s in 0..data.session_count() {
        for i in 0..data.node_count() {
            let q = data
                .backlog(NodeId::from_index(i), SessionId::from_index(s))
                .count_f64();
            total += q * q;
        }
    }
    let n = links.node_count();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let h = links.h(NodeId::from_index(i), NodeId::from_index(j));
                total += h * h;
            }
        }
    }
    for &z in z {
        total += z * z;
    }
    0.5 * total
}

/// One random slot: a sparse plan (and its dense image), admissions off
/// the destinations, and a duplicate-free service list.
#[allow(clippy::type_complexity)]
fn random_slot(
    rng: &mut Rng,
    nodes: usize,
    dests: &[usize],
) -> (
    FlowPlan,
    Vec<u64>,
    Vec<(usize, usize, u64)>,
    Vec<(usize, usize, u64)>,
) {
    let sessions = dests.len();
    let mut plan = FlowPlan::new(nodes, sessions);
    let mut dense = vec![0u64; sessions * nodes * nodes];
    for _ in 0..rng.index(2 * nodes) {
        let (s, i, j) = (rng.index(sessions), rng.index(nodes), rng.index(nodes));
        if i != j {
            // Overwrites, zeros included: `set` keeps only non-zero flows.
            let p = if rng.chance(0.2) {
                0
            } else {
                1 + rng.below(12)
            };
            plan.set(
                SessionId::from_index(s),
                NodeId::from_index(i),
                NodeId::from_index(j),
                Packets::new(p),
            );
            dense[(s * nodes + i) * nodes + j] = p;
        }
    }
    let admissions = (0..rng.index(4))
        .map(|_| (rng.index(sessions), rng.index(nodes), rng.below(15)))
        .filter(|&(s, i, _)| i != dests[s])
        .collect();
    let mut service: Vec<(usize, usize, u64)> = Vec::new();
    for _ in 0..rng.index(nodes) {
        let (i, j) = (rng.index(nodes), rng.index(nodes));
        if i != j && !service.iter().any(|&(a, b, _)| (a, b) == (i, j)) {
            service.push((i, j, rng.below(10)));
        }
    }
    (plan, dense, admissions, service)
}

/// Checks both banks against the model, queue by queue, and the Lyapunov
/// value bit for bit against the dense double loop.
fn assert_matches(
    data: &DataQueueBank,
    links: &LinkQueueBank,
    model: &DenseModel,
    z: &[f64],
) -> Result<(), TestCaseError> {
    let data_cells: Vec<Cell> = data.queues().iter().map(cell).collect();
    prop_assert_eq!(&data_cells, &model.data, "data queues diverged");
    let delivered: Vec<u64> = data
        .delivered_per_session()
        .iter()
        .map(|p| p.count())
        .collect();
    prop_assert_eq!(&delivered, &model.delivered);
    let phantom: Vec<u64> = data
        .phantom_per_session()
        .iter()
        .map(|p| p.count())
        .collect();
    prop_assert_eq!(&phantom, &model.phantom);
    let link_cells: Vec<Cell> = links.queues().iter().map(cell).collect();
    prop_assert_eq!(&link_cells, &model.links, "link queues diverged");
    // The non-empty index lists exactly the busy links, ascending.
    let n = model.nodes;
    let busy: Vec<(usize, usize, u64)> = (0..n * n)
        .filter(|&k| k / n != k % n && model.links[k][0] > 0)
        .map(|k| (k / n, k % n, model.links[k][0]))
        .collect();
    let listed: Vec<(usize, usize, u64)> = links
        .backlogs()
        .map(|(i, j, g)| (i.index(), j.index(), g.count()))
        .collect();
    prop_assert_eq!(listed, busy, "non-empty link index is not exact");
    prop_assert_eq!(
        lyapunov_value(data, links, z).to_bits(),
        dense_lyapunov(data, links, z).to_bits(),
        "Lyapunov sum is not bit-identical to the dense double loop"
    );
    Ok(())
}

proptest! {
    /// `Q(t+1) = max{Q−b,0}+a`: backlog is exactly reproducible from the
    /// law, never negative, and changes by at most `max(a, b)` per slot.
    #[test]
    fn packet_queue_law_invariants(ops in prop::collection::vec((0u64..500, 0u64..500), 1..100)) {
        let mut q = PacketQueue::new();
        let mut model: u64 = 0;
        for &(a, b) in &ops {
            let before = q.backlog().count();
            let after = q.advance(Packets::new(a), Packets::new(b)).count();
            model = model.saturating_sub(b) + a;
            prop_assert_eq!(after, model, "law mismatch");
            let delta = after.abs_diff(before);
            prop_assert!(delta <= a.max(b), "one-slot change {delta} > max(a,b)");
        }
    }

    /// Conservation: arrivals = served + wasted-service complement + final
    /// backlog (arrivals − useful service = backlog).
    #[test]
    fn packet_queue_conservation(ops in prop::collection::vec((0u64..500, 0u64..500), 1..100)) {
        let mut q = PacketQueue::new();
        for &(a, b) in &ops {
            q.advance(Packets::new(a), Packets::new(b));
        }
        prop_assert_eq!(
            q.total_arrivals(),
            q.total_served() + q.backlog().count(),
            "packets must be served or still queued"
        );
        prop_assert_eq!(q.total_offered(), q.total_served() + q.total_wasted());
    }

    /// The data bank conserves packets globally: everything admitted is
    /// either delivered, still queued somewhere, or was a phantom forward
    /// (which only ever *adds* packets at the receiver).
    #[test]
    fn data_bank_conservation(
        admissions in prop::collection::vec(0u64..200, 1..30),
        hops in prop::collection::vec((0usize..3, 0usize..3, 0u64..300), 0..30),
    ) {
        // 4 nodes, 1 session destined to node 3; admissions at node 0.
        let dest = NodeId::from_index(3);
        let mut bank = DataQueueBank::new(4, &[dest]);
        let s = SessionId::from_index(0);
        for &k in &admissions {
            bank.advance(&FlowPlan::new(4, 1), &[(s, NodeId::from_index(0), Packets::new(k))]);
        }
        let admitted: u64 = admissions.iter().sum();
        // Random forwarding between nodes 0..=2 and into the destination.
        for &(i, j, pkts) in &hops {
            if i == j {
                continue;
            }
            let mut plan = FlowPlan::new(4, 1);
            // Map j == 2 onto the destination sometimes for delivery.
            let to = if pkts % 2 == 0 { NodeId::from_index(j) } else { dest };
            let from = NodeId::from_index(i);
            if from == to {
                continue;
            }
            plan.set(s, from, to, Packets::new(pkts));
            bank.advance(&plan, &[]);
        }
        let queued: u64 = (0..4)
            .map(|i| bank.backlog(NodeId::from_index(i), s).count())
            .sum();
        let delivered = bank.delivered(s).count();
        let phantom = bank.phantom_forwarded(s).count();
        // Phantoms are minted at the max{·,0} truncation; every real packet
        // is accounted for.
        prop_assert_eq!(admitted + phantom, queued + delivered,
            "admitted {} + phantom {} != queued {} + delivered {}",
            admitted, phantom, queued, delivered);
    }

    /// H is always exactly β·G, under any flow/service interleaving.
    #[test]
    fn link_bank_h_is_scaled_g(
        beta in 1.0f64..100.0,
        events in prop::collection::vec((0u64..50, 0u64..50), 1..40),
    ) {
        let mut bank = LinkQueueBank::new(2, beta);
        let i = NodeId::from_index(0);
        let j = NodeId::from_index(1);
        for &(arrive, serve) in &events {
            let mut plan = FlowPlan::new(2, 1);
            if arrive > 0 {
                plan.set(SessionId::from_index(0), i, j, Packets::new(arrive));
            }
            bank.advance(&plan, &[(i, j, Packets::new(serve))]);
            let g = bank.g(i, j).count_f64();
            prop_assert!((bank.h(i, j) - beta * g).abs() < 1e-9);
        }
    }

    /// FlowPlan aggregations agree with direct summation.
    #[test]
    fn flow_plan_aggregations(entries in prop::collection::vec((0usize..4, 0usize..4, 0u64..100), 0..20)) {
        let mut plan = FlowPlan::new(4, 1);
        let s = SessionId::from_index(0);
        let mut dense = [[0u64; 4]; 4];
        for &(i, j, p) in &entries {
            if i != j {
                dense[i][j] = p; // set overwrites, matching FlowPlan::set
                plan.set(s, NodeId::from_index(i), NodeId::from_index(j), Packets::new(p));
            }
        }
        for (i, row) in dense.iter().enumerate() {
            let out: u64 = row.iter().sum();
            let inflow: u64 = (0..4).map(|j| dense[j][i]).sum();
            prop_assert_eq!(plan.outflow(s, NodeId::from_index(i)).count(), out);
            prop_assert_eq!(plan.inflow(s, NodeId::from_index(i)).count(), inflow);
        }
        let total: u64 = dense.iter().flatten().sum();
        prop_assert_eq!(plan.total().count(), total);
        let listed: u64 = plan.iter_nonzero().map(|(_, _, _, p)| p.count()).sum();
        prop_assert_eq!(listed, total);
    }

    /// Both banks replay a naive dense model of Eqs. (15)/(28) over random
    /// sparse plans, admissions and service lists; a bank restored from
    /// a mid-sequence capture continues in lockstep with the lived-in one.
    #[test]
    fn banks_match_the_dense_queue_laws(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from(seed);
        let nodes = 2 + rng.index(7);
        let sessions = 1 + rng.index(3);
        let dests: Vec<usize> = (0..sessions).map(|_| rng.index(nodes)).collect();
        let dest_ids: Vec<NodeId> = dests.iter().map(|&d| NodeId::from_index(d)).collect();
        let beta = rng.range_f64(0.1, 40.0);
        let mut data = DataQueueBank::new(nodes, &dest_ids);
        let mut links = LinkQueueBank::new(nodes, beta);
        let mut model = DenseModel::new(nodes, &dests);
        let mut restored: Option<(DataQueueBank, LinkQueueBank)> = None;
        let slots = 1 + rng.index(30);
        let restore_at = rng.index(slots);
        for t in 0..slots {
            let (plan, dense, admissions, service) = random_slot(&mut rng, nodes, &dests);
            let adm: Vec<(SessionId, NodeId, Packets)> = admissions
                .iter()
                .map(|&(s, i, k)| (SessionId::from_index(s), NodeId::from_index(i), Packets::new(k)))
                .collect();
            let svc: Vec<(NodeId, NodeId, Packets)> = service
                .iter()
                .map(|&(i, j, p)| (NodeId::from_index(i), NodeId::from_index(j), Packets::new(p)))
                .collect();
            data.advance(&plan, &adm);
            links.advance(&plan, &svc);
            model.step(&dense, &admissions, &service);
            if let Some((rd, rl)) = restored.as_mut() {
                rd.advance(&plan, &adm);
                rl.advance(&plan, &svc);
                prop_assert_eq!(&*rd, &data, "restored data bank drifted at slot {}", t);
                prop_assert_eq!(&*rl, &links, "restored link bank drifted at slot {}", t);
            }
            let z: Vec<f64> = (0..nodes).map(|_| rng.range_f64(-50.0, 50.0)).collect();
            assert_matches(&data, &links, &model, &z)?;
            if t == restore_at {
                let mut rd = DataQueueBank::new(nodes, &dest_ids);
                rd.restore(data.queues(), data.delivered_per_session(), data.phantom_per_session());
                let mut rl = LinkQueueBank::new(nodes, beta);
                rl.restore(links.queues());
                // Equality covers the rebuilt non-empty index.
                prop_assert_eq!(&rl, &links, "restore did not rebuild the index exactly");
                restored = Some((rd, rl));
            }
        }
    }
}
