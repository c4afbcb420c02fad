//! Lockstep property tests for the sparse S3 routing kernel
//! (`route_flows_into`) against the frozen dense scan
//! (`route_flows_reference`).
//!
//! The kernel's contract is **bit-identity**: the same `FlowPlan`, entry
//! for entry, whatever the backlogs, link queues and caps, and whatever
//! stale state its retained scratch and plan carry from earlier calls.
//! The instances mix zero caps, masked nodes (every link touching them
//! dropped, as the pipeline does), sessions without an admission, several
//! sessions sharing one destination, and small integer backlogs with
//! `β ∈ {½, 1, 2}` so exact coefficient ties are common.

use greencell_core::{
    route_flows, route_flows_into, route_flows_reference, Admission, RoutingCaps, S3Scratch,
};
use greencell_net::{Network, NetworkBuilder, NodeId, PathLossModel, Point, SessionId};
use greencell_queue::{DataQueueBank, FlowPlan, LinkQueueBank};
use greencell_stochastic::Rng;
use greencell_units::{DataRate, Packets};
use proptest::prelude::*;

struct Instance {
    net: Network,
    data: DataQueueBank,
    links: LinkQueueBank,
    /// i-major, as the pipeline builds them.
    caps: Vec<(NodeId, NodeId, Packets)>,
    admissions: Vec<Admission>,
    demand: Vec<Packets>,
}

fn n(i: usize) -> NodeId {
    NodeId::from_index(i)
}

fn s(i: usize) -> SessionId {
    SessionId::from_index(i)
}

/// Small packet counts: 0 often, so ties and empty queues are common.
fn small(rng: &mut Rng, max: u64) -> Packets {
    Packets::new(if rng.chance(0.3) {
        0
    } else {
        rng.below(max + 1)
    })
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = Rng::seed_from(seed);
    let nodes = 3 + rng.index(10);
    let base_stations = 1 + rng.index(2);
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
    let mut users = Vec::new();
    for k in 0..nodes {
        let at = Point::new(rng.range_f64(0.0, 2000.0), rng.range_f64(0.0, 2000.0));
        if k < base_stations {
            b.add_base_station(at);
        } else {
            users.push(b.add_user(at));
        }
    }
    // Up to four sessions; half the instances pile them onto one user.
    let sessions = 1 + rng.index(4);
    let shared = rng.chance(0.5);
    let mut destinations = Vec::new();
    for _ in 0..sessions {
        let dest = if shared {
            users[0]
        } else {
            *rng.choose(&users).expect("at least two users")
        };
        b.add_session(dest, DataRate::from_kilobits_per_second(100.0));
        destinations.push(dest);
    }
    let net = b.build().expect("valid network");

    // Backlogs: random admissions anywhere but at the destination.
    let mut data = DataQueueBank::new(nodes, &destinations);
    for _ in 0..3 {
        let mut loads = Vec::new();
        for (k, &dest) in destinations.iter().enumerate() {
            for i in 0..nodes {
                if n(i) != dest && rng.chance(0.4) {
                    loads.push((s(k), n(i), small(&mut rng, 6)));
                }
            }
        }
        data.advance(&FlowPlan::new(nodes, sessions), &loads);
    }

    // Link queues: one random slot of arrivals and service.
    let beta = [0.5, 1.0, 2.0][rng.index(3)];
    let mut links = LinkQueueBank::new(nodes, beta);
    let mut plan = FlowPlan::new(nodes, sessions);
    let mut service = Vec::new();
    for i in 0..nodes {
        for j in 0..nodes {
            if i != j && rng.chance(0.3) {
                plan.set(s(rng.index(sessions)), n(i), n(j), small(&mut rng, 4));
            }
            if i != j && rng.chance(0.1) {
                service.push((n(i), n(j), small(&mut rng, 2)));
            }
        }
    }
    links.advance(&plan, &service);

    // Caps over the unmasked ordered pairs, some of them zero.
    let masked: Vec<bool> = (0..nodes).map(|_| rng.chance(0.15)).collect();
    let mut caps = Vec::new();
    for (i, j) in net.topology().ordered_pairs() {
        if !masked[i.index()] && !masked[j.index()] && rng.chance(0.8) {
            caps.push((i, j, small(&mut rng, 8)));
        }
    }

    // Some sessions get no admission; the rest a random source BS.
    let mut admissions = Vec::new();
    for k in 0..sessions {
        if rng.chance(0.7) {
            admissions.push(Admission {
                session: s(k),
                source: n(rng.index(base_stations)),
                packets: small(&mut rng, 5),
            });
        }
    }
    let demand = (0..sessions).map(|_| small(&mut rng, 6)).collect();
    Instance {
        net,
        data,
        links,
        caps,
        admissions,
        demand,
    }
}

/// Runs the sparse kernel through `scratch`/`plan`/`caps` (possibly stale
/// from an earlier instance) and compares with the dense oracle.
fn assert_lockstep(
    inst: &Instance,
    caps: &mut RoutingCaps,
    scratch: &mut S3Scratch,
    plan: &mut FlowPlan,
) -> Result<(), TestCaseError> {
    let oracle = route_flows_reference(
        &inst.net,
        &inst.data,
        &inst.links,
        &inst.caps,
        &inst.admissions,
        &inst.demand,
    );
    caps.rebuild(inst.net.topology().len(), inst.caps.iter().copied());
    route_flows_into(
        &inst.net,
        &inst.data,
        &inst.links,
        caps,
        &inst.admissions,
        &inst.demand,
        scratch,
        plan,
    );
    prop_assert_eq!(&*plan, &oracle, "sparse kernel diverged from the oracle");
    let allocating = route_flows(
        &inst.net,
        &inst.data,
        &inst.links,
        &inst.caps,
        &inst.admissions,
        &inst.demand,
    );
    prop_assert_eq!(&allocating, &oracle, "route_flows diverged from the oracle");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One instance through fresh buffers.
    #[test]
    fn sparse_kernel_matches_the_dense_oracle(seed in 0u64..1_000_000) {
        let inst = random_instance(seed);
        assert_lockstep(
            &inst,
            &mut RoutingCaps::new(),
            &mut S3Scratch::new(),
            &mut FlowPlan::empty(),
        )?;
    }

    /// A run of instances of varying size through one set of retained
    /// buffers: whatever a call leaves behind must not leak into the next.
    #[test]
    fn retained_buffers_carry_nothing_between_calls(seed in 0u64..1_000_000) {
        let mut caps = RoutingCaps::new();
        let mut scratch = S3Scratch::new();
        let mut plan = FlowPlan::empty();
        for k in 0..6 {
            let inst = random_instance(seed.wrapping_mul(7).wrapping_add(k));
            assert_lockstep(&inst, &mut caps, &mut scratch, &mut plan)?;
        }
    }
}

/// Two sessions to one destination, both backlogged at nodes 0 and 1
/// only, so every negative coefficient is the same `−5`: both kernels
/// must break the delivery tie by the lower sender and the backpressure
/// tie by session, then cap position.
#[test]
fn exact_ties_resolve_identically() {
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
    b.add_base_station(Point::new(0.0, 0.0));
    b.add_user(Point::new(300.0, 0.0));
    b.add_user(Point::new(300.0, 300.0));
    let dest = b.add_user(Point::new(600.0, 0.0));
    b.add_session(dest, DataRate::ZERO);
    b.add_session(dest, DataRate::ZERO);
    let net = b.build().expect("valid network");
    let mut data = DataQueueBank::new(4, &[dest, dest]);
    let loads: Vec<_> = (0..2)
        .flat_map(|k| (0..2).map(move |i| (s(k), n(i), Packets::new(5))))
        .collect();
    data.advance(&FlowPlan::new(4, 2), &loads);
    let links = LinkQueueBank::new(4, 1.0);
    let caps: Vec<_> = net
        .topology()
        .ordered_pairs()
        .map(|(i, j)| (i, j, Packets::new(3)))
        .collect();
    let admissions = [Admission {
        session: s(1),
        source: n(0),
        packets: Packets::ZERO,
    }];
    let demand = [Packets::new(4), Packets::new(4)];
    let inst = Instance {
        net,
        data,
        links,
        caps,
        admissions: admissions.to_vec(),
        demand: demand.to_vec(),
    };
    let mut plan = FlowPlan::empty();
    assert_lockstep(
        &inst,
        &mut RoutingCaps::new(),
        &mut S3Scratch::new(),
        &mut plan,
    )
    .expect("lockstep");
    // Delivery: session 0 takes 0 → 3 (lower sender), which leaves
    // session 1 only 1 → 3. Backpressure: session 0 wins both ties onto
    // node 2 and drains node 0's remaining 2 packets.
    let entries: Vec<_> = plan
        .iter_nonzero()
        .map(|(k, i, j, p)| (k.index(), i.index(), j.index(), p.count()))
        .collect();
    assert_eq!(
        entries,
        vec![(0, 0, 2, 2), (0, 0, 3, 3), (0, 1, 2, 3), (1, 1, 3, 3)]
    );
}

#[test]
#[should_panic(expected = "ascending order")]
fn caps_out_of_sender_order_are_rejected() {
    let mut caps = RoutingCaps::new();
    caps.rebuild(
        3,
        [(n(1), n(0), Packets::new(1)), (n(0), n(1), Packets::new(1))],
    );
}
