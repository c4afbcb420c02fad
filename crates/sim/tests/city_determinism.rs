//! Determinism gates for the city-scale subsystem: scenario generation,
//! cluster decomposition, and — critically — the cluster-parallel solve
//! must be bit-identical at any worker count and across repeat runs.

use greencell_sim::{CitySim, ClusterSet, Scenario};

#[test]
fn city_generation_is_deterministic() {
    let a = Scenario::city(300, 6, Scenario::default_city_area(6), 17);
    let b = Scenario::city(300, 6, Scenario::default_city_area(6), 17);
    assert_eq!(
        a, b,
        "scenario construction must be a pure function of seed"
    );
    assert_eq!(a.build_layout(), b.build_layout());
    let la = a.build_layout();
    assert_eq!(
        ClusterSet::decompose(&la, &a),
        ClusterSet::decompose(&b.build_layout(), &b)
    );
}

/// Reports and the final backlog agree at every worker count, including
/// uneven splits (3 workers over 5 partitions) and more workers than
/// partitions (16), where the calling thread's chunk and both per-slot
/// fan-outs cover the tail.
#[test]
fn worker_count_does_not_change_results() {
    for (users, bs) in [(240, 6), (200, 5)] {
        let mut s = Scenario::city(users, bs, Scenario::default_city_area(bs), 23);
        s.horizon = 15;
        let mut runs = Vec::new();
        for workers in [1usize, 2, 3, 4, 16] {
            let mut sim = CitySim::with_workers(&s, workers).expect("city path builds");
            let solvers = sim.controller().solver_count();
            assert!(
                solvers >= 2,
                "need several clusters for the parallelism to be real"
            );
            assert!(solvers < 16, "want more workers than partitions");
            if bs == 5 {
                let chunk = solvers.div_ceil(3);
                assert_ne!(solvers % chunk, 0, "3 workers must split unevenly");
            }
            let reports = sim.run().expect("run completes");
            runs.push((workers, reports, sim.controller().total_data_backlog()));
        }
        let (_, reports, backlog) = &runs[0];
        for (workers, r, b) in &runs[1..] {
            assert_eq!(reports, r, "{bs} BSs: 1 vs {workers} workers diverged");
            assert_eq!(
                backlog, b,
                "{bs} BSs: 1 vs {workers} workers: final backlog diverged"
            );
        }
    }
}

#[test]
fn repeat_city_runs_are_bit_identical() {
    let mut s = Scenario::city(120, 3, Scenario::default_city_area(3), 31);
    s.horizon = 10;
    let mut first = CitySim::new(&s).expect("city path builds");
    let mut second = CitySim::new(&s).expect("city path builds");
    let a = first.run().expect("first run completes");
    let b = second.run().expect("second run completes");
    assert_eq!(a, b);
}
