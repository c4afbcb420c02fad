//! A/B regression gate for the incremental S1 power-control kernel.
//!
//! The kernel contract: incremental (warm-started) Foschini–Miljanic
//! solves are used only for feasibility *probing* inside the S1 greedy /
//! sequential-fix loops; the final accepted schedule always gets one
//! cold-start `min_power_assignment`. Schedules, powers, telemetry, and
//! the deterministic trace section must therefore be **bit-identical** to
//! the pre-kernel controller.
//!
//! This test pins that promise against golden fingerprints recorded from
//! the pre-kernel controller (commit `f5da312`) on the seed scenarios and
//! the four `greencell fault-sweep` fault scenarios, for both S1
//! schedulers. The fingerprint is the `Debug` rendering of every run's
//! full metric series (per-slot cost, grid draw, backlogs, admissions,
//! routing, scheduling, Lyapunov values — everything decision-derived),
//! which round-trips `f64` bit patterns exactly.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! GREENCELL_BLESS=1 cargo test -p greencell-sim --test s1_kernel_equivalence
//! ```

use greencell_core::SchedulerKind;
use greencell_sim::faults::FaultSpec;
use greencell_sim::{run_sweep, Scenario, SweepOptions, SweepPoint};
use std::path::PathBuf;

const GOLDEN: &str = "golden/s1_kernel_ab.fp";

/// The pinned scenario battery: tiny + paper seeds under both schedulers,
/// plus the four fault scenarios of `greencell fault-sweep` (horizons trimmed so the
/// whole gate stays fast; the trimmed prefix of a longer run is the same
/// sample path, so nothing is lost by pinning the prefix).
fn points() -> Vec<SweepPoint> {
    let mut pts = Vec::new();
    for seed in [500u64, 501, 502] {
        pts.push(SweepPoint::new(
            format!("tiny_greedy_{seed}"),
            Scenario::tiny(seed),
        ));
        let mut s = Scenario::tiny(seed);
        s.scheduler = SchedulerKind::SequentialFix;
        pts.push(SweepPoint::new(format!("tiny_seqfix_{seed}"), s));
    }
    let mut paper = Scenario::paper(42);
    paper.horizon = 60;
    pts.push(SweepPoint::new("paper_greedy", paper.clone()));
    let mut paper_sf = paper.clone();
    paper_sf.scheduler = SchedulerKind::SequentialFix;
    paper_sf.horizon = 12;
    pts.push(SweepPoint::new("paper_seqfix", paper_sf));
    for (label, spec) in [
        ("bs_outage", FaultSpec::bs_outage()),
        ("renewable_drought", FaultSpec::renewable_drought(15, 30)),
        ("price_spike", FaultSpec::price_spike(15, 30, 6.0)),
        ("band_loss", FaultSpec::band_loss()),
    ] {
        let mut s = paper.clone();
        s.faults = Some(spec);
        pts.push(SweepPoint::new(format!("fault_{label}"), s));
    }
    pts
}

/// Everything decision-derived from one run, rendered exactly.
fn fingerprint() -> String {
    let report = run_sweep(&points(), &SweepOptions::with_threads(2)).expect("sweep runs");
    report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{}|seed={}|degraded={}|events={}|stable={}|{:?}",
                o.label,
                o.seed,
                o.telemetry.degraded_slots,
                o.telemetry.degradation_events,
                o.telemetry.watchdog.stable,
                o.metrics,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(GOLDEN)
}

#[test]
fn kernel_matches_pre_kernel_controller_bit_exactly() {
    let actual = fingerprint();
    let path = golden_path();
    if std::env::var_os("GREENCELL_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); re-bless", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        let label = e.split('|').next().unwrap_or("?");
        assert_eq!(
            a, e,
            "scenario #{i} ({label}): run diverged from the pre-kernel controller"
        );
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "scenario battery size changed; re-bless deliberately"
    );
}
