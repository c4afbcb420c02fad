//! Resumable-sweep equivalence: an in-process sweep over a work dir that
//! is killed partway and restarted must produce final reports
//! **byte-identical** to a never-interrupted sweep — at any interruption
//! point and any thread count — and a corrupt, torn or stale result file
//! must be quarantined and its point recomputed alone, never trusted and
//! never fatal.

use greencell_sim::{
    derive_point_seed, run_sweep, run_sweep_checkpointed, run_sweep_checkpointed_stats,
    DistribStats, Scenario, SweepOptions, SweepPoint, SweepReport,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("greencell-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A small heterogeneous sweep: varying seeds, horizons, and V weights,
/// with per-point seeds derived the same way the structural sweeps do.
fn points() -> Vec<SweepPoint> {
    (0..5)
        .map(|i| {
            let mut s = Scenario::tiny(derive_point_seed(90, i as u64));
            s.horizon = 10 + 2 * (i % 3);
            s.v *= (i + 1) as f64;
            SweepPoint::new(format!("point-{i}"), s)
        })
        .collect()
}

fn result_file(work_dir: &Path, idx: usize) -> PathBuf {
    work_dir.join("results").join(format!("p{idx}.json"))
}

fn expect_stats(stats: &DistribStats, salvaged: usize, computed: usize, requeued: usize) {
    let want = DistribStats {
        salvaged,
        computed,
        requeued,
        ..DistribStats::default()
    };
    assert_eq!(*stats, want, "resume stats");
}

/// The deterministic artifact is byte-identical and the full outcome set
/// (metrics included) matches point for point.
fn assert_matches(resumed: &SweepReport, reference: &SweepReport, context: &str) {
    assert_eq!(
        resumed.stability_json(),
        reference.stability_json(),
        "stability report diverged ({context})"
    );
    assert_eq!(resumed.outcomes.len(), reference.outcomes.len());
    for (a, b) in resumed.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.metrics, b.metrics, "metrics diverged for {}", a.label);
    }
}

/// Simulates a crash after `completed` points by sweeping a prefix of the
/// list, then "restarts" over the full list against the same work dir.
fn interrupt_then_resume(completed: usize, resume_threads: usize) {
    let dir = temp_dir(&format!("k{completed}-t{resume_threads}"));
    let all = points();
    let reference = run_sweep(&all, &SweepOptions::serial()).expect("reference sweep");

    // The "crashed" invocation: only the first `completed` points ever
    // ran, each landing in the work dir as it finished.
    run_sweep_checkpointed(&all[..completed], &SweepOptions::serial(), &dir)
        .expect("interrupted sweep");

    let (resumed, stats) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::with_threads(resume_threads), &dir)
            .expect("resumed sweep");
    expect_stats(&stats, completed, all.len() - completed, 0);
    assert_matches(
        &resumed,
        &reference,
        &format!("interrupted at {completed}, {resume_threads} threads"),
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resumed_sweep_is_byte_identical_at_every_interruption_point() {
    for completed in 0..points().len() {
        interrupt_then_resume(completed, 1);
    }
}

#[test]
fn resumed_sweep_is_byte_identical_at_any_worker_count() {
    for threads in [2, 4] {
        interrupt_then_resume(2, threads);
    }
}

/// Damages result file `victim` of a 3-point interrupted sweep with
/// `damage`, resumes the full sweep, and checks that exactly that file was
/// quarantined and its point recomputed alongside the never-run ones.
fn damaged_result_is_quarantined(tag: &str, victim: usize, damage: impl Fn(&[u8]) -> Vec<u8>) {
    let dir = temp_dir(tag);
    let all = points();
    let reference = run_sweep(&all, &SweepOptions::serial()).expect("reference sweep");

    run_sweep_checkpointed(&all[..3], &SweepOptions::serial(), &dir).expect("interrupted sweep");
    let path = result_file(&dir, victim);
    let bytes = std::fs::read(&path).expect("read result");
    let damaged = damage(&bytes);
    std::fs::write(&path, &damaged).expect("damage result");

    let (resumed, stats) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::serial(), &dir).expect("resumed sweep");
    expect_stats(&stats, 2, all.len() - 2, 1);
    let quarantine = dir.join("results").join(format!("p{victim}.json.corrupt"));
    assert_eq!(
        std::fs::read(&quarantine).expect("quarantined file kept"),
        damaged,
        "the quarantined file is the damaged one, untouched"
    );
    assert_matches(&resumed, &reference, tag);
    // The recomputed result replaced it and salvages on the next run.
    let (_, again) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::serial(), &dir).expect("third sweep");
    expect_stats(&again, all.len(), 0, 0);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn bit_flipped_result_is_quarantined_and_recomputed_alone() {
    // Flip a payload byte: the checksum must catch it.
    damaged_result_is_quarantined("bitflip", 1, |bytes| {
        let payload_start = bytes.iter().position(|&b| b == b'\n').expect("two lines") + 1;
        let mut out = bytes.to_vec();
        out[payload_start + 60] ^= 0x01;
        out
    });
}

#[test]
fn torn_result_is_quarantined_not_fatal() {
    damaged_result_is_quarantined("torn", 2, |bytes| bytes[..bytes.len() / 2].to_vec());
}

#[test]
fn finished_work_dir_resumes_to_identical_reports_without_rerunning() {
    let dir = temp_dir("finished");
    let all = points();
    let first =
        run_sweep_checkpointed(&all, &SweepOptions::with_threads(3), &dir).expect("first sweep");
    let (second, stats) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::serial(), &dir).expect("second sweep");
    expect_stats(&stats, all.len(), 0, 0);
    // Everything per-point — metrics *and* wall-clock telemetry — is the
    // persisted original, reproduced exactly. (The report-level wall time
    // and thread count describe *this* invocation and rightly differ.)
    assert_eq!(second.outcomes, first.outcomes);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn edited_point_is_recomputed_alone() {
    let dir = temp_dir("edited");
    let mut all = points();
    run_sweep_checkpointed(&all, &SweepOptions::serial(), &dir).expect("first sweep");
    // Edit one point's scenario: its stored result belongs to a different
    // sweep now, so it is quarantined and recomputed; the rest salvage.
    all[1].scenario.horizon += 5;
    let reference = run_sweep(&all, &SweepOptions::serial()).expect("reference sweep");
    let (resumed, stats) =
        run_sweep_checkpointed_stats(&all, &SweepOptions::serial(), &dir).expect("second sweep");
    expect_stats(&stats, all.len() - 1, 1, 1);
    assert!(dir.join("results").join("p1.json.corrupt").exists());
    assert_matches(&resumed, &reference, "edited point");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
