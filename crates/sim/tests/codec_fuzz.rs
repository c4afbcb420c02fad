//! Fuzzed file images: bytes read back from disk must never cause a
//! panic. Valid snapshot, manifest and result images are truncated,
//! bit-flipped or have their lines swapped; each mutant must either fail
//! with a typed `CorruptSnapshot` / `SnapshotVersionMismatch` or decode
//! to exactly what the intact image decodes to. Snapshots go through
//! `SimSnapshot::parse_str`, manifests through `run_worker`, and results
//! through a resumed in-process sweep.

use greencell_sim::{
    run_sweep_checkpointed, run_sweep_checkpointed_stats, run_worker, DistribStats, Scenario,
    SimError, SimSnapshot, Simulator, SweepOptions, SweepPoint, SweepReport,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

/// Applies mutation `op` to `image`: 0 truncates at `pos`, 1 flips one
/// bit at `pos`, 2 swaps two lines, 3 flips a run of up to 8 bits.
fn mutate(image: &[u8], op: u8, pos: u64, bit: u8) -> Vec<u8> {
    let at = usize::try_from(pos % image.len() as u64).expect("fits");
    let mut out = image.to_vec();
    match op {
        0 => out.truncate(at),
        1 => out[at] ^= 1 << (bit % 8),
        2 => {
            let mut lines: Vec<&[u8]> = image.split(|&b| b == b'\n').collect();
            let n = lines.len();
            lines.swap(at % n, (at / 7 + 1) % n);
            out = lines.join(&b'\n');
        }
        _ => {
            for (k, byte) in out
                .iter_mut()
                .skip(at)
                .take(usize::from(bit % 8) + 1)
                .enumerate()
            {
                *byte ^= 1 << (k % 8);
            }
        }
    }
    out
}

fn is_typed_rejection(e: &SimError) -> bool {
    matches!(
        e,
        SimError::CorruptSnapshot { .. } | SimError::SnapshotVersionMismatch { .. }
    )
}

fn points() -> Vec<SweepPoint> {
    (0..2)
        .map(|i| {
            let mut s = Scenario::tiny(500 + i);
            s.horizon = 8;
            SweepPoint::new(format!("fuzz-{i}"), s)
        })
        .collect()
}

/// The files of a finished two-point sweep, and its report.
struct Swept {
    manifest: Vec<u8>,
    results: [Vec<u8>; 2],
    report: SweepReport,
}

fn swept() -> &'static Swept {
    static SWEPT: OnceLock<Swept> = OnceLock::new();
    SWEPT.get_or_init(|| {
        let dir = work_dir("source");
        let report =
            run_sweep_checkpointed(&points(), &SweepOptions::serial(), &dir).expect("sweep");
        let read = |path: PathBuf| std::fs::read(path).expect("read image");
        let swept = Swept {
            manifest: read(dir.join("manifest.json")),
            results: [0, 1].map(|i| read(result_path(&dir, i))),
            report,
        };
        std::fs::remove_dir_all(&dir).expect("cleanup");
        swept
    })
}

/// A fresh work dir (empty `claims/`, `results/` and `stats/`) for one
/// case.
fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("greencell-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for sub in ["claims", "results", "stats"] {
        std::fs::create_dir_all(dir.join(sub)).expect("work dir");
    }
    dir
}

fn result_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join("results").join(format!("p{idx}.json"))
}

fn snapshot_image() -> &'static str {
    static IMAGE: OnceLock<String> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut sim = Simulator::new(&Scenario::tiny(41)).expect("builds");
        for _ in 0..5 {
            sim.step().expect("slot steps");
        }
        sim.snapshot().to_file_string()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_snapshot_images_are_rejected_or_decode_equal(
        op in 0u8..4,
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let image = snapshot_image();
        let mutant = mutate(image.as_bytes(), op, pos, bit);
        match SimSnapshot::parse_str(&String::from_utf8_lossy(&mutant), "fuzz.snap") {
            Ok(snap) => prop_assert_eq!(snap.to_file_string(), image.to_string()),
            Err(e) => prop_assert!(is_typed_rejection(&e), "untyped error {e:?}"),
        }
    }

    #[test]
    fn workers_reject_mutated_manifests_or_read_them_equal(
        op in 0u8..4,
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let swept = swept();
        let dir = work_dir("manifest");
        std::fs::write(dir.join("manifest.json"), mutate(&swept.manifest, op, pos, bit))
            .expect("write mutant");
        for (idx, image) in swept.results.iter().enumerate() {
            std::fs::write(result_path(&dir, idx), image).expect("write result");
        }
        let outcome = run_worker(&dir, "fuzz", Duration::ZERO, Duration::from_millis(1));
        std::fs::remove_dir_all(&dir).expect("cleanup");
        match outcome {
            // Every stored result verified against the decoded manifest:
            // it names the same points, fingerprints included.
            Ok(stats) => {
                prop_assert_eq!(stats.computed, 0);
                prop_assert_eq!(stats.requeued, 0);
            }
            Err(e) => prop_assert!(is_typed_rejection(&e), "untyped error {e:?}"),
        }
    }

    #[test]
    fn resumed_sweeps_quarantine_mutated_results_or_salvage_them_equal(
        op in 0u8..4,
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let swept = swept();
        let dir = work_dir("result");
        std::fs::write(result_path(&dir, 0), mutate(&swept.results[0], op, pos, bit))
            .expect("write mutant");
        std::fs::write(result_path(&dir, 1), &swept.results[1]).expect("write result");
        let (report, stats) =
            run_sweep_checkpointed_stats(&points(), &SweepOptions::serial(), &dir)
                .expect("a damaged result is never fatal");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        prop_assert_eq!(report.stability_json(), swept.report.stability_json());
        if stats.salvaged == 2 {
            prop_assert_eq!(&report.outcomes, &swept.report.outcomes);
        } else {
            let quarantined = DistribStats { salvaged: 1, computed: 1, requeued: 1, ..DistribStats::default() };
            prop_assert_eq!(stats, quarantined);
            for (a, b) in report.outcomes.iter().zip(&swept.report.outcomes) {
                prop_assert_eq!(&a.metrics, &b.metrics);
            }
        }
    }
}
