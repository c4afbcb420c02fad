//! The greencell benchmark: four closed-loop workloads driven through the
//! library's public API, timed from this crate only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|fig2|city_large|city_small> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! benchmark's own clocks around whole operations. `--trace 1` is a
//! separate run that times the calls into each layer's public functions
//! and reports the per-layer metrics. Either way every output check runs,
//! failed operations are counted, and the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 only when every check passed.
//!
//! Run lengths are fixed in slots (see each workload module): slot cost
//! grows while queues fill, so a time-boxed trial would let a faster build
//! reach deeper fill and read slower per slot. `--seconds` only sets how
//! many identical fixed-length episodes a run measures, by a fixed rate
//! per workload, so the same arguments always measure the same work.

mod city;
mod fig2;
mod layers;
mod paper;
mod stats;

use std::error::Error;
use std::time::Instant;

/// End-to-end metrics, reported by every workload's untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("slots_per_s", "1/s"),
    ("wall_s", "s"),
    ("slot_p50_us", "us"),
    ("slot_p90_us", "us"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload never calls reports 0 over 0 samples.
const PER_LAYER: [(&str, &str); 35] = [
    ("engine.self_us_per_slot", "us"),
    ("engine.setup_s", "s"),
    ("controller.step_us_p50", "us"),
    ("controller.step_us_p90", "us"),
    ("s1.busy_frac", "frac"),
    ("s2.busy_frac", "frac"),
    ("s3.busy_frac", "frac"),
    ("s4.busy_frac", "frac"),
    ("advance.busy_frac", "frac"),
    ("s1.kernel_us", "us"),
    ("s4.kernel_us.paper", "us"),
    ("s4.kernel_us.n10200", "us"),
    ("s1.links_per_slot", "count"),
    ("s2.admitted_per_slot", "pkt"),
    ("s3.routed_per_slot", "pkt"),
    ("s4.grid_kwh_per_slot", "kWh"),
    ("s1.shed_total", "count"),
    ("s4.degraded_slots", "count"),
    ("relaxed.step_us_p50", "us"),
    ("relaxed.step_us_p90", "us"),
    ("relaxed.share", "frac"),
    ("sweep.points", "count"),
    ("sweep.straggler_ratio", "ratio"),
    ("sweep.parallel_eff", "frac"),
    ("shard.step_us_p50", "us"),
    ("shard.step_us_p50_1w", "us"),
    ("shard.speedup", "ratio"),
    ("shard.serial_frac", "frac"),
    ("shard.obs_us", "us"),
    ("shard.decompose_s", "s"),
    ("shard.clusters", "count"),
    ("shard.largest_cluster", "count"),
    ("shard.occupied_cells", "count"),
    ("shard.redecompositions", "count"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric with the sample count behind it.
struct Metric {
    name: &'static str,
    value: f64,
    samples: usize,
}

/// What a run measured and what its checks found.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: slots, or sweep points for `fig2`.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// Checks that failed, one message each.
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric named in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in BENCHMARK.json"
        );
        if !value.is_finite() {
            self.problem(format!("{name} is not finite ({value})"));
        }
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a failed check that is not tied to one operation.
    pub fn problem(&mut self, message: String) {
        eprintln!("CHECK FAILED: {message}");
        self.problems.push(message);
    }

    /// Counts one failed operation, keeping the first few messages.
    pub fn fail_op(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.problem(message());
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Prints every declared metric of the run's kind, then the JSON line.
    fn print(&mut self, workload: &str, trace: bool) {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for &(name, _) in table {
            if !self.metrics.iter().any(|m| m.name == name) {
                if !trace {
                    self.problem(format!("end-to-end metric {name} was not measured"));
                }
                self.metrics.push(Metric {
                    name,
                    value: 0.0,
                    samples: 0,
                });
            }
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "workload {workload}: attempted {}, failed {} (failed_frac {failed_frac})",
            self.attempted, self.failed
        );
        let mut json = Vec::new();
        for &(name, unit) in table {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect("every declared metric was filled in above");
            let note = if m.samples == 0 {
                " (layer not exercised by this workload)".to_string()
            } else {
                format!(" (n={})", m.samples)
            };
            println!("  {name:<26} {} {unit}{note}", m.value);
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Worker threads for sweeps and city clusters: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The number of identical episodes a run measures: `per_second` episodes
/// for every second of `--seconds` (a rate fitted on the reference host so
/// a run takes about that long), at least `min`. A fixed count, not a time
/// box, so every build measures exactly the same work.
pub fn episodes(seconds: f64, per_second: f64, min: usize) -> usize {
    ((seconds * per_second).round() as usize).max(min)
}

/// The seed of a workload's `k`-th scenario: `seed` itself, then seeds
/// derived from it.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        greencell_sim::derive_point_seed(seed, k as u64)
    }
}

/// Steps a simulation through the slots whose reports are `expected`,
/// timing every step from slot `timed_from` on. A step that errs, or
/// returns a report that differs from the expected one or sheds a
/// transmission (every workload is fault-free), is a failed operation; an
/// error ends the episode and returns `None`.
pub fn timed_slots<E: std::fmt::Display>(
    report: &mut Report,
    what: &str,
    expected: &[greencell_core::SlotReport],
    timed_from: usize,
    mut step: impl FnMut() -> Result<greencell_core::SlotReport, E>,
) -> Option<Vec<f64>> {
    let mut slot_us = Vec::with_capacity(expected.len().saturating_sub(timed_from));
    for (t, want) in expected.iter().enumerate() {
        let start = Instant::now();
        let result = step();
        if t >= timed_from {
            slot_us.push(secs(start) * 1e6);
        }
        report.attempted += 1;
        match result {
            Ok(r) if r == *want && r.shed_transmissions == 0 => {}
            Ok(_) => report.fail_op(|| {
                format!("{what}, slot {t}: report differs from the reference or sheds")
            }),
            Err(e) => {
                report.fail_op(|| format!("{what}, slot {t}: {e}"));
                return None;
            }
        }
    }
    Some(slot_us)
}

/// Median wall time in microseconds of `reps` calls of `f`.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s = stats::Samples::new();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        s.push(secs(t) * 1e6);
    }
    s.median()
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper|fig2|city_large|city_small> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {}, seed {}, {} s, trace {}, {} hardware thread(s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let mut report = Report::default();
    let (seed, seconds, r) = (args.seed, args.seconds, &mut report);
    let result: Result<(), Box<dyn Error>> = match (args.workload.as_str(), args.trace) {
        ("paper", false) => paper::run(seed, seconds, r),
        ("paper", true) => paper::trace(seed, seconds, r),
        // fig2 regenerates the committed figures; see its module docs.
        ("fig2", false) => fig2::run(seconds, r),
        ("fig2", true) => fig2::trace(seconds, r),
        ("city_large", false) => city::run(&city::LARGE, seed, seconds, r),
        ("city_large", true) => city::trace(&city::LARGE, seed, seconds, r),
        ("city_small", false) => city::run(&city::SMALL, seed, seconds, r),
        ("city_small", true) => city::trace(&city::SMALL, seed, seconds, r),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        report.problem(format!("workload aborted: {e}"));
    }
    report.print(&args.workload, args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}
