//! Order statistics over raw samples the benchmark keeps itself.
//!
//! Every timing is a plain `Vec<f64>` of per-operation measurements;
//! percentiles are read from the sorted samples (nearest rank), never from
//! bucketed histograms, so a 10% shift in any quantile shows.

/// Raw samples of one measured quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Per-operation best times over a run's identical episodes.
///
/// Every episode repeats the same inputs, so operation `k` does the same
/// work in each one. The host is shared, and other tenants slow whole
/// stretches of a run by up to ~80% (measured on the reference host: one
/// process's 2000-slot `paper` medians wandering between 118 and 212 µs
/// over seconds). Such load only ever adds time, so the run keeps each
/// operation's minimum across episodes and reports quantiles of those
/// minima: the figures of an uncontended host, which a contended stretch
/// leaves alone as long as one episode saw each operation run clear. Load
/// that lasts the whole run (seen for minutes at ~1.8×) still shows.
///
/// A workload may spread its episodes over several scenarios (one group
/// each, rotating), so a run's figures average over topologies instead of
/// resting on one seed's. Work, wall and set-up time then add up over the
/// groups and the per-operation minima pool.
pub struct Episodes {
    groups: Vec<Group>,
}

struct Group {
    /// Operations timed per episode (slots; for `fig2`, simulated slots).
    work: usize,
    best_us: Vec<f64>,
    best_wall_s: f64,
    best_setup_s: f64,
    setups: usize,
    count: usize,
}

impl Episodes {
    /// `groups` scenarios of `work` timed operations per episode each.
    pub fn new(groups: usize, work: usize) -> Self {
        let group = || Group {
            work,
            best_us: Vec::new(),
            best_wall_s: f64::INFINITY,
            best_setup_s: f64::INFINITY,
            setups: 0,
            count: 0,
        };
        Self {
            groups: (0..groups).map(|_| group()).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Records one set-up of `group`'s scenario.
    pub fn setup(&mut self, group: usize, seconds: f64) {
        let g = &mut self.groups[group];
        g.best_setup_s = g.best_setup_s.min(seconds);
        g.setups += 1;
    }

    /// Records one episode of `group`: its per-operation times, in the same
    /// order every episode, and the wall time of the whole when its
    /// operations overlap (`fig2`'s parallel sweep points). Without one the
    /// episode's wall time is its operations' best times summed: sequential
    /// slots, where one stalled thread wake-up would otherwise set the
    /// figure.
    pub fn push(&mut self, group: usize, wall_s: Option<f64>, op_us: &[f64]) {
        let g = &mut self.groups[group];
        if g.best_us.is_empty() {
            g.best_us = op_us.to_vec();
        }
        assert_eq!(g.best_us.len(), op_us.len(), "episodes differ in length");
        for (best, &x) in g.best_us.iter_mut().zip(op_us) {
            *best = best.min(x);
        }
        g.best_wall_s = match wall_s {
            Some(w) => g.best_wall_s.min(w),
            None => g.best_us.iter().sum::<f64>() / 1e6,
        };
        g.count += 1;
    }

    /// Reports the end-to-end metrics.
    pub fn report(&self, report: &mut crate::Report) {
        let best = Samples(self.groups.iter().flat_map(|g| g.best_us.clone()).collect());
        let work: usize = self.groups.iter().map(|g| g.work).sum();
        let wall: f64 = self.groups.iter().map(|g| g.best_wall_s).sum();
        let setup: f64 = self.groups.iter().map(|g| g.best_setup_s).sum();
        let n = self.len();
        let setups = self.groups.iter().map(|g| g.setups).sum();
        report.metric("setup_s", setup, setups);
        report.metric("slots_per_s", work as f64 / wall, n);
        report.metric("wall_s", wall, n);
        report.metric("slot_p50_us", best.median(), best.len());
        report.metric("slot_p90_us", best.quantile(0.9), best.len());
        println!(
            "  ({n} episodes over {} scenario(s); times are minima across episodes \
             of each of {} timed operations)",
            self.groups.len(),
            best.len()
        );
        if best.len() >= 1000 {
            println!("  (not gated) slot_p99_us {} us", best.quantile(0.99));
        }
    }
}
