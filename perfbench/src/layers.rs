//! Per-layer figures shared by the dense workloads (`paper`, `fig2`).

use crate::stats::Samples;
use crate::Report;
use greencell_core::{Controller, SlotReport};

/// Timings of `sim.engine` and `core.controller` with its stages, from
/// passes that record a `Simulator` run and replay its observations
/// through a fresh `Controller`.
#[derive(Default)]
pub struct DenseLayers {
    setup_s: Samples,
    step_us: Samples,
    engine_self_us: Samples,
    /// S1–S4 and the state advance, as shares of `Controller::step` time.
    busy: [Samples; 5],
}

impl DenseLayers {
    /// One `Simulator::new`.
    pub fn setup(&mut self, seconds: f64) {
        self.setup_s.push(seconds);
    }

    /// One replayed `Controller::step`.
    pub fn step(&mut self, us: f64) {
        self.step_us.push(us);
    }

    /// Closes a pass over `slots` recorded slots: `recorded` is the
    /// `run_recording` wall time, `stepped` the summed replayed
    /// `Controller::step` time, `other` the replayed time of any other
    /// controller the recording ran (the relaxed one), and `ctls` the
    /// replaying controllers, whose stage timings are read.
    pub fn pass<'a>(
        &mut self,
        slots: usize,
        recorded: f64,
        stepped: f64,
        other: f64,
        ctls: impl IntoIterator<Item = &'a Controller>,
    ) {
        let mut stages = [0.0; 4];
        for ctl in ctls {
            let st = ctl.stage_timings();
            for (acc, d) in stages.iter_mut().zip([st.s1, st.s2, st.s3, st.s4]) {
                *acc += d.as_secs_f64();
            }
        }
        self.engine_self_us
            .push((recorded - stepped - other) / slots as f64 * 1e6);
        for (busy, s) in self.busy.iter_mut().zip(stages) {
            busy.push(s / stepped);
        }
        self.busy[4].push((stepped - stages.iter().sum::<f64>()) / stepped);
    }

    pub fn report(&self, report: &mut Report) {
        let (setup, step) = (&self.setup_s, &self.step_us);
        report.metric("engine.setup_s", setup.median(), setup.len());
        let own = &self.engine_self_us;
        report.metric("engine.self_us_per_slot", own.median(), own.len());
        report.metric("controller.step_us_p50", step.median(), step.len());
        report.metric("controller.step_us_p90", step.quantile(0.9), step.len());
        let names = [
            "s1.busy_frac",
            "s2.busy_frac",
            "s3.busy_frac",
            "s4.busy_frac",
            "advance.busy_frac",
        ];
        for (name, busy) in names.into_iter().zip(&self.busy) {
            report.metric(name, busy.median(), busy.len());
        }
    }
}

/// Exact per-stage work counts read from `SlotReport`s.
///
/// These are deterministic functions of the inputs: a pure speed-up must
/// leave every one of them bit-identical, and the benchmark fails a run in
/// which two executions of the same inputs disagree.

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    slots: u64,
    links: u64,
    admitted: u64,
    routed: u64,
    grid_kwh: f64,
    shed: u64,
    degraded: u64,
}

impl Counts {
    pub fn add(&mut self, r: &SlotReport) {
        self.slots += 1;
        self.links += r.scheduled_links as u64;
        self.admitted += r.admitted.count();
        self.routed += r.routed.count();
        self.grid_kwh += r.grid_draw.as_kilowatt_hours();
        self.shed += r.shed_transmissions as u64;
        self.degraded += u64::from(!r.degradation.is_empty());
    }

    pub fn of(reports: &[SlotReport]) -> Self {
        let mut c = Self::default();
        reports.iter().for_each(|r| c.add(r));
        c
    }

    /// Fails the run unless `self` repeats the first execution's counts.
    pub fn agree(first: &mut Option<Self>, this: Self, what: &str, report: &mut Report) {
        match first {
            None => *first = Some(this),
            Some(prev) if *prev == this => {}
            Some(prev) => report.problem(format!(
                "{what}: exact counts did not repeat ({prev:?} then {this:?})"
            )),
        }
    }

    pub fn report(&self, report: &mut Report) {
        let n = self.slots as usize;
        let per_slot = |x: f64| x / self.slots.max(1) as f64;
        report.metric("s1.links_per_slot", per_slot(self.links as f64), n);
        report.metric("s2.admitted_per_slot", per_slot(self.admitted as f64), n);
        report.metric("s3.routed_per_slot", per_slot(self.routed as f64), n);
        report.metric("s4.grid_kwh_per_slot", per_slot(self.grid_kwh), n);
        report.metric("s1.shed_total", self.shed as f64, n);
        report.metric("s4.degraded_slots", self.degraded as f64, n);
    }
}
