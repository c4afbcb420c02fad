//! The `greencell` command-line interface: one binary for running
//! scenarios, regenerating every paper figure, and sweeping the extension
//! knobs. Run `greencell help` for usage.

use greencell::cli::{parse, Action, Command, USAGE};
use greencell::sim::{
    experiments, report, FaultSpec, Scenario, Simulator, SweepOptions, SweepPoint, SweepReport,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if command.action == Action::Help {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = dispatch(&command) {
        eprintln!("error: {e}");
        std::process::exit(if e.is::<Divergent>() { 2 } else { 1 });
    }
}

fn dispatch(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    match cmd.action {
        Action::Help => unreachable!("handled in main"),
        Action::Run => run_once(cmd),
        Action::Fig2a => fig2a(cmd),
        Action::Fig2bc => fig2bc(cmd),
        Action::Fig2de => fig2de(cmd),
        Action::Fig2f => fig2f(cmd),
        Action::Sweeps => sweeps(cmd),
        Action::FaultSweep => fault_sweep(cmd),
        Action::Trace => trace(cmd),
        Action::Serve => serve(cmd),
        Action::Frontier => frontier(cmd),
        Action::SweepWorker => sweep_worker(cmd),
    }
}

fn frontier(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    use greencell::sim::{DistribOptions, FrontierEngine, FrontierOptions, WorkerCommand};
    let options = FrontierOptions {
        v_min: cmd.frontier.v_min,
        v_max: cmd.frontier.v_max,
        max_gap: cmd.frontier.max_gap,
        budget: cmd.frontier.budget,
        init_points: cmd.frontier.init_points,
    };
    let engine = if cmd.frontier.procs == 0 {
        FrontierEngine::InProcess(SweepOptions::from_env())
    } else {
        let work_dir = cmd.frontier.work_dir.clone().unwrap_or_else(|| {
            let base = cmd.out_dir.clone().unwrap_or_else(|| "results".into());
            format!("{base}/frontier_work")
        });
        // Workers are this same binary re-invoked in its hidden
        // sweep-worker mode.
        let worker = WorkerCommand::current_exe(vec!["sweep-worker".into()])?;
        FrontierEngine::Distributed {
            opts: DistribOptions::new(cmd.frontier.procs, worker),
            work_dir: std::path::PathBuf::from(work_dir),
        }
    };
    let map = greencell_sim::run_frontier(&cmd.scenario, &options, &engine)?;
    println!(
        "# frontier — avg energy cost vs avg total backlog across V \
         ({} point(s), {} refinement round(s), {}, worst gap {:.4})",
        map.stats.sims_run,
        map.stats.rounds,
        if map.stats.converged {
            "converged"
        } else {
            "budget exhausted"
        },
        map.stats.worst_gap,
    );
    println!(
        "{:>14} {:>14} {:>16} {:>6}",
        "V", "avg cost", "avg backlog", "round"
    );
    for p in &map.points {
        println!(
            "{:>14.6e} {:>14.6} {:>16.2} {:>6}",
            p.v, p.avg_cost, p.avg_backlog, p.round
        );
    }
    write_artifacts(
        cmd,
        &[("frontier.json", &map.json()), ("frontier.csv", &map.csv())],
    )
}

fn sweep_worker(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let dir = cmd
        .worker
        .dir
        .as_ref()
        .ok_or("sweep-worker needs --dir <work_dir>")?;
    let stats = greencell_sim::run_worker(
        std::path::Path::new(dir),
        &cmd.worker.id,
        std::time::Duration::from_millis(cmd.worker.stale_after_ms),
        std::time::Duration::from_millis(cmd.worker.poll_ms),
    )?;
    eprintln!(
        "sweep-worker {}: claimed {} computed {} steals {} requeued {}",
        cmd.worker.id, stats.claimed, stats.computed, stats.steals, stats.requeued
    );
    Ok(())
}

fn serve(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let config = greencell::sim::ServeConfig {
        snapshot_every: cmd.serve.snapshot_every,
        status_every: cmd.serve.status_every,
        error_budget: cmd.serve.error_budget,
        state_dir: cmd.serve.state_dir.as_ref().map(std::path::PathBuf::from),
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let summary = greencell::sim::run_serve(&cmd.scenario, &config, stdin.lock(), &mut stdout)?;
    eprintln!(
        "serve: {} slot(s) stepped ({} total), {} line(s) rejected, {} snapshot(s), stopped: {}",
        summary.slots_stepped,
        summary.total_slots,
        summary.rejected_lines,
        summary.snapshots_written,
        summary.stop_reason.as_str()
    );
    if summary.stop_reason == greencell::sim::StopReason::ErrorBudgetExhausted {
        return Err("serve stopped: malformed-input budget exhausted".into());
    }
    Ok(())
}

/// Worker count the traced run is checked against (the serial run is the
/// reference).
const TRACE_CHECK_WORKERS: usize = 4;

/// Traces two points (the seed and seed + 1, so the merge path runs),
/// checks the determinism contract — the chrome-trace JSON parses and the
/// deterministic section is byte-identical at 1 and 4 workers — and
/// writes `trace_<preset>{.json,_deterministic.json,_timeseries.csv}`.
fn trace(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let seed = cmd.scenario.seed;
    let mut alt = cmd.scenario.clone();
    alt.seed = seed.wrapping_add(1);
    let points = [
        SweepPoint::new(format!("{}_seed{seed}", cmd.preset), cmd.scenario.clone()),
        SweepPoint::new(format!("{}_seed{}", cmd.preset, alt.seed), alt),
    ];
    eprintln!(
        "trace: {} scenario, horizon {}, seed {seed}, determinism check 1 vs {TRACE_CHECK_WORKERS} workers",
        cmd.preset, cmd.scenario.horizon
    );
    let run = greencell::sim::check_trace_determinism(
        &points,
        TRACE_CHECK_WORKERS,
        greencell_trace::RingSink::DEFAULT_CAPACITY,
    )?;
    eprintln!(
        "determinism check passed: deterministic section byte-identical at 1 and \
         {TRACE_CHECK_WORKERS} workers; chrome trace JSON parses"
    );
    let dir = cmd.out_dir.clone().unwrap_or_else(|| "results".into());
    let paths = greencell::sim::write_trace_artifacts(&run.bundle, &dir, cmd.preset)?;
    for p in &paths {
        eprintln!("wrote {}", p.display());
    }
    println!("{}", run.bundle.summary().render());
    for o in &run.report.outcomes {
        println!(
            "{}: avg cost {:.6}, delivered {}, {:.0} slots/s",
            o.label,
            o.metrics.average_cost(),
            o.metrics.delivered(),
            o.telemetry.slots_per_sec
        );
    }
    Ok(())
}

fn run_once(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = Simulator::new(&cmd.scenario)?;
    let metrics = sim.run()?.clone();
    println!(
        "scenario: {} nodes, {} sessions, {} slots, V={:.3e}, seed {}",
        sim.network().topology().len(),
        sim.network().session_count(),
        cmd.scenario.horizon,
        cmd.scenario.v,
        cmd.scenario.seed,
    );
    println!("avg energy cost f(P): {:.6}", metrics.average_cost());
    println!(
        "grid drawn total:     {:.4} kWh",
        metrics.grid_series().values().iter().sum::<f64>()
    );
    println!(
        "delivered:            {} packets (fairness {:.3})",
        metrics.delivered(),
        metrics.delivery_fairness()
    );
    println!(
        "peak backlogs:        BS {:.0}, users {:.0} packets",
        metrics.backlog_bs_series().max().unwrap_or(0.0),
        metrics.backlog_users_series().max().unwrap_or(0.0)
    );
    println!(
        "cost per slot:        {}",
        report::sparkline(metrics.cost_series())
    );
    println!(
        "BS backlog:           {}",
        report::sparkline(metrics.backlog_bs_series())
    );
    if let Some(bound) = metrics.lower_bound() {
        println!("lower bound ψ̄ − B/V:  {bound:.3e}");
    }
    let watchdog = sim.watchdog().report();
    println!(
        "watchdog:             {} slots, trailing slope {:+.3e} packets/slot, {}",
        watchdog.slots,
        watchdog.trailing_slope,
        if watchdog.stable {
            "stable"
        } else {
            "divergent"
        }
    );
    if metrics.shed() > 0 {
        println!("WARNING: {} transmissions shed", metrics.shed());
    }
    Ok(())
}

/// Writes a sweep's wall-clock telemetry as `<stem>_telemetry.{json,csv}`
/// into the `--out` directory, if one was given.
fn write_telemetry(
    cmd: &Command,
    report: &SweepReport,
    stem: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(dir) = &cmd.out_dir {
        let (json, csv) = greencell::sim::write_telemetry(report, dir, stem)?;
        eprintln!(
            "telemetry: {} and {} ({:.2}s total)",
            json.display(),
            csv.display(),
            report.total_wall.as_secs_f64()
        );
    }
    Ok(())
}

fn fig2a(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let v_values = cmd
        .v_values
        .clone()
        .unwrap_or_else(|| (1..=10).map(|k| k as f64 * 1e5).collect());
    let opts = sweep_options("fig2a", cmd);
    let (rows, telemetry) = experiments::fig2a_with(&cmd.scenario, &v_values, &opts)?;
    println!("# Fig 2(a) — time-averaged expected energy cost bounds vs V");
    print!("{}", report::bounds_table(&rows));
    let tight = rows
        .windows(2)
        .all(|w| (w[1].upper - w[1].lower) <= (w[0].upper - w[0].lower) + 1e-9);
    println!("# gap monotonically tightening with V: {tight}");
    let mut csv = String::from("v,upper_cost,lower_cost,relaxed_cost,gap,upper_psi,lower_psi\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.v, r.upper, r.lower, r.relaxed_cost, r.gap, r.upper_psi, r.lower_psi
        ));
    }
    write_artifacts(cmd, &[("fig2a.csv", &csv)])?;
    write_telemetry(cmd, &telemetry, "fig2a")
}

fn fig2bc(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let v_values = cmd
        .v_values
        .clone()
        .unwrap_or_else(|| (1..=5).map(|k| k as f64 * 1e5).collect());
    let opts = sweep_options("fig2bc", cmd);
    let (rows, telemetry) = experiments::fig2bc_with(&cmd.scenario, &v_values, &opts)?;
    let (bs, users) = report::backlog_csv(&rows)?;
    println!("# Fig 2(b) — total data queue backlog of base stations (packets)");
    print!("{bs}");
    println!("# Fig 2(c) — total data queue backlog of mobile users (packets)");
    print!("{users}");
    for r in &rows {
        println!(
            "# V={:.0e}: BS final={:.0} peak={:.0}; users final={:.0} peak={:.0}",
            r.v,
            r.bs.last().unwrap_or(0.0),
            r.bs.max().unwrap_or(0.0),
            r.users.last().unwrap_or(0.0),
            r.users.max().unwrap_or(0.0),
        );
        println!("#   BS    {}", report::sparkline(&r.bs));
        println!("#   users {}", report::sparkline(&r.users));
    }
    write_artifacts(cmd, &[("fig2b.csv", &bs), ("fig2c.csv", &users)])?;
    write_telemetry(cmd, &telemetry, "fig2bc")
}

fn fig2de(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let v_values = cmd
        .v_values
        .clone()
        .unwrap_or_else(|| (1..=5).map(|k| k as f64 * 1e5).collect());
    // Start buffers empty so the fill-up dynamics of Fig. 2(d)/(e) show.
    let mut scenario = cmd.scenario.clone();
    scenario.initial_battery_fraction = 0.0;
    let opts = sweep_options("fig2de", cmd);
    let (rows, telemetry) = experiments::fig2de_with(&scenario, &v_values, &opts)?;
    let (bs, users) = report::buffer_csv(&rows)?;
    println!("# Fig 2(d) — total energy buffer size of base stations (kWh)");
    print!("{bs}");
    println!("# Fig 2(e) — total energy buffer size of mobile users (Wh)");
    print!("{users}");
    for r in &rows {
        println!(
            "# V={:.0e}: BS final={:.3} kWh; users final={:.1} Wh",
            r.v,
            r.bs_kwh.last().unwrap_or(0.0),
            r.users_wh.last().unwrap_or(0.0),
        );
        println!("#   BS    {}", report::sparkline(&r.bs_kwh));
        println!("#   users {}", report::sparkline(&r.users_wh));
    }
    write_artifacts(cmd, &[("fig2d.csv", &bs), ("fig2e.csv", &users)])?;
    write_telemetry(cmd, &telemetry, "fig2de")
}

fn fig2f(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let v_values = cmd.v_values.clone().unwrap_or_else(|| vec![1e5, 3e5, 5e5]);
    // Apply the documented Fig 2(f) calibration unless the user changed
    // those fields themselves.
    let mut scenario = cmd.scenario.clone();
    let defaults = Scenario::paper(scenario.seed);
    if scenario.noise_density == defaults.noise_density {
        let calibrated = Scenario::fig2f_calibrated(scenario.seed);
        scenario.noise_density = calibrated.noise_density;
        scenario.recv_power = calibrated.recv_power;
        scenario.initial_battery_fraction = calibrated.initial_battery_fraction;
    }
    let opts = sweep_options("fig2f", cmd);
    let (rows, telemetry) = experiments::fig2f_with(&scenario, &v_values, &opts)?;
    println!("# Fig 2(f) — time-averaged expected energy cost by architecture");
    print!("{}", report::architecture_table(&rows, &v_values));
    let ours: f64 = rows[0].costs.iter().sum();
    let best_other = rows[1..]
        .iter()
        .map(|r| r.costs.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    println!(
        "# proposed beats best baseline: {} ({}).",
        ours <= best_other,
        if best_other > 0.0 {
            format!("ratio {:.3}", ours / best_other)
        } else {
            "baseline cost is zero".to_string()
        }
    );
    write_telemetry(cmd, &telemetry, "fig2f")
}

fn sweeps(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let base = &cmd.scenario;
    let opts = sweep_options("sweeps", cmd);
    let mut combined = SweepReport {
        outcomes: Vec::new(),
        threads: opts.threads,
        total_wall: std::time::Duration::ZERO,
    };
    let mut absorb = |part: SweepReport| {
        combined.outcomes.extend(part.outcomes);
        combined.total_wall += part.total_wall;
    };
    for (title, xlabel, (points, telemetry)) in [
        (
            "user-count sweep (relay density)",
            "users",
            experiments::sweep_users_with(base, &[5, 10, 20, 40], &opts)?,
        ),
        (
            "session-count sweep (offered load)",
            "sessions",
            experiments::sweep_sessions_with(base, &[2, 5, 10, 15], &opts)?,
        ),
        (
            "extra-band sweep (spectrum supply)",
            "bands",
            experiments::sweep_bands_with(base, &[0, 2, 4, 8], &opts)?,
        ),
    ] {
        println!("# {title}");
        println!(
            "{xlabel:>10} {:>12} {:>12} {:>14} {:>10}",
            "avg cost", "delivered", "peak backlog", "links/slot"
        );
        for p in &points {
            println!(
                "{:>10} {:>12.6} {:>12} {:>14.0} {:>10.2}",
                p.x, p.avg_cost, p.delivered, p.peak_backlog, p.mean_scheduled
            );
        }
        println!();
        absorb(telemetry);
    }
    let (rep, telemetry) = experiments::replicate_with(base, &[1, 7, 13, 42, 99], &opts)?;
    println!("# replication across seeds {:?}", rep.seeds);
    println!(
        "cost {:.6} ± {:.6}; delivered {:.0}; peak backlog {:.0}",
        rep.mean_cost, rep.std_cost, rep.mean_delivered, rep.mean_peak_backlog
    );
    absorb(telemetry);
    write_telemetry(cmd, &combined, "sweeps")
}

/// The watchdog flagged a fault scenario as divergent (exit code 2).
#[derive(Debug)]
struct Divergent;

impl std::fmt::Display for Divergent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault-sweep: watchdog flagged divergence")
    }
}

impl std::error::Error for Divergent {}

/// Robustness sweep: a fault-free baseline plus four fault scenarios —
/// bursty BS outages, a renewable drought, a grid price spike, and
/// spectrum band loss — each with its watchdog verdict.
fn fault_sweep(cmd: &Command) -> Result<(), Box<dyn std::error::Error>> {
    let horizon = cmd.scenario.horizon;
    let points: Vec<SweepPoint> = [
        ("baseline", None),
        ("bs_outage", Some(FaultSpec::bs_outage())),
        (
            "renewable_drought",
            Some(FaultSpec::renewable_drought(horizon / 4, horizon / 2)),
        ),
        (
            "price_spike",
            Some(FaultSpec::price_spike(horizon / 4, horizon / 2, 6.0)),
        ),
        ("band_loss", Some(FaultSpec::band_loss())),
    ]
    .into_iter()
    .map(|(label, faults)| {
        let mut s = cmd.scenario.clone();
        s.faults = faults;
        SweepPoint::new(label, s)
    })
    .collect();
    let opts = sweep_options("fault-sweep", cmd);
    let report = greencell::sim::run_sweep(&points, &opts)?;
    println!(
        "{:<20} {:>10} {:>10} {:>8} {:>12} {:>12} {:>10}",
        "scenario", "degraded", "events", "shed", "avg cost", "slope", "verdict"
    );
    let mut all_stable = true;
    for o in &report.outcomes {
        let t = &o.telemetry;
        let w = &t.watchdog;
        all_stable &= w.stable;
        println!(
            "{:<20} {:>10} {:>10} {:>8} {:>12.6} {:>12.3} {:>10}",
            o.label,
            t.degraded_slots,
            t.degradation_events,
            o.metrics.shed(),
            o.metrics.average_cost(),
            w.trailing_slope,
            if w.stable { "stable" } else { "DIVERGENT" },
        );
    }
    // The stability record is deterministic (byte-identical across worker
    // counts); the telemetry holds wall-clock times.
    write_artifacts(
        cmd,
        &[("fault_sweep_stability.json", &report.stability_json())],
    )?;
    write_telemetry(cmd, &report, "fault_sweep")?;
    if all_stable {
        Ok(())
    } else {
        Err(Box::new(Divergent))
    }
}

/// The sweep engine's options (`GREENCELL_THREADS` workers), announced in
/// a one-line banner on stderr.
fn sweep_options(action: &str, cmd: &Command) -> SweepOptions {
    let opts = SweepOptions::from_env();
    eprintln!(
        "{action}: {} scenario, seed {}, horizon {}, {} worker(s)",
        cmd.preset, cmd.scenario.seed, cmd.scenario.horizon, opts.threads
    );
    opts
}

fn write_artifacts(
    cmd: &Command,
    files: &[(&str, &str)],
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(dir) = &cmd.out_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)?;
        for (name, contents) in files {
            greencell_sim::write_text_atomic(&dir.join(name), contents)?;
        }
        eprintln!("wrote {} file(s) to {}", files.len(), dir.display());
    }
    Ok(())
}
