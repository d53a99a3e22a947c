//! `fleet-stream`: seeded Poisson job arrivals onto a powercapped fleet
//! over the in-process wire, dual-knob `powercap` policy, RAPL PL1 armed.
//! Capped stepping never takes archsim's fast-forward path, so a stepping
//! change that taxes the capped path shows here. It also runs the EARGM
//! rebalance, SetCap frames through the codec and the FCFS queue, and
//! bypasses the experiment engine and the result cache.
//!
//! The `--uds` wire is not measured: it spawns one server thread per
//! fleet node, more threads than a small host has cores.

use crate::{host, passes, pinned, Args, Report, SETUP_REPS, SETUP_REPS_PER_PASS};
use ear_jobstream::{generate_plan, run_stream, ArrivalConfig, StreamConfig, StreamReport, Wire};
use ear_workloads::{build_job, calibrate};
use std::hint::black_box;
use std::time::Instant;

/// Streams per pass, each a timed unit. Job sizes are drawn from the
/// seed; 8 × 50 jobs keep the simulated work of a pass within a few
/// percent across seeds.
const STREAMS: u64 = 8;

/// One stream: 8 nodes at 200 W each, arrivals about as fast as the fleet
/// drains them, so the queue builds and every admission and completion
/// rebalances a binding budget.
fn config(seed: u64, stream: u64) -> StreamConfig {
    StreamConfig {
        fleet_nodes: 8,
        budget_w: 1600.0,
        arrival_rate_per_hour: 240.0,
        seed: seed.wrapping_mul(STREAMS).wrapping_add(stream),
        max_jobs: 50,
        quick: false,
        idle_power_w: 120.0,
        pstate_only: false,
        wire: Wire::InProcess,
    }
}

/// Set-up: draw every arrival plan, then calibrate and synthesise every
/// planned job. Returns (total, plan, calibrate) seconds.
fn setup(configs: &[StreamConfig]) -> (f64, f64, f64) {
    let started = Instant::now();
    let (mut plan_s, mut calibrate_s) = (0.0, 0.0);
    for cfg in configs {
        let t = Instant::now();
        let plan = generate_plan(&ArrivalConfig {
            seed: cfg.seed,
            rate_per_hour: cfg.arrival_rate_per_hour,
            max_jobs: cfg.max_jobs,
            fleet_nodes: cfg.fleet_nodes,
            quick: cfg.quick,
        });
        plan_s += t.elapsed().as_secs_f64();
        for a in &plan {
            let t = Instant::now();
            let cal = calibrate(&a.targets);
            calibrate_s += t.elapsed().as_secs_f64();
            if let Ok(cal) = &cal {
                black_box(build_job(cal));
            }
            black_box(cal.ok());
        }
    }
    (started.elapsed().as_secs_f64(), plan_s, calibrate_s)
}

/// One pass: every stream once, each `run_stream` call a timed span.
struct Pass {
    unit_s: Vec<f64>,
    pass_s: f64,
    reports: Vec<Result<StreamReport, String>>,
    throttles: u64,
}

fn pass(configs: &[StreamConfig]) -> Pass {
    let started = Instant::now();
    let rapl0 = ear_archsim::stats::rapl_throttle_events();
    let mut unit_s = Vec::with_capacity(configs.len());
    let mut reports = Vec::with_capacity(configs.len());
    for cfg in configs {
        let t = Instant::now();
        reports.push(run_stream(cfg.clone()).map_err(|e| e.to_string()));
        unit_s.push(t.elapsed().as_secs_f64());
    }
    Pass {
        unit_s,
        throttles: ear_archsim::stats::rapl_throttle_events() - rapl0,
        pass_s: started.elapsed().as_secs_f64(),
        reports,
    }
}

/// What a measured pass leaves behind once its outputs are checked; the
/// stream reports themselves are dropped, so memory does not grow with
/// the number of passes.
struct Checked {
    unit_s: Vec<f64>,
    pass_s: f64,
    failed: u64,
    problems: Vec<String>,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let configs: Vec<StreamConfig> = (0..STREAMS).map(|i| config(args.seed, i)).collect();
    let planned: usize = configs.iter().map(|c| c.max_jobs).sum();
    let mut setups = Vec::new();
    let mut plans = Vec::new();
    let mut calibrations = Vec::new();
    let mut set_up = |reps| {
        for _ in 0..reps {
            let (s, p, c) = setup(&configs);
            setups.push(s);
            plans.push(p);
            calibrations.push(c);
        }
    };
    pinned(0);
    set_up(SETUP_REPS);

    // The warm-up pass is the reference every measured pass must repeat.
    let mut reference: Option<(Pass, Vec<String>)> = None;
    let (warm_checked, measured) = passes(args.seconds, || {
        set_up(SETUP_REPS_PER_PASS);
        let p = pass(&configs);
        let rendered: Vec<String> = p
            .reports
            .iter()
            .map(|r| r.as_ref().map_or_else(Clone::clone, StreamReport::render))
            .collect();
        let mut checked = Checked {
            unit_s: p.unit_s.clone(),
            pass_s: p.pass_s,
            failed: 0,
            problems: Vec::new(),
        };
        for (r, cfg) in p.reports.iter().zip(&configs) {
            match r {
                Ok(r) => checked.failed += crate::check::failed_jobs(r, cfg.max_jobs) as u64,
                Err(e) => {
                    checked.failed += cfg.max_jobs as u64;
                    checked.problems.push(format!("stream failed: {e}"));
                }
            }
        }
        match &reference {
            None => reference = Some((p, rendered)),
            Some((_, want)) if *want != rendered => checked
                .problems
                .push("stream reports differ between passes of one seed".into()),
            Some(_) => {}
        }
        checked
    });
    let Some((warm, _)) = reference else {
        report.problem("no pass ran");
        return report;
    };
    // Every stream run counts, the warm-up pass's too.
    for p in std::iter::once(&warm_checked).chain(&measured) {
        report.attempted += planned as u64;
        report.failed += p.failed;
        report.problems.extend(p.problems.iter().cloned());
    }
    let units: Vec<Vec<f64>> = measured.iter().map(|p| p.unit_s.clone()).collect();
    report.set_walls(&units);
    report.set_quiet("setup_s", &setups);
    report.set("bench.passes", measured.len() as f64);

    let ok: Vec<&StreamReport> = warm
        .reports
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    let jobs: usize = ok.iter().map(|r| r.jobs.len()).sum();
    let makespan_s: f64 = ok.iter().map(|r| r.makespan_s).sum();
    report.set("jobs_per_h", jobs as f64 * 3600.0 / makespan_s);
    let worst = ok
        .iter()
        .map(|r| r.worst_over_w())
        .fold(f64::NEG_INFINITY, f64::max);
    report.set("cap_over_w", worst);
    if args.trace {
        let walls: Vec<f64> = units.iter().map(|u| u.iter().sum()).collect();
        let run_s = crate::stats::median(&walls).unwrap_or(f64::NAN);
        let sim_s: f64 = ok
            .iter()
            .flat_map(|r| &r.jobs)
            .map(|j| (j.end_s - j.start_s) * j.nodes as f64)
            .sum();
        report.set("archsim.sim_s", sim_s);
        report.set("archsim.host_ns_per_sim_s", run_s * 1e9 / sim_s);
        report.set("archsim.rapl_throttle_events", warm.throttles as f64);
        report.set("jobstream.run_s", run_s);
        report.set("jobstream.jobs", jobs as f64);
        report.set(
            "jobstream.rebalances",
            ok.iter().map(|r| r.rebalances).sum::<u64>() as f64,
        );
        let peak_queue = ok.iter().map(|r| r.peak_queue).max().unwrap_or(0);
        report.set("jobstream.peak_queue", peak_queue as f64);
        report.set(
            "netd.caps_pushed",
            ok.iter().map(|r| r.caps_pushed).sum::<u64>() as f64,
        );
        report.set_median("jobstream.plan_s", &plans);
        report.set_median("workloads.calibrate_s", &calibrations);
        let coverage: Vec<f64> = measured
            .iter()
            .zip(&walls)
            .map(|(p, w)| w / p.pass_s)
            .collect();
        report.set_median("trace.coverage", &coverage);
        // Each stream is one call into the program, timed in every run:
        // the traced run adds no span, so it adds no overhead.
        report.set("trace.overhead_frac", 0.0);
        report.set("trace.passes", measured.len() as f64);
    }
    if let Err(e) = host::check_threads("fleet-stream") {
        report.problem(e);
    }
    report
}
