//! `policy-matrix`: the paper's headline comparison. The Table III
//! kernels and the Table VI MPI applications each run under No policy, ME
//! and ME+eU through the experiment engine at one worker, cache off, RAPL
//! off. Nearly all the host time is archsim quantum stepping, with DynAIS
//! and EARL behind it; netd and the job stream do nothing here.
//!
//! The traced run re-drives the same cells through
//! [`engine::calibrated`] and [`run_job_serial`] behind a timing
//! [`NodeRuntime`] wrapper, checks that it reproduces the engine's results
//! bit for bit, and replays the recorded MPI call stream through DynAIS
//! alone.

use crate::{host, passes, Args, Report, SETUP_REPS, SETUP_REPS_PER_PASS};
use ear_archsim::{Cluster, Node};
use ear_core::{EarDaemon, Earl, EarlConfig};
use ear_dynais::{DynAis, DynaisConfig};
use ear_experiments::engine::{self, run_matrix_engine, run_seed, EngineConfig};
use ear_experiments::harness::{compare, RunKind, RunResult};
use ear_experiments::tables::app_cpu_th;
use ear_mpisim::{run_job_serial, JobReport, JobSpec, MpiEvent, NodeRuntime, NullRuntime};
use ear_workloads::{apps, build_job, calibrate, kernels, CalibratedWorkload, WorkloadTargets};
use std::hint::black_box;
use std::time::Instant;

/// Runs per cell. One keeps a pass short, so a run holds several passes.
const RUNS: usize = 1;

/// ME+eU uncore threshold of Tables III and VI.
const UNC_TH: f64 = 0.02;

/// Simulated seconds a workload runs at most. The three longest
/// applications (POP, DUMSES, GROMACS (II)) would otherwise take 3/4 of a
/// pass, and a pass of 4 s leaves each timed unit too few repeats in a run
/// to meet a quiet moment of a shared host. 200 s is still 20 signature
/// windows, so every policy settles.
const MAX_SIM_S: f64 = 200.0;

type Cells = Vec<(String, RunKind)>;

/// `t` cut to at most [`MAX_SIM_S`] by running fewer iterations of the
/// same length, as the job stream shortens its jobs.
fn shortened(mut t: WorkloadTargets) -> WorkloadTargets {
    let iter_s = t.time_s / t.iterations as f64;
    let iterations = ((MAX_SIM_S / iter_s) as usize).max(1);
    if iterations < t.iterations {
        t.iterations = iterations;
        t.time_s = iter_s * iterations as f64;
    }
    t
}

/// The matrix: every Table III kernel and Table VI application, each
/// [`shortened`], with its No policy / ME / ME+eU cells, in table order.
fn matrix() -> Vec<(WorkloadTargets, Cells)> {
    let kernels = kernels::table2_kernels().into_iter().map(|t| (t, 0.05));
    let apps = apps::table5_apps().into_iter().map(|t| {
        let th = app_cpu_th(t.name);
        (t, th)
    });
    kernels
        .chain(apps)
        .map(|(t, th)| {
            let t = shortened(t);
            let cells = vec![
                ("No policy".to_string(), RunKind::NoPolicy),
                ("ME".to_string(), RunKind::me(th)),
                ("ME+eU".to_string(), RunKind::me_eufs(th, UNC_TH)),
            ];
            (t, cells)
        })
        .collect()
}

/// One untraced pass: every workload's matrix through the engine.
struct EnginePass {
    /// Timed units: per workload, the host seconds the engine reports for
    /// each cell (`CellOutcome::busy_s`), then the rest of its
    /// `run_matrix_engine` call, so the units add up to the calls.
    unit_s: Vec<f64>,
    /// Per workload, per cell: the averaged result, if the cell succeeded.
    results: Vec<Vec<Option<RunResult>>>,
    failed: usize,
}

fn engine_pass(matrix: &[(WorkloadTargets, Cells)], seed: u64) -> EnginePass {
    let config = EngineConfig::new(RUNS, seed).with_jobs(1);
    let mut unit_s = Vec::new();
    let mut results = Vec::with_capacity(matrix.len());
    let mut failed = 0;
    for (targets, cells) in matrix {
        let started = Instant::now();
        let run = run_matrix_engine(targets, cells, &config);
        let call_s = started.elapsed().as_secs_f64();
        // The call's one engine worker may still be exiting.
        host::settle_threads(1);
        let busy_s: Vec<f64> = run.cells.iter().map(|c| c.busy_s).collect();
        unit_s.push(call_s - busy_s.iter().sum::<f64>());
        unit_s.extend(busy_s);
        failed += crate::check::failed_cells(&run.cells);
        results.push(run.cells.into_iter().map(|c| c.result).collect());
    }
    EnginePass {
        unit_s,
        results,
        failed,
    }
}

/// Catalog means of the ME+eU vs No policy comparison: (energy saving %,
/// time penalty %). `None` if any reference or ME+eU cell failed.
fn headline(results: &[Vec<Option<RunResult>>]) -> Option<(f64, f64)> {
    let mut energy = 0.0;
    let mut time = 0.0;
    for cells in results {
        let c = compare(cells.first()?.as_ref()?, cells.get(2)?.as_ref()?);
        energy += c.energy_saving_pct;
        time += c.time_penalty_pct;
    }
    let n = results.len() as f64;
    Some((energy / n, time / n))
}

/// Set-up: the closed-form calibration and job synthesis of every
/// workload, uncached, as a fresh process pays them.
fn setup(matrix: &[(WorkloadTargets, Cells)]) -> (f64, f64) {
    let started = Instant::now();
    let mut calibrate_s = 0.0;
    for (targets, _) in matrix {
        let t = Instant::now();
        let cal = calibrate(targets);
        calibrate_s += t.elapsed().as_secs_f64();
        if let Ok(cal) = &cal {
            black_box(build_job(cal));
        }
        black_box(cal.ok());
    }
    (started.elapsed().as_secs_f64(), calibrate_s)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let matrix = matrix();
    let (mut setups, mut calibrations) = (Vec::new(), Vec::new());
    let mut set_up = |reps| {
        for _ in 0..reps {
            let (s, c) = setup(&matrix);
            setups.push(s);
            calibrations.push(c);
        }
    };
    set_up(SETUP_REPS);
    // Fill the engine's process-wide calibration cache outside any timed
    // pass, as every later matrix in a process finds it.
    for (targets, _) in &matrix {
        if let Err(e) = engine::calibrated(targets).as_ref() {
            report.problem(format!("{} does not calibrate: {e}", targets.name));
        }
    }

    let cells_per_pass: usize = matrix.iter().map(|(_, c)| c.len()).sum();
    let mut traced: Vec<TracePass> = Vec::new();
    let (warm, measured) = passes(args.seconds, || {
        set_up(SETUP_REPS_PER_PASS);
        // A traced run alternates which of the two goes first, so neither
        // always meets the caches the other warmed.
        let traced_first = args.trace && traced.len() % 2 == 1;
        if traced_first {
            traced.push(trace_pass(&matrix, args.seed));
        }
        let pass = engine_pass(&matrix, args.seed);
        if args.trace && !traced_first {
            traced.push(trace_pass(&matrix, args.seed));
        }
        pass
    });

    // Every cell run counts, the warm-up pass's too.
    report.attempted += cells_per_pass as u64;
    report.failed += warm.failed as u64;
    for pass in &measured {
        report.attempted += cells_per_pass as u64;
        report.failed += pass.failed as u64;
        if pass.results != warm.results {
            report.problem("simulated results differ between passes of one seed");
        }
    }
    let units: Vec<Vec<f64>> = measured.iter().map(|p| p.unit_s.clone()).collect();
    report.set_walls(&units);
    report.set_quiet("setup_s", &setups);
    report.set_median("workloads.calibrate_s", &calibrations);
    match headline(&warm.results) {
        Some((energy, time)) => {
            report.set("energy_saving_pct", energy);
            report.set("time_penalty_pct", time);
        }
        None => report.problem("a reference or ME+eU cell failed"),
    }
    if args.trace {
        let walls: Vec<f64> = units.iter().map(|u| u.iter().sum()).collect();
        report.set_median("experiments.matrix_s", &walls);
        report.set("experiments.cells", cells_per_pass as f64);
        if traced.iter().any(|t| !t.matches(&warm.results)) {
            report.problem("the traced re-drive differs from the engine's results");
        }
        // The warm-up pass is not timed.
        let traced = &traced[1..];
        let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
        let untraced = crate::stats::quiet(&walls).unwrap_or(f64::NAN);
        let traced_wall = crate::stats::quiet(&traced_walls).unwrap_or(f64::NAN);
        report.set("trace.overhead_frac", traced_wall / untraced - 1.0);
        report.set("trace.passes", traced.len() as f64);
        TracePass::report(traced, &mut report);
    }
    report.set("bench.passes", measured.len() as f64);
    if let Err(e) = host::check_threads("policy-matrix") {
        report.problem(e);
    }
    report
}

// ---------------------------------------------------------------------------
// The traced re-drive
// ---------------------------------------------------------------------------

/// Times every hook EARL (behind its daemon) receives, counts them, and
/// records the DynAIS sample of every intercepted MPI call.
struct Timed<R> {
    inner: R,
    hook_s: f64,
    mpi_calls: u64,
    ticks: u64,
    samples: Vec<u64>,
}

impl<R> Timed<R> {
    fn new(inner: R) -> Self {
        Timed {
            inner,
            hook_s: 0.0,
            mpi_calls: 0,
            ticks: 0,
            samples: Vec::new(),
        }
    }
}

impl<R: NodeRuntime> NodeRuntime for Timed<R> {
    fn on_job_start(&mut self, node: &mut Node, job_name: &str, ranks_on_node: usize) {
        let t = Instant::now();
        self.inner.on_job_start(node, job_name, ranks_on_node);
        self.hook_s += t.elapsed().as_secs_f64();
    }

    fn on_mpi_call(&mut self, node: &mut Node, event: &MpiEvent) {
        self.mpi_calls += 1;
        self.samples.push(event.dynais_sample());
        let t = Instant::now();
        self.inner.on_mpi_call(node, event);
        self.hook_s += t.elapsed().as_secs_f64();
    }

    fn on_job_end(&mut self, node: &mut Node) {
        let t = Instant::now();
        self.inner.on_job_end(node);
        self.hook_s += t.elapsed().as_secs_f64();
    }

    fn on_tick(&mut self, node: &mut Node) {
        self.ticks += 1;
        let t = Instant::now();
        self.inner.on_tick(node);
        self.hook_s += t.elapsed().as_secs_f64();
    }
}

/// Layer totals of one traced pass.
#[derive(Debug, Default)]
struct TracePass {
    wall_s: f64,
    /// Per workload, per cell: (mean simulated seconds, mean DC energy),
    /// folded in run order exactly as the engine folds them.
    results: Vec<Vec<(f64, f64)>>,
    build_job_s: f64,
    cluster_init_s: f64,
    earl_init_s: f64,
    run_job_s: f64,
    hook_s: f64,
    replay_s: f64,
    sim_s: f64,
    mpi_calls: u64,
    ticks: u64,
    signatures: u64,
    freq_changes: u64,
    dynais_samples: u64,
    ufs_ratio_steps: u64,
    rapl_throttle_events: u64,
}

impl TracePass {
    /// Whether the re-drive reproduced the engine's results bit for bit.
    fn matches(&self, engine: &[Vec<Option<RunResult>>]) -> bool {
        self.results.len() == engine.len()
            && self.results.iter().zip(engine).all(|(ours, theirs)| {
                ours.len() == theirs.len()
                    && ours.iter().zip(theirs).all(|(&(t, e), r)| {
                        r.as_ref().is_some_and(|r| {
                            r.time_s.to_bits() == t.to_bits()
                                && r.dc_energy_j.to_bits() == e.to_bits()
                        })
                    })
            })
    }

    fn report(traced: &[TracePass], report: &mut Report) {
        let med = |f: fn(&TracePass) -> f64| {
            let xs: Vec<f64> = traced.iter().map(f).collect();
            crate::stats::median(&xs).unwrap_or(f64::NAN)
        };
        let Some(last) = traced.last() else {
            report.problem("no traced pass ran");
            return;
        };
        let run_job_self_s = med(|t| t.run_job_s - t.hook_s);
        report.set("archsim.sim_s", last.sim_s);
        report.set(
            "archsim.host_ns_per_sim_s",
            run_job_self_s * 1e9 / last.sim_s,
        );
        report.set("archsim.ufs_ratio_steps", last.ufs_ratio_steps as f64);
        report.set(
            "archsim.rapl_throttle_events",
            last.rapl_throttle_events as f64,
        );
        report.set("archsim.cluster_init_s", med(|t| t.cluster_init_s));
        report.set("mpisim.run_job_self_s", run_job_self_s);
        report.set("core.earl_hook_s", med(|t| t.hook_s));
        report.set("core.earl_init_s", med(|t| t.earl_init_s));
        report.set("core.mpi_calls", last.mpi_calls as f64);
        report.set("core.ticks", last.ticks as f64);
        report.set("core.signatures", last.signatures as f64);
        report.set("core.freq_changes", last.freq_changes as f64);
        report.set("dynais.samples", last.dynais_samples as f64);
        report.set(
            "dynais.sample_ns",
            med(|t| t.replay_s) * 1e9 / last.dynais_samples.max(1) as f64,
        );
        report.set("workloads.build_job_s", med(|t| t.build_job_s));
        report.set(
            "trace.coverage",
            med(|t| {
                (t.build_job_s + t.cluster_init_s + t.earl_init_s + t.run_job_s + t.replay_s)
                    / t.wall_s
            }),
        );
    }
}

/// Runs one job serially on a fresh cluster; returns the report and the
/// seconds spent building the cluster and inside `run_job_serial`.
fn drive<R: NodeRuntime>(
    cal: &CalibratedWorkload,
    job: &JobSpec,
    nodes: usize,
    seed: u64,
    runtimes: &mut [R],
) -> (JobReport, f64, f64) {
    let t = Instant::now();
    let mut cluster = Cluster::new(cal.node_config.clone(), nodes, seed);
    let cluster_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = run_job_serial(&mut cluster, job, runtimes);
    (report, cluster_s, t.elapsed().as_secs_f64())
}

/// EARL behind its node daemon, as the engine builds it for a policy
/// cell.
fn earl_runtime(name: &str, settings: &ear_core::PolicySettings, node: u64) -> EarDaemon<Earl> {
    let earl = Earl::from_registry(EarlConfig {
        policy_name: name.to_string(),
        settings: settings.clone(),
        ..EarlConfig::default()
    })
    .unwrap_or_else(|e| panic!("policy '{name}' does not build: {e}"));
    let mut daemon = EarDaemon::new(earl);
    daemon.set_node_id(node);
    daemon.inner_mut().set_node_id(node);
    daemon
}

fn trace_pass(matrix: &[(WorkloadTargets, Cells)], seed: u64) -> TracePass {
    let mut t = TracePass::default();
    let ufs0 = ear_archsim::stats::snapshot().total_steps();
    let rapl0 = ear_archsim::stats::rapl_throttle_events();
    let mut streams: Vec<Vec<u64>> = Vec::new();
    let started = Instant::now();
    for (targets, cells) in matrix {
        let t0 = Instant::now();
        let cal = engine::calibrated(targets);
        let Ok(cal) = cal.as_ref() else {
            t.results.push(Vec::new());
            continue;
        };
        let job = build_job(cal);
        t.build_job_s += t0.elapsed().as_secs_f64();
        let nodes = targets.nodes;
        let mut results = Vec::with_capacity(cells.len());
        for (cell, (_, kind)) in cells.iter().enumerate() {
            let (mut time_s, mut energy_j) = (0.0, 0.0);
            for run in 0..RUNS {
                let seed = run_seed(seed, cell as u64, run);
                let (report, cluster_s, run_s) = match kind {
                    RunKind::Policy { name, settings } => {
                        let t0 = Instant::now();
                        let mut rts: Vec<Timed<EarDaemon<Earl>>> = (0..nodes)
                            .map(|i| Timed::new(earl_runtime(name, settings, i as u64)))
                            .collect();
                        t.earl_init_s += t0.elapsed().as_secs_f64();
                        let out = drive(cal, &job, nodes, seed, &mut rts);
                        for rt in rts {
                            t.hook_s += rt.hook_s;
                            t.mpi_calls += rt.mpi_calls;
                            t.ticks += rt.ticks;
                            t.signatures += rt.inner.inner().signatures().len() as u64;
                            t.freq_changes += rt.inner.inner().freq_changes().len() as u64;
                            if !rt.samples.is_empty() {
                                streams.push(rt.samples);
                            }
                        }
                        out
                    }
                    RunKind::NoPolicy => {
                        drive(cal, &job, nodes, seed, &mut vec![NullRuntime; nodes])
                    }
                    RunKind::Fixed { .. } => unreachable!("the matrix has no fixed cells"),
                };
                t.cluster_init_s += cluster_s;
                t.run_job_s += run_s;
                t.sim_s += report.nodes.iter().map(|n| n.seconds).sum::<f64>();
                time_s += report.seconds();
                energy_j += report.total_dc_energy_j();
            }
            results.push((time_s / RUNS as f64, energy_j / RUNS as f64));
        }
        t.results.push(results);
    }
    // DynAIS alone, on the exact call streams EARL saw: one detector per
    // node-run, as EARL resets its detector at every job start.
    let t0 = Instant::now();
    for stream in &streams {
        let mut dynais = DynAis::new(&DynaisConfig::default());
        for &s in stream {
            black_box(dynais.sample(s));
        }
    }
    t.replay_s = t0.elapsed().as_secs_f64();
    t.wall_s = started.elapsed().as_secs_f64();
    t.dynais_samples = streams.iter().map(|s| s.len() as u64).sum();
    t.ufs_ratio_steps = ear_archsim::stats::snapshot().total_steps() - ufs0;
    t.rapl_throttle_events = ear_archsim::stats::rapl_throttle_events() - rapl0;
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortening_caps_long_workloads_and_keeps_iteration_length() {
        for (t, _) in matrix() {
            let full = apps::table5_apps()
                .into_iter()
                .chain(kernels::table2_kernels())
                .find(|f| f.name == t.name)
                .unwrap();
            assert!(t.time_s <= MAX_SIM_S || t.iterations == 1, "{}", t.name);
            let (iter, full_iter) = (
                t.time_s / t.iterations as f64,
                full.time_s / full.iterations as f64,
            );
            assert!((iter - full_iter).abs() < 1e-9 * full_iter, "{}", t.name);
            if full.time_s <= MAX_SIM_S {
                assert_eq!((t.time_s, t.iterations), (full.time_s, full.iterations));
            }
        }
    }
}
