//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <policy-matrix|fleet-stream|daemon-rpc>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It sets up several times, runs one warm-up pass, then repeats
//! identical passes for `--seconds`, checking every output; timings are
//! quiet times ([`stats::quiet`]): the fastest set-up, and for a pass the
//! sum of its units' fastest repeats. The last stdout line is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.
//! `README.md` next to this crate says why each workload exists and which
//! end-to-end metric each layer metric should move.

mod check;
mod daemon_rpc;
mod fleet_stream;
mod host;
mod policy_matrix;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports each of them, untraced.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("failed_frac", "frac"),
    ("energy_saving_pct", "%"),
    ("time_penalty_pct", "%"),
    ("jobs_per_h", "1/h"),
    ("cap_over_w", "W"),
    ("req_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("archsim.sim_s", "s"),
    ("archsim.host_ns_per_sim_s", "ns/s"),
    ("archsim.ufs_ratio_steps", "count"),
    ("archsim.rapl_throttle_events", "count"),
    ("archsim.cluster_init_s", "s"),
    ("mpisim.run_job_self_s", "s"),
    ("core.earl_hook_s", "s"),
    ("core.earl_init_s", "s"),
    ("core.mpi_calls", "count"),
    ("core.ticks", "count"),
    ("core.signatures", "count"),
    ("core.freq_changes", "count"),
    ("core.respond_ns", "ns"),
    ("dynais.samples", "count"),
    ("dynais.sample_ns", "ns"),
    ("workloads.calibrate_s", "s"),
    ("workloads.build_job_s", "s"),
    ("experiments.matrix_s", "s"),
    ("experiments.cells", "count"),
    ("jobstream.plan_s", "s"),
    ("jobstream.run_s", "s"),
    ("jobstream.jobs", "count"),
    ("jobstream.rebalances", "count"),
    ("jobstream.peak_queue", "count"),
    ("netd.caps_pushed", "count"),
    ("netd.encode_ns", "ns"),
    ("netd.decode_ns", "ns"),
    ("netd.transport_us", "us"),
    ("netd.untimed_us", "us"),
    ("netd.client_overhead_s", "s"),
    ("netd.rtt_samples", "count"),
    ("netd.rtt_ping_p50_us", "us"),
    ("netd.rtt_poll_power_p50_us", "us"),
    ("netd.rtt_set_freqs_p50_us", "us"),
    ("netd.rtt_report_signature_p50_us", "us"),
    ("netd.rtt_gm_command_p50_us", "us"),
    ("netd.retried", "count"),
    ("netd.timed_out", "count"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.passes", "count"),
    ("bench.passes", "count"),
];

/// Set-ups before the first pass. `setup_s` is their quiet time
/// ([`stats::quiet`]), together with the set-ups between passes where a
/// workload repeats it there.
pub const SETUP_REPS: usize = 20;

/// Set-ups before each pass on workloads whose set-up is a pure
/// computation. A set-up lasts well under a millisecond, so a run of them
/// in one place samples one moment of the host: consecutive set-ups ran
/// either all at one speed or all 1.8 times slower, from process to
/// process. Spread over the run they meet its quiet moments, as the
/// passes do.
pub const SETUP_REPS_PER_PASS: usize = 5;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured duration of the pass loop.
    pub seconds: Duration,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    PolicyMatrix,
    FleetStream,
    DaemonRpc,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells, jobs or requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Checks that failed outside any single operation.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records the median of `samples` under `name`.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        match stats::median(samples) {
            Some(m) => self.set(name, m),
            None => self.problems.push(format!("no samples for {name}")),
        }
    }

    /// Records the quiet time ([`stats::quiet`]) of repeated timings of
    /// identical work under `name`.
    pub fn set_quiet(&mut self, name: &'static str, times: &[f64]) {
        match stats::quiet(times) {
            Some(t) => self.set(name, t),
            None => self.problems.push(format!("no samples for {name}")),
        }
    }

    /// Records `wall_s` from the timed units of every pass (`units[pass][unit]`):
    /// the sum over units of each unit's quiet time, so a pass need not be
    /// quiet from end to end for the estimate to be. Logs every pass.
    pub fn set_walls(&mut self, units: &[Vec<f64>]) {
        let totals: Vec<f64> = units.iter().map(|u| u.iter().sum()).collect();
        eprintln!("perfbench: pass wall_s {totals:?}");
        let n = units.first().map_or(0, Vec::len);
        if n == 0 || units.iter().any(|u| u.len() != n) {
            return self.problem("pass timings are missing or ragged");
        }
        let wall: Option<f64> = (0..n)
            .map(|i| stats::quiet(&units.iter().map(|u| u[i]).collect::<Vec<_>>()))
            .sum();
        match wall {
            Some(wall) => self.set("wall_s", wall),
            None => self.problem("a pass timing is NaN"),
        }
    }

    /// Records a failed check.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

/// Pins the process to the `round`-th CPU ([`host::pin_round`]). Pinning
/// only steadies the timings, so a host that refuses it still runs.
pub fn pinned(round: usize) {
    if let Err(e) = host::pin_round(round) {
        eprintln!("perfbench: not pinned: {e}");
    }
}

/// Runs `pass` once unmeasured, then repeatedly until `seconds` have
/// elapsed (at least once), returning each measured pass's output. Each
/// pass runs pinned to one CPU, the next pass to the next CPU.
pub fn passes<T>(seconds: Duration, mut pass: impl FnMut() -> T) -> (T, Vec<T>) {
    pinned(0);
    let warm = pass();
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed() < seconds {
        pinned(out.len() + 1);
        out.push(pass());
    }
    if let Err(e) = host::unpin() {
        eprintln!("perfbench: not unpinned: {e}");
    }
    (warm, out)
}

const USAGE: &str =
    "usage: perfbench --workload <policy-matrix|fleet-stream|daemon-rpc> --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "policy-matrix" => Workload::PolicyMatrix,
                    "fleet-stream" => Workload::FleetStream,
                    "daemon-rpc" => Workload::DaemonRpc,
                    _ => return Err(format!("unknown workload '{value}'")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes every noise source the program itself adds: one engine worker,
/// no spare threads for node-parallel stepping (so the break-even
/// calibration never runs inside a timed region), the break-even gate
/// pinned to serial, and the persistent result cache off.
fn remove_program_noise() {
    ear_experiments::engine::set_default_jobs(1);
    ear_mpisim::permits::set_spare_threads(0);
    ear_mpisim::breakeven::set_override(Some(usize::MAX - 1));
    ear_experiments::set_result_cache(None);
}

/// Renders the result line. Non-finite values cannot travel in JSON and
/// mark the run incorrect.
fn result_json(report: &mut Report, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match report.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                report.problem(format!("{name} is {v}"));
                0.0
            }
            None if trace => 0.0,
            None => {
                report.problem(format!("{name} was not measured"));
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    remove_program_noise();
    // Read the CPUs before any pinning narrows them.
    host::cpus();
    let mut report = match args.workload {
        Workload::PolicyMatrix => policy_matrix::run(&args),
        Workload::FleetStream => fleet_stream::run(&args),
        Workload::DaemonRpc => daemon_rpc::run(&args),
    };
    if report.attempted == 0 {
        report.problem("no operation was attempted");
        report.attempted = 1;
        report.failed = 1;
    }
    // The program's own telemetry must agree that no engine task failed.
    if let Some(telemetry) = ear_experiments::engine::process_summary_json() {
        if !telemetry.contains("\"tasks_failed\":0,") || !telemetry.contains("\"failed_cells\":[]")
        {
            report.problem(format!(
                "the engine's telemetry reports failures: {telemetry}"
            ));
        }
    }
    if let Err(e) = host::check_threads("exit") {
        report.problem(e);
    }
    match host::peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.problem("peak RSS unreadable"),
    }
    let failed_frac = report.failed as f64 / report.attempted as f64;
    report.set("failed_frac", failed_frac);
    report.set("ok_frac", 1.0 - failed_frac);
    let line = result_json(&mut report, args.trace);
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload daemon-rpc --seed 7 --seconds 10 --trace 1").unwrap();
        assert!(matches!(a.workload, Workload::DaemonRpc));
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet-stream --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet-stream --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fleet-stream --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fleet-stream --seed 1 --seconds 1").is_err());
        assert!(args("--workload fleet-stream --seed").is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_has_every_metric_and_flags_gaps() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        let line = result_json(&mut r, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));

        let mut gap = Report {
            attempted: 1,
            ..Report::default()
        };
        gap.set("wall_s", f64::NAN);
        assert!(result_json(&mut gap, false).starts_with("{\"correct\": false"));
        assert!(gap.problems.iter().any(|p| p.contains("setup_s")));
        assert!(gap.problems.iter().any(|p| p.contains("wall_s is NaN")));
    }

    #[test]
    fn traced_line_zero_fills_unexercised_layers() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        let line = result_json(&mut r, true);
        assert!(line.contains("\"dynais.samples\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(line.starts_with("{\"correct\": true"));
    }

    #[test]
    fn wall_is_the_sum_of_each_units_quiet_time() {
        let mut r = Report::default();
        r.set_walls(&[vec![1.0, 5.0], vec![2.0, 3.0], vec![4.0, 4.0]]);
        assert_eq!(r.values.get("wall_s"), Some(&4.0));
        assert!(r.problems.is_empty());
        r.set_walls(&[vec![1.0, 5.0], vec![2.0]]);
        assert_eq!(r.problems.len(), 1);
    }

    #[test]
    fn passes_warm_up_once_and_measure_at_least_once() {
        let _serial = host::PIN_TESTS.lock();
        let mut calls = 0;
        let (warm, measured) = passes(Duration::ZERO, || {
            calls += 1;
            calls
        });
        assert_eq!((warm, measured), (1, vec![2]));
    }
}
