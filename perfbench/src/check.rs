//! Output checkers. Each returns the number of failed operations (or an
//! error describing the first wrong output), so a wrong answer counts
//! against `failed` exactly like a crash would.

use ear_core::{DaemonReply, EarlRequest};
use ear_experiments::engine::CellOutcome;
use ear_jobstream::StreamReport;
use ear_netd::WireMsg;

/// Expected-state model of one daemon, advanced request by request, so
/// every reply is checked against what the daemon must answer — not only
/// against the reply kind. `netd::loadgen`'s own checker is private to its
/// crate, and checks kinds only.
#[derive(Debug, Clone)]
pub struct RpcModel {
    node: u64,
    idle_power_w: f64,
    signatures: u64,
    last_power_w: Option<f64>,
}

impl RpcModel {
    /// Model of a freshly started daemon (no signatures recorded yet).
    pub fn new(node: u64, idle_power_w: f64) -> Self {
        RpcModel {
            node,
            idle_power_w,
            signatures: 0,
            last_power_w: None,
        }
    }

    /// Checks `reply` against `request` and advances the model as the
    /// daemon advanced its state. Only requests the benchmark sends are
    /// accepted.
    pub fn check(&mut self, request: &WireMsg, reply: &WireMsg) -> Result<(), String> {
        let ok = match (request, reply) {
            (WireMsg::Ping { token }, WireMsg::Pong { token: echoed }) => token == echoed,
            (WireMsg::PollPower { .. }, WireMsg::Report(r)) => {
                let expected = self.last_power_w.unwrap_or(self.idle_power_w);
                r.node as u64 == self.node && r.avg_power_w.to_bits() == expected.to_bits()
            }
            (
                WireMsg::Request(EarlRequest::SetFreqs(sent)),
                WireMsg::Reply(DaemonReply::FreqsApplied {
                    requested,
                    granted,
                    clamped,
                }),
            ) => requested == sent && granted == sent && !clamped,
            (WireMsg::Request(EarlRequest::ReportSignature(sig)), reply) => {
                // The daemon records the signature whatever it answers.
                self.signatures += 1;
                self.last_power_w = Some(sig.dc_power_w);
                matches!(reply, WireMsg::SigAck { count } if *count == self.signatures)
            }
            (WireMsg::Command(cmd), WireMsg::CapAck { node, cap_w }) => {
                *node == cmd.node as u64 && cap_w.to_bits() == cmd.cap_w.to_bits()
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "'{}' answered with wrong '{}': {reply:?}",
                request.kind(),
                reply.kind()
            ))
        }
    }
}

/// Failed cells of one engine matrix: cells without a result, or whose
/// result is not a finite positive run.
pub fn failed_cells(cells: &[CellOutcome]) -> usize {
    cells
        .iter()
        .filter(|c| {
            !c.result
                .as_ref()
                .is_some_and(|r| r.time_s.is_finite() && r.time_s > 0.0 && r.dc_energy_j > 0.0)
        })
        .count()
}

/// Failed jobs of one stream: every planned job must be admitted and
/// complete after it was submitted, caps must reach every daemon on every
/// rebalance, and the wire must see no protocol error. A protocol error
/// or a lost cap push fails the whole stream.
pub fn failed_jobs(report: &StreamReport, planned: usize) -> usize {
    let completed = report
        .jobs
        .iter()
        .filter(|j| j.start_s >= j.submit_s && j.end_s > j.start_s && j.energy_j > 0.0)
        .count();
    let wire_ok = report.protocol_errors == 0
        && report.caps_pushed == report.rebalances * report.fleet_nodes as u64;
    if wire_ok {
        planned.saturating_sub(completed)
    } else {
        planned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_core::{DomainLimits, GmCommand, GmReport, NodeFreqs, Signature};
    use ear_experiments::RunResult;
    use ear_jobstream::JobOutcome;

    fn freqs() -> NodeFreqs {
        NodeFreqs {
            cpu: 2,
            imc_min_ratio: 12,
            imc_max_ratio: 20,
            imc_dom: DomainLimits::LEGACY,
        }
    }

    fn sig(power: f64) -> WireMsg {
        WireMsg::Request(EarlRequest::ReportSignature(Signature {
            dc_power_w: power,
            ..Signature::default()
        }))
    }

    #[test]
    fn pong_must_echo_the_token() {
        let mut m = RpcModel::new(3, 120.0);
        let ping = WireMsg::Ping { token: 9 };
        assert!(m.check(&ping, &WireMsg::Pong { token: 9 }).is_ok());
        assert!(m.check(&ping, &WireMsg::Pong { token: 8 }).is_err());
        assert!(m.check(&ping, &WireMsg::SigAck { count: 9 }).is_err());
    }

    #[test]
    fn sig_ack_counts_must_rise_by_one() {
        let mut m = RpcModel::new(0, 120.0);
        assert!(m.check(&sig(200.0), &WireMsg::SigAck { count: 1 }).is_ok());
        assert!(m.check(&sig(210.0), &WireMsg::SigAck { count: 2 }).is_ok());
        // A repeated count is a lost signature.
        assert!(m.check(&sig(220.0), &WireMsg::SigAck { count: 2 }).is_err());
        // The model stays in step with the daemon after a bad reply.
        assert!(m.check(&sig(230.0), &WireMsg::SigAck { count: 4 }).is_ok());
    }

    #[test]
    fn poll_reports_idle_then_last_signature_power() {
        let mut m = RpcModel::new(5, 120.0);
        let poll = WireMsg::PollPower { node: 5 };
        let report = |node, w| {
            WireMsg::Report(GmReport {
                node,
                avg_power_w: w,
            })
        };
        assert!(m.check(&poll, &report(5, 120.0)).is_ok());
        assert!(m.check(&sig(250.5), &WireMsg::SigAck { count: 1 }).is_ok());
        assert!(m.check(&poll, &report(5, 250.5)).is_ok());
        assert!(m.check(&poll, &report(5, 120.0)).is_err());
        assert!(m.check(&poll, &report(4, 250.5)).is_err());
    }

    #[test]
    fn cap_ack_must_echo_node_and_cap() {
        let mut m = RpcModel::new(0, 120.0);
        let cmd = WireMsg::Command(GmCommand {
            node: 2,
            cap_w: 175.25,
        });
        let ack = |node, cap_w| WireMsg::CapAck { node, cap_w };
        assert!(m.check(&cmd, &ack(2, 175.25)).is_ok());
        assert!(m.check(&cmd, &ack(2, 175.0)).is_err());
        assert!(m.check(&cmd, &ack(1, 175.25)).is_err());
    }

    #[test]
    fn set_freqs_must_be_granted_verbatim() {
        let mut m = RpcModel::new(0, 120.0);
        let req = WireMsg::Request(EarlRequest::SetFreqs(freqs()));
        let applied = |granted: NodeFreqs, clamped| {
            WireMsg::Reply(DaemonReply::FreqsApplied {
                requested: freqs(),
                granted,
                clamped,
            })
        };
        assert!(m.check(&req, &applied(freqs(), false)).is_ok());
        let slower = NodeFreqs { cpu: 3, ..freqs() };
        assert!(m.check(&req, &applied(slower, true)).is_err());
        let rejected = WireMsg::Reply(DaemonReply::Rejected { requested: freqs() });
        assert!(m.check(&req, &rejected).is_err());
    }

    fn result(time_s: f64) -> RunResult {
        RunResult {
            label: "x".into(),
            time_s,
            dc_power_w: 200.0,
            pkg_power_w: 150.0,
            dc_energy_j: 200.0 * time_s,
            pkg_energy_j: 150.0 * time_s,
            avg_cpu_ghz: 2.4,
            avg_imc_ghz: 2.0,
            imc_domains: 1,
            imc_dom_ghz: [2.0, 0.0, 0.0, 0.0],
            cpi: 0.8,
            gbs: 50.0,
        }
    }

    fn cell(result: Option<RunResult>) -> CellOutcome {
        CellOutcome {
            label: "x".into(),
            error: result.is_none().then(|| "boom".into()),
            result,
            failed_runs: 0,
            busy_s: 0.1,
        }
    }

    #[test]
    fn cells_without_a_sane_result_fail() {
        let cells = [
            cell(Some(result(10.0))),
            cell(None),
            cell(Some(result(f64::NAN))),
            cell(Some(result(0.0))),
        ];
        assert_eq!(failed_cells(&cells), 3);
        assert_eq!(failed_cells(&cells[..1]), 0);
    }

    fn job(seq: usize, submit_s: f64, start_s: f64, end_s: f64) -> JobOutcome {
        JobOutcome {
            seq,
            app: "HPCG".into(),
            nodes: 2,
            submit_s,
            start_s,
            end_s,
            cap_w: 200.0,
            avg_power_w: 190.0,
            energy_j: 1e4,
            over_w: -10.0,
        }
    }

    fn stream(jobs: Vec<JobOutcome>, protocol_errors: u64, caps_pushed: u64) -> StreamReport {
        StreamReport {
            jobs,
            fleet_nodes: 4,
            budget_w: 800.0,
            rebalances: 3,
            caps_pushed,
            protocol_errors,
            peak_queue: 1,
            makespan_s: 100.0,
            total_energy_j: 2e4,
        }
    }

    #[test]
    fn streams_fail_missing_or_backwards_jobs() {
        let good = vec![job(0, 0.0, 0.0, 10.0), job(1, 5.0, 10.0, 30.0)];
        assert_eq!(failed_jobs(&stream(good.clone(), 0, 12), 2), 0);
        assert_eq!(failed_jobs(&stream(good[..1].to_vec(), 0, 12), 2), 1);
        let early = vec![job(0, 0.0, 0.0, 10.0), job(1, 5.0, 4.0, 30.0)];
        assert_eq!(failed_jobs(&stream(early, 0, 12), 2), 1);
    }

    #[test]
    fn wire_faults_fail_the_whole_stream() {
        let good = vec![job(0, 0.0, 0.0, 10.0), job(1, 5.0, 10.0, 30.0)];
        assert_eq!(failed_jobs(&stream(good.clone(), 1, 12), 2), 2);
        assert_eq!(failed_jobs(&stream(good, 0, 11), 2), 2);
    }
}
