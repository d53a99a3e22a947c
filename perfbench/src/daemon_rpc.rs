//! `daemon-rpc`: a closed loop. One client thread with one [`NetClient`]
//! connection sends a fixed, seeded request mix to the readiness-loop
//! server in the same process over a Unix-domain socket, each request
//! only after the previous reply. The mix is reads (`Ping`, `PollPower`)
//! and writes (`SetFreqs`, `ReportSignature`, an EARGM cap `Command`), in
//! the shares the repository's own runs send them ([`RATES`]). Only netd
//! (codec, poll loop, transport) and the daemon's `EardService::respond`
//! work here; archsim does nothing.
//!
//! The traced run times each request's round trip, and splits a round
//! trip by timing its layers apart on the same mix: the codec, the
//! daemon state machine, and the bare socket transport.

use crate::check::RpcModel;
use crate::stats::{percentile, quiet};
use crate::{host, passes, pinned, Args, Report, SETUP_REPS};
use ear_archsim::rng::SplitMix64;
use ear_core::GmCommand;
use ear_netd::codec::READ_CHUNK;
use ear_netd::codec::{decode_frame, encode_frame};
use ear_netd::loadgen::nth_request;
use ear_netd::readiness::{poll_fds, PollFd, POLLIN};
use ear_netd::server::{spawn_async, EardConfig, EardService, ServerConfig, ServerHandle};
use ear_netd::HEADER_LEN;
use ear_netd::{ClientConfig, Endpoint, NetClient, NetListener, WireMsg};
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

/// Requests per pass.
const REQUESTS: usize = 10_000;

/// Requests per timed unit of a pass. A unit lasts a few milliseconds,
/// short enough that some units of every run fall between bursts of
/// interference from other tenants.
const UNIT: usize = 500;

/// Socket path, relative to the working directory (a Unix socket path
/// must stay under ~100 bytes, which an absolute checkout path may not).
const SOCKET: &str = "perfbench-eard.sock";

/// The bare transport's listener, which only ever answers an `accept`
/// probe; removed once bound.
const ECHO_SOCKET: &str = "perfbench-echo.sock";

/// The node id the daemon stamps on its power reports.
const NODE: u64 = 3;

/// Request kinds of the mix, in the order per-kind metrics are named.
const KINDS: [&str; 5] = [
    "ping",
    "poll_power",
    "set_freqs",
    "report_signature",
    "gm_command",
];

/// Requests one node daemon receives per simulated second, by kind
/// (indexed like [`KINDS`]), counted on the traced runs of the other two
/// workloads at seed 1:
/// - `poll_power`, `gm_command`: every EARGM rebalance polls each node
///   and pushes it a cap: 800 rebalances (`jobstream.rebalances`) over
///   6 708.4 s of fleet time (400 `jobstream.jobs` at 214.654 `jobs_per_h`);
/// - `set_freqs`: one per EARL frequency change: 488 changes
///   (`core.freq_changes`) over 129 108 node-seconds (`archsim.sim_s`)
///   of the matrix with every application at its published length (the
///   workload shortens them; the changes all come while policies settle);
/// - `report_signature`: one per EARL signature window: 7 660 signatures
///   (`core.signatures`) over the same node-seconds;
/// - `ping`: a client's liveness probe when it connects, so about 0.
const RATES: [f64; 5] = [
    0.0,
    800.0 / 6708.4,
    488.0 / 129_108.0,
    7660.0 / 129_108.0,
    800.0 / 6708.4,
];

/// Share every kind gets at least, so each kind's round trip is measured
/// on at least ~100 requests a pass.
const FLOOR: f64 = 0.01;

/// Per-kind RTT metric names, indexed like [`KINDS`].
const KIND_P50: [&str; 5] = [
    "netd.rtt_ping_p50_us",
    "netd.rtt_poll_power_p50_us",
    "netd.rtt_set_freqs_p50_us",
    "netd.rtt_report_signature_p50_us",
    "netd.rtt_gm_command_p50_us",
];

fn eard_config() -> EardConfig {
    EardConfig {
        node: NODE,
        ceiling: None,
        idle_power_w: 120.0,
    }
}

/// Each kind's share of the mix: [`FLOOR`], plus the rest in proportion
/// to [`RATES`].
fn shares() -> [f64; 5] {
    let total: f64 = RATES.iter().sum();
    RATES.map(|r| FLOOR + (1.0 - FLOOR * RATES.len() as f64) * r / total)
}

/// The request of kind `kind` (indexed like [`KINDS`]), its payload drawn
/// from `v`: `netd::loadgen`'s requests for the daemon's own kinds, and an
/// EARGM cap for `gm_command`.
fn request(kind: usize, v: u64) -> WireMsg {
    // `nth_request(_, i)` sends ping, set_freqs, report_signature,
    // poll_power for `i % 4` = 0, 1, 2, 3.
    const NTH: [u64; 4] = [0, 3, 1, 2];
    match NTH.get(kind) {
        Some(&k) => nth_request(NODE as usize, (v % 1024) * 4 + k),
        None => WireMsg::Command(GmCommand {
            node: NODE as usize,
            cap_w: 150.0 + (v % 2000) as f64 / 10.0,
        }),
    }
}

/// The seeded request mix: kinds drawn in their [`shares`], payloads
/// drawn from the seed.
fn mix(seed: u64, n: usize) -> Vec<WireMsg> {
    let shares = shares();
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let mut acc = 0.0;
            let kind = shares
                .iter()
                .position(|s| {
                    acc += s;
                    u < acc
                })
                .unwrap_or(KINDS.len() - 1);
            request(kind, rng.next_u64())
        })
        .collect()
}

fn kind_index(msg: &WireMsg) -> usize {
    KINDS.iter().position(|k| *k == msg.kind()).unwrap_or(0)
}

struct Daemon {
    server: ServerHandle,
    client: NetClient,
}

/// Binds the socket, starts the readiness-loop server and opens the one
/// client connection with a checked ping.
fn start(deadline: Duration) -> Result<Daemon, String> {
    let listener = NetListener::bind(SOCKET).map_err(|e| e.to_string())?;
    let server = spawn_async(
        listener,
        ServerConfig {
            eard: eard_config(),
            workers: 2,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_seconds: Some(deadline.as_secs_f64()),
        },
    );
    let mut client = NetClient::new(Endpoint::parse(SOCKET), ClientConfig::default());
    match client.ping(0x5E7_u64) {
        Ok(()) => Ok(Daemon { server, client }),
        Err(e) => {
            let _ = client.shutdown();
            let _ = server.join();
            Err(format!("daemon did not answer: {e}"))
        }
    }
}

/// Sends the poison frame and joins the server, which must have served
/// the `sent` requests, the set-up ping and the poison frame, with no
/// connection error.
fn stop(mut d: Daemon, sent: u64) -> Result<(), String> {
    d.client.shutdown().map_err(|e| e.to_string())?;
    let report = d.server.join().map_err(|e| e.to_string())?;
    if report.conn_errors > 0 {
        return Err(format!("{} connection errors", report.conn_errors));
    }
    if report.requests != sent + 2 {
        return Err(format!(
            "served {} requests, {} were sent",
            report.requests,
            sent + 2
        ));
    }
    Ok(())
}

/// One pass's outcome.
struct Pass {
    /// Seconds per unit of [`UNIT`] consecutive requests.
    unit_s: Vec<f64>,
    failed: u64,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.unit_s.iter().sum()
    }
}

/// Sends the mix once, each request after the previous reply, checking
/// every reply. A traced pass also records each request's (kind, round
/// trip in ns) in `rtts`, scratch space reused across passes so memory
/// does not grow with their number.
fn pass(
    client: &mut NetClient,
    mix: &[WireMsg],
    model: &mut RpcModel,
    mut rtts: Option<&mut Vec<(usize, u64)>>,
) -> Pass {
    if let Some(rtts) = rtts.as_deref_mut() {
        rtts.clear();
    }
    let mut failed = 0;
    let mut unit_s = Vec::with_capacity(mix.len().div_ceil(UNIT));
    let mut unit = Instant::now();
    for (i, msg) in mix.iter().enumerate() {
        let sent = rtts.is_some().then(Instant::now);
        // A failed request may still have reached the daemon; an error
        // reply never checks out but keeps the model in step.
        let reply = client
            .request_with_retry(msg)
            .unwrap_or_else(|e| WireMsg::Error {
                message: e.to_string(),
            });
        if let (Some(rtts), Some(sent)) = (rtts.as_deref_mut(), sent) {
            rtts.push((kind_index(msg), sent.elapsed().as_nanos() as u64));
        }
        failed += u64::from(model.check(msg, &reply).is_err());
        if (i + 1) % UNIT == 0 || i + 1 == mix.len() {
            unit_s.push(unit.elapsed().as_secs_f64());
            unit = Instant::now();
        }
    }
    Pass { unit_s, failed }
}

/// Percentile `p` of the round trips of one kind (all kinds for `None`),
/// in µs.
fn rtt_us(rtts: &[(usize, u64)], kind: Option<usize>, p: f64) -> f64 {
    let xs: Vec<u64> = rtts
        .iter()
        .filter(|(k, _)| kind.is_none_or(|want| *k == want))
        .map(|&(_, ns)| ns)
        .collect();
    percentile(&xs, p).map_or(f64::NAN, |ns| ns as f64 / 1e3)
}

/// A traced pass: its wall time, round-trip percentiles (µs) overall and
/// per kind, and the layer timings taken right after it.
struct Traced {
    wall_s: f64,
    p50_us: f64,
    p99_us: f64,
    kind_p50_us: [f64; 5],
    codec: Result<CodecPass, String>,
    /// [`transport_pass`] seconds.
    transport: Result<f64, String>,
}

/// Codec and daemon state-machine timings on the mix, in isolation.
struct CodecPass {
    respond_s: f64,
    /// Encoding every request and every reply.
    encode_s: f64,
    /// Decoding every request and every reply.
    decode_s: f64,
}

/// A request's frame and its reply's.
type FramePair = (Vec<u8>, Vec<u8>);

/// Every request of the mix with the reply a fresh daemon gives it.
fn exchanges(mix: &[WireMsg]) -> Vec<(&WireMsg, WireMsg)> {
    let mut service = EardService::new(eard_config());
    mix.iter().map(|m| (m, service.respond(m).0)).collect()
}

/// The codec and the daemon state machine alone on the mix, or the first
/// frame that does not survive a round trip.
fn codec_pass(mix: &[WireMsg]) -> Result<CodecPass, String> {
    let t = Instant::now();
    let pairs = exchanges(mix);
    let respond_s = t.elapsed().as_secs_f64();
    let msgs: Vec<&WireMsg> = mix.iter().chain(pairs.iter().map(|(_, r)| r)).collect();
    let t = Instant::now();
    let frames: Result<Vec<Vec<u8>>, _> = msgs.iter().map(|m| encode_frame(m)).collect();
    let encode_s = t.elapsed().as_secs_f64();
    let frames = frames.map_err(|e| e.to_string())?;
    let t = Instant::now();
    let decoded: Vec<_> = frames.iter().map(|f| decode_frame(f)).collect();
    let decode_s = t.elapsed().as_secs_f64();
    // Decoding fills derived fields (a legacy signature's single-domain
    // view), so the round trip is checked on the bytes.
    for ((msg, frame), back) in msgs.iter().zip(&frames).zip(&decoded) {
        match back {
            Ok((m, used)) if *used == frame.len() && encode_frame(m).as_ref() == Ok(frame) => {}
            _ => return Err(format!("'{}' does not survive the codec", msg.kind())),
        }
    }
    Ok(CodecPass {
        respond_s,
        encode_s,
        decode_s,
    })
}

/// The kernel's share of a round trip: the system calls one request makes
/// through netd, on a bare socket pair with no netd code around them. The
/// echo thread answers as the readiness loop does (`poll` on a listener
/// and the connection, an `accept` probe, one read, one write); this
/// thread asks as `NetClient` does (one write, then the reply's header and
/// payload in two reads). Seconds for every (request, reply) frame pair of
/// the mix.
fn transport_pass(frames: &[FramePair]) -> io::Result<f64> {
    let _ = std::fs::remove_file(ECHO_SOCKET);
    let listener = UnixListener::bind(ECHO_SOCKET)?;
    let _ = std::fs::remove_file(ECHO_SOCKET);
    listener.set_nonblocking(true)?;
    let (near, mut far) = UnixStream::pair()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> io::Result<()> {
            let mut fds = [
                PollFd::new(listener.as_raw_fd(), POLLIN),
                PollFd::new(far.as_raw_fd(), POLLIN),
            ];
            let mut buf = vec![0u8; READ_CHUNK];
            for (req, reply) in frames {
                let mut got = 0;
                while got < req.len() {
                    poll_fds(&mut fds, Some(Duration::from_secs(10)))?;
                    match listener.accept() {
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                        Err(e) => return Err(e),
                        Ok(_) => return Err(io::Error::other("unexpected connection")),
                    }
                    match far.read(&mut buf)? {
                        0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                        n => got += n,
                    }
                }
                far.write_all(reply)?;
            }
            Ok(())
        });
        // Owned here, so an error drops it and ends the echo thread.
        let mut near = near;
        let mut buf = Vec::new();
        let t = Instant::now();
        for (req, reply) in frames {
            near.write_all(req)?;
            buf.resize(reply.len(), 0);
            let (header, payload) = buf.split_at_mut(HEADER_LEN.min(reply.len()));
            near.read_exact(header)?;
            near.read_exact(payload)?;
            if buf != *reply {
                return Err(io::Error::other("the echo changed a frame"));
            }
        }
        let seconds = t.elapsed().as_secs_f64();
        drop(near);
        echo.join()
            .map_err(|_| io::Error::other("echo thread panicked"))??;
        Ok(seconds)
    })
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let requests = mix(args.seed, REQUESTS);
    // The traced run's transport replays the mix's frames.
    let frame = |m: &WireMsg| encode_frame(m).map_err(|e| e.to_string());
    let frames: Result<Vec<FramePair>, String> = match args.trace {
        true => exchanges(&requests)
            .iter()
            .map(|(req, reply)| Ok((frame(req)?, frame(reply)?)))
            .collect(),
        false => Ok(Vec::new()),
    };
    // The server's own budget outlives the run; it exits on the poison
    // frame well before.
    let deadline = args.seconds + Duration::from_secs(150);
    let stats0 = ear_netd::stats::snapshot();

    // Set-up starts a daemon: up front, and before every pass, so each
    // pass meets a fresh daemon and the set-ups spread over the run. A
    // start right after a pass (and a move to another CPU) meets cold
    // caches, so an untimed start and stop comes first, as in a run of
    // set-ups.
    let mut setups = Vec::new();
    let mut set_up = |reps| -> Result<Daemon, String> {
        for _ in 0..reps {
            start(deadline).and_then(|d| stop(d, 0))?;
        }
        let t = Instant::now();
        let started = start(deadline);
        setups.push(t.elapsed().as_secs_f64());
        started
    };
    pinned(0);
    for _ in 0..SETUP_REPS {
        if let Err(e) = set_up(0).and_then(|d| stop(d, 0)) {
            report.problem(format!("set-up: {e}"));
        }
    }

    // Every request counts, the warm-up pass's too.
    let (mut sent, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut rtts = Vec::with_capacity(REQUESTS);
    let mut traced: Vec<Traced> = Vec::new();
    let mut overhead_s = 0.0;
    let (_, measured) = passes(args.seconds, || {
        let mix_passes = if args.trace { 2 } else { 1 };
        let mut daemon = match set_up(1) {
            Ok(d) => d,
            Err(e) => {
                problems.push(e);
                sent += mix_passes * REQUESTS as u64;
                failed += mix_passes * REQUESTS as u64;
                return None;
            }
        };
        if let Err(e) = host::check_threads("daemon-rpc with the server up") {
            problems.push(e);
        }
        let mut model = RpcModel::new(NODE, eard_config().idle_power_w);
        let mut send =
            |rtts: Option<&mut Vec<_>>| pass(&mut daemon.client, &requests, &mut model, rtts);
        // A traced run alternates which of its two mixes goes first, so
        // neither always meets the caches the other warmed.
        let traced_first = args.trace && traced.len() % 2 == 1;
        let tp_first = traced_first.then(|| send(Some(&mut rtts)));
        let p = send(None);
        let tp = tp_first.or_else(|| args.trace.then(|| send(Some(&mut rtts))));
        sent += mix_passes * REQUESTS as u64;
        failed += p.failed + tp.as_ref().map_or(0, |tp| tp.failed);
        overhead_s += daemon.client.overhead_nanos() as f64 / 1e9;
        if let Err(e) = stop(daemon, mix_passes * REQUESTS as u64) {
            problems.push(format!("daemon: {e}"));
        }
        if let Some(tp) = tp {
            // The daemon is down, so the transport's echo thread never
            // shares the process with the server's.
            let transport = match &frames {
                Ok(frames) => transport_pass(frames).map_err(|e| format!("transport: {e}")),
                Err(e) => Err(e.clone()),
            };
            traced.push(Traced {
                wall_s: tp.wall_s(),
                p50_us: rtt_us(&rtts, None, 50.0),
                p99_us: rtt_us(&rtts, None, 99.0),
                kind_p50_us: std::array::from_fn(|k| rtt_us(&rtts, Some(k), 50.0)),
                codec: codec_pass(&requests),
                transport,
            });
        }
        Some(p)
    });
    let stats1 = ear_netd::stats::snapshot();
    report.attempted = sent;
    report.failed = failed;
    report.problems.extend(problems);
    report.set_quiet("setup_s", &setups);

    let measured: Vec<Pass> = measured.into_iter().flatten().collect();
    let units: Vec<Vec<f64>> = measured.iter().map(|p| p.unit_s.clone()).collect();
    report.set_walls(&units);
    let walls: Vec<f64> = measured.iter().map(Pass::wall_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| REQUESTS as f64 / w).collect();
    report.set_median("req_per_s", &rates);
    report.set("bench.passes", measured.len() as f64);
    if args.trace {
        trace_report(&traced, &walls, &mut report);
        report.set("netd.client_overhead_s", overhead_s);
        report.set("netd.retried", (stats1.retried - stats0.retried) as f64);
        report.set(
            "netd.timed_out",
            (stats1.timed_out - stats0.timed_out) as f64,
        );
    }
    report
}

/// The traced run's metrics. `traced[0]` ran in the warm-up pass and is
/// not timed; `walls` are the untraced passes' wall times.
fn trace_report(traced: &[Traced], walls: &[f64], report: &mut Report) {
    let traced = &traced[1.min(traced.len())..];
    // Per traced pass: (encode, decode, respond, transport, pass wall).
    let mut layers = Vec::new();
    for t in traced {
        match (&t.codec, &t.transport) {
            (Ok(c), Ok(tr)) => layers.push((c.encode_s, c.decode_s, c.respond_s, *tr, t.wall_s)),
            (Err(e), _) | (_, Err(e)) => report.problem(e.clone()),
        }
    }
    let per_request = |s: f64| s / REQUESTS as f64;
    let quiet_of = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| {
        quiet(&layers.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    // Each request and each reply is encoded and decoded once.
    report.set("netd.encode_ns", per_request(quiet_of(|l| l.0)) * 1e9 / 2.0);
    report.set("netd.decode_ns", per_request(quiet_of(|l| l.1)) * 1e9 / 2.0);
    report.set("core.respond_ns", per_request(quiet_of(|l| l.2)) * 1e9);
    report.set("netd.transport_us", per_request(quiet_of(|l| l.3)) * 1e6);
    // Coverage and the untimed rest compare each traced pass with the
    // layer timings taken right after it, on the same host conditions.
    let timed = |l: &(f64, f64, f64, f64, f64)| l.0 + l.1 + l.2 + l.3;
    let coverage: Vec<f64> = layers.iter().map(|l| timed(l) / l.4).collect();
    let untimed: Vec<f64> = layers
        .iter()
        .map(|l| per_request(l.4 - timed(l)) * 1e6)
        .collect();
    report.set_median("trace.coverage", &coverage);
    report.set_median("netd.untimed_us", &untimed);
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
    let overhead = quiet(&traced_walls)
        .zip(quiet(walls))
        .map(|(t, u)| t / u - 1.0);
    report.set("trace.overhead_frac", overhead.unwrap_or(f64::NAN));

    let med = |f: fn(&Traced) -> f64| traced.iter().map(f).collect::<Vec<_>>();
    report.set_median("rtt_p50_us", &med(|t| t.p50_us));
    report.set_median("rtt_p99_us", &med(|t| t.p99_us));
    for (k, name) in KIND_P50.iter().enumerate() {
        let xs: Vec<f64> = traced.iter().map(|t| t.kind_p50_us[k]).collect();
        report.set_median(name, &xs);
    }
    report.set("netd.rtt_samples", (traced.len() * REQUESTS) as f64);
    report.set("trace.passes", traced.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_follow_the_rates_with_a_floor() {
        let shares = shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares.iter().all(|&s| s >= FLOOR));
        // Ping has no rate of its own; polls and caps come in pairs.
        assert_eq!(shares[0], FLOOR);
        assert_eq!(shares[1], shares[4]);
        assert!(shares[1] > shares[3] && shares[3] > shares[2]);
    }

    #[test]
    fn mix_is_seeded_and_drawn_in_its_shares() {
        let a = mix(11, 20_000);
        assert_eq!(a, mix(11, 20_000));
        assert_ne!(a, mix(12, 20_000));
        for (kind, share) in KINDS.iter().zip(shares()) {
            let n = a.iter().filter(|m| m.kind() == *kind).count() as f64;
            let expected = share * a.len() as f64;
            // Within five binomial standard deviations.
            assert!((n - expected).abs() < 5.0 * expected.sqrt(), "{kind}: {n}");
        }
    }

    #[test]
    fn the_daemon_state_machine_satisfies_the_checker() {
        let requests = mix(5, 2_000);
        let mut model = RpcModel::new(NODE, eard_config().idle_power_w);
        for (m, reply) in exchanges(&requests) {
            assert_eq!(model.check(m, &reply), Ok(()));
        }
    }

    #[test]
    fn every_mix_frame_survives_the_codec() {
        assert!(codec_pass(&mix(9, 1_000)).is_ok());
    }

    #[test]
    fn the_bare_transport_round_trips_every_frame() {
        let frames: Vec<FramePair> = exchanges(&mix(3, 50))
            .iter()
            .map(|(req, reply)| (encode_frame(req).unwrap(), encode_frame(reply).unwrap()))
            .collect();
        assert!(transport_pass(&frames).is_ok_and(|s| s > 0.0));
    }
}
