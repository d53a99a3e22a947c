//! The dual-knob `powercap` search, closed loop on a live archsim node:
//! each decision is driven by a real measured signature window, and a
//! warm start from a fitted power surface must reach `Ready` at a deep cap
//! in fewer windows than the cold search.

use ear_archsim::{Node, NodeConfig, PhaseDemand, Pstate, PstateTable};
use ear_core::policy::{PolicyCtx, PolicyState, PowerPolicy, Powercap};
use ear_core::{Avx512Model, FittedSurface, PolicySettings, Poly2, Signature};

fn ctx<'a>(
    pstates: &'a PstateTable,
    model: &'a Avx512Model,
    settings: &'a PolicySettings,
) -> PolicyCtx<'a> {
    PolicyCtx {
        pstates,
        uncore_min_ratio: 12,
        uncore_max_ratio: 24,
        uncore_domains: 1,
        model,
        settings,
    }
}

/// DC power of one measured signature window at a pinned operating point.
fn probe(node: &mut Node, window: &PhaseDemand, ps: Pstate, ratio: u8) -> f64 {
    node.set_cpu_pstate(ps);
    node.set_uncore_limits(ratio, ratio)
        .expect("pin probe uncore");
    let prev = node.snapshot();
    node.run_phase(window);
    Signature::from_delta(&node.snapshot().delta(&prev), 1).dc_power_w
}

/// One settle sequence: re-arm the node at the reference point, then
/// window → signature → `node_policy` → apply, until `Ready`. Returns the
/// windows consumed.
fn settle(
    node: &mut Node,
    policy: &mut Powercap,
    ctx: &PolicyCtx<'_>,
    window: &PhaseDemand,
) -> u32 {
    node.set_cpu_pstate(1);
    node.set_uncore_limits(12, 24)
        .expect("re-arm uncore limits");
    let mut windows = 0u32;
    let mut prev = node.snapshot();
    loop {
        node.run_phase(window);
        let snap = node.snapshot();
        let sig = Signature::from_delta(&snap.delta(&prev), 1);
        prev = snap;
        windows += 1;
        let (freqs, state) = policy.node_policy(&sig, ctx);
        node.set_cpu_pstate(freqs.cpu);
        node.set_uncore_limits(freqs.imc_min_ratio, freqs.imc_max_ratio)
            .expect("apply uncore limits");
        if state == PolicyState::Ready {
            return windows;
        }
        assert!(windows < 60, "powercap search did not settle");
    }
}

#[test]
fn warm_start_settles_in_fewer_windows_than_the_cold_search() {
    let pstates = PstateTable::xeon_gold_6148();
    let model = Avx512Model::for_node(&NodeConfig::sd530_6148());
    let slowest = pstates.slowest();
    // Multi-second windows: the INM DC counter publishes once per second,
    // so sub-second windows read 0 W. Heavy memory traffic gives the
    // uncore knob real watts to shed, so the search is genuinely 2-D.
    let window = PhaseDemand {
        instructions: 8e11,
        mem_bytes: 160e9,
        cpi_core: 0.38,
        uncore_lat_cycles: 4.0,
        mem_overlap: 0.6,
        active_cores: 40,
        ..Default::default()
    };

    // Noise off: probes, cap and settle trajectories are exactly
    // reproducible.
    let mut cfg = NodeConfig::sd530_6148();
    cfg.noise_sigma = 0.0;
    let mut node = Node::new(cfg, 7);

    // Probe windows calibrate a linear power surface (the corners of what
    // `earsim sweep` would measure) and fix a deep but reachable cap: 30 %
    // of the way from the floor to the reference draw.
    let (f_hi, f_mid) = (pstates.ghz(1), pstates.ghz(4));
    let p_ref = probe(&mut node, &window, 1, 24);
    let p_mid_f = probe(&mut node, &window, 4, 24);
    let p_low_u = probe(&mut node, &window, 1, 16);
    let p_floor = probe(&mut node, &window, slowest, 12);
    assert!(
        p_ref > p_floor + 1.0,
        "no dynamic range between reference ({p_ref:.1} W) and floor ({p_floor:.1} W)"
    );
    let cap_w = p_floor + 0.3 * (p_ref - p_floor);
    let b = (p_ref - p_mid_f) / (f_hi - f_mid);
    let c = (p_ref - p_low_u) / (2.4 - 1.6);
    let a = p_ref - b * f_hi - c * 2.4;
    let surface = FittedSurface {
        // Time falls with core frequency and weakly with uncore: enough
        // structure for the warm start to order admissible points.
        time: Poly2 {
            coeffs: [100.0, -20.0, -1.0, 0.0, 0.0, 0.0],
        },
        power: Poly2 {
            coeffs: [a, b, c, 0.0, 0.0, 0.0],
        },
        f_range_ghz: (pstates.ghz(slowest), f_hi),
        u_range_ghz: (1.2, 2.4),
    };

    let cold = PolicySettings {
        cap_w: Some(cap_w),
        ..Default::default()
    };
    let warm = PolicySettings {
        cap_w: Some(cap_w),
        fitted: Some(surface),
        ..Default::default()
    };
    let w_cold = settle(
        &mut node,
        &mut Powercap::default(),
        &ctx(&pstates, &model, &cold),
        &window,
    );
    let w_warm = settle(
        &mut node,
        &mut Powercap::default(),
        &ctx(&pstates, &model, &warm),
        &window,
    );
    assert!(
        w_warm < w_cold,
        "warm start saved no windows (cold {w_cold}, warm {w_warm})"
    );
}
