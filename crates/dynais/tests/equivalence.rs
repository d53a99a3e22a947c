//! The incremental level detector against the naive reference detector:
//! identical events and tracked periods on hand-built adversarial streams.

mod reference;

use ear_dynais::LevelDetector;
use reference::ReferenceLevelDetector;

/// Deterministic xorshift64* for reproducible pseudo-random streams.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Feeds the same stream to both detectors and asserts identical
/// events and identical tracked periods at every step.
fn assert_equivalent(window: usize, min_period: usize, stream: &[u64]) {
    let mut opt = LevelDetector::new(window, min_period);
    let mut naive = ReferenceLevelDetector::new(window, min_period);
    for (i, &v) in stream.iter().enumerate() {
        let a = opt.sample(v);
        let b = naive.sample(v);
        assert_eq!(a, b, "event diverged at sample {i}");
        assert_eq!(opt.period(), naive.period(), "period diverged at {i}");
    }
}

#[test]
fn equivalent_on_loop_switching_stream() {
    // Period 4 → break → period 3 → break → period 6 (harmonic of 3
    // content but distinct values), with aperiodic gaps between.
    let mut stream = Vec::new();
    for _ in 0..40 {
        stream.extend_from_slice(&[1, 2, 3, 4]);
    }
    stream.extend((500..540).map(|v| v * 7 + 1));
    for _ in 0..40 {
        stream.extend_from_slice(&[9, 8, 7]);
    }
    stream.extend((900..911).map(|v| v * 13 + 5));
    for _ in 0..30 {
        stream.extend_from_slice(&[21, 22, 23, 24, 25, 26]);
    }
    assert_equivalent(64, 2, &stream);
    assert_equivalent(250, 2, &stream);
}

#[test]
fn equivalent_on_phase_shifted_and_harmonic_streams() {
    // Same period restarted off-phase, and a pattern whose halves
    // collide (harmonic pressure: matches at p and 2p).
    let mut stream = Vec::new();
    for _ in 0..30 {
        stream.extend_from_slice(&[5, 6, 7, 8]);
    }
    stream.extend_from_slice(&[7, 8]); // phase shift mid-pattern
    for _ in 0..30 {
        stream.extend_from_slice(&[5, 6, 7, 8]);
    }
    for _ in 0..25 {
        stream.extend_from_slice(&[1, 2, 1, 2, 1, 9]); // p=2 locally, p=6 truly
    }
    assert_equivalent(64, 2, &stream);
    assert_equivalent(40, 3, &stream);
}

#[test]
fn equivalent_on_low_entropy_random_stream() {
    // Values drawn from a tiny alphabet create accidental matches at
    // many distances — the worst case for the live-set bookkeeping.
    let mut rng = 0x1234_5678_9ABC_DEF0u64;
    for alphabet in [2u64, 3, 5, 17] {
        let stream: Vec<u64> = (0..4000).map(|_| xorshift(&mut rng) % alphabet).collect();
        assert_equivalent(64, 2, &stream);
    }
}

#[test]
fn equivalent_on_constant_and_near_constant_streams() {
    let mut stream = vec![4u64; 300];
    stream.push(9);
    stream.extend(std::iter::repeat_n(4, 300));
    assert_equivalent(64, 2, &stream);
    assert_equivalent(250, 2, &stream);
}

#[test]
fn equivalent_across_reset() {
    let mut opt = LevelDetector::new(64, 2);
    let mut naive = ReferenceLevelDetector::new(64, 2);
    let mut rng = 42u64;
    for round in 0..4 {
        for i in 0..600 {
            let v = if i % 3 == 0 {
                xorshift(&mut rng) % 4
            } else {
                (i % 5) as u64
            };
            assert_eq!(opt.sample(v), naive.sample(v), "round {round} sample {i}");
        }
        opt.reset();
        naive.reset();
    }
}
