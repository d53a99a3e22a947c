//! Property tests for DynAIS: the invariants EARL depends on, and the
//! equivalence of the incremental detector with the naive reference.

mod reference;

use ear_dynais::{DynAis, DynaisConfig, LevelDetector, LoopEvent};
use proptest::prelude::*;
use reference::{ReferenceDynAis, ReferenceLevelDetector};

/// Building blocks for adversarial signals: the strategies compose periodic
/// bursts (with value collisions across patterns), phase shifts, and
/// aperiodic noise into one stream.
#[derive(Debug, Clone)]
enum Segment {
    /// `reps` repetitions of a pattern drawn from a small alphabet.
    Periodic { pattern: Vec<u64>, reps: usize },
    /// A partial pattern prefix — phase-shifts whatever follows.
    Prefix { pattern: Vec<u64>, cut: usize },
    /// Aperiodic filler from a small alphabet (accidental matches galore).
    Noise { values: Vec<u64> },
}

fn segment_strategy() -> impl Strategy<Value = Segment> {
    prop_oneof![
        (proptest::collection::vec(0u64..8, 1..12), 3usize..12)
            .prop_map(|(pattern, reps)| Segment::Periodic { pattern, reps }),
        (proptest::collection::vec(0u64..8, 2..12), 1usize..8)
            .prop_map(|(pattern, cut)| Segment::Prefix { pattern, cut }),
        proptest::collection::vec(0u64..8, 1..40).prop_map(|values| Segment::Noise { values }),
    ]
}

fn render(segments: &[Segment]) -> Vec<u64> {
    let mut out = Vec::new();
    for s in segments {
        match s {
            Segment::Periodic { pattern, reps } => {
                for _ in 0..*reps {
                    out.extend_from_slice(pattern);
                }
            }
            Segment::Prefix { pattern, cut } => {
                let cut = (*cut).min(pattern.len());
                out.extend_from_slice(&pattern[..cut]);
            }
            Segment::Noise { values } => out.extend_from_slice(values),
        }
    }
    out
}

proptest! {
    /// The incremental detector and the naive reference emit identical
    /// event streams and tracked periods on arbitrary random input.
    #[test]
    fn level_matches_reference_on_random_input(
        values in proptest::collection::vec(0u64..10, 0..1500),
        window in prop_oneof![Just(16usize), Just(64), Just(250)],
    ) {
        let mut opt = LevelDetector::new(window, 2);
        let mut naive = ReferenceLevelDetector::new(window, 2);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(opt.sample(v), naive.sample(v), "sample {}", i);
            prop_assert_eq!(opt.period(), naive.period(), "period after {}", i);
        }
    }

    /// Same equivalence on adversarial compositions: harmonic patterns,
    /// phase-shifted restarts, and loop-switching sequences.
    #[test]
    fn level_matches_reference_on_adversarial_signals(
        segments in proptest::collection::vec(segment_strategy(), 1..10),
    ) {
        let stream = render(&segments);
        let mut opt = LevelDetector::new(64, 2);
        let mut naive = ReferenceLevelDetector::new(64, 2);
        for (i, &v) in stream.iter().enumerate() {
            prop_assert_eq!(opt.sample(v), naive.sample(v), "sample {}", i);
        }
    }

    /// The full stacks agree: identical `DynaisResult` streams (event,
    /// level, and period) through the multi-level digest machinery.
    #[test]
    fn stack_matches_reference_on_adversarial_signals(
        segments in proptest::collection::vec(segment_strategy(), 1..8),
        levels in 1usize..5,
    ) {
        let stream = render(&segments);
        let config = DynaisConfig { levels, window_size: 64, min_period: 2 };
        let mut opt = DynAis::new(&config);
        let mut naive = ReferenceDynAis::new(&config);
        for (i, &v) in stream.iter().enumerate() {
            prop_assert_eq!(opt.sample(v), naive.sample(v), "sample {}", i);
            prop_assert_eq!(opt.governing_level(), naive.governing_level(), "level after {}", i);
        }
    }
}

proptest! {
    /// Any strictly periodic signal with period within the window is
    /// eventually detected with exactly that period (patterns are built
    /// with distinct values so no smaller period exists).
    #[test]
    fn periodic_signal_detected(period in 2usize..40, reps in 4usize..10) {
        let mut det = LevelDetector::new(128, 2);
        let pattern: Vec<u64> = (0..period as u64).map(|i| i * 1_000_003 + 17).collect();
        for _ in 0..reps.max(3) {
            for &v in &pattern {
                det.sample(v);
            }
        }
        prop_assert_eq!(det.period(), Some(period));
    }

    /// The detector never reports a period below the configured minimum.
    #[test]
    fn min_period_is_enforced(samples in proptest::collection::vec(0u64..4, 20..300)) {
        let mut det = LevelDetector::new(64, 3);
        for v in samples {
            det.sample(v);
        }
        if let Some(p) = det.period() {
            prop_assert!(p >= 3, "period {p}");
        }
    }

    /// Iteration boundaries of a detected loop arrive exactly once per
    /// period after detection.
    #[test]
    fn boundaries_match_period(period in 2usize..20) {
        let mut det = LevelDetector::new(128, 2);
        let pattern: Vec<u64> = (0..period as u64).map(|i| i * 7919 + 3).collect();
        // Warm up until detection.
        for _ in 0..3 {
            for &v in &pattern {
                det.sample(v);
            }
        }
        prop_assert_eq!(det.period(), Some(period));
        // Measure boundary spacing over 5 more periods.
        let mut since_last = 0usize;
        let mut gaps = Vec::new();
        for _ in 0..5 {
            for &v in &pattern {
                since_last += 1;
                if det.sample(v).is_boundary() {
                    gaps.push(since_last);
                    since_last = 0;
                }
            }
        }
        prop_assert!(!gaps.is_empty());
        for g in gaps {
            prop_assert_eq!(g, period);
        }
    }

    /// EndLoop events are always preceded by a loop: the stack never emits
    /// an unmatched end, and `in_loop` is consistent with events.
    #[test]
    fn no_unmatched_end(values in proptest::collection::vec(0u64..6, 50..500)) {
        let mut d = DynAis::new(&DynaisConfig { levels: 3, window_size: 64, min_period: 2 });
        let mut in_loop = false;
        for v in values {
            let r = d.sample(v);
            match r.event {
                LoopEvent::NewLoop => in_loop = true,
                LoopEvent::EndLoop => {
                    prop_assert!(in_loop, "EndLoop without a preceding NewLoop");
                    in_loop = d.in_loop();
                }
                LoopEvent::EndNewLoop => {
                    prop_assert!(in_loop, "EndNewLoop without a preceding NewLoop");
                }
                LoopEvent::NewIteration | LoopEvent::InLoop => {
                    prop_assert!(d.in_loop());
                }
                LoopEvent::NoLoop => {}
            }
        }
    }

    /// Determinism: the same input stream yields the same event stream.
    #[test]
    fn deterministic(values in proptest::collection::vec(any::<u64>(), 10..200)) {
        let mut a = DynAis::with_defaults();
        let mut b = DynAis::with_defaults();
        for v in &values {
            prop_assert_eq!(a.sample(*v), b.sample(*v));
        }
    }

    /// Feeding arbitrary data never panics and sample count is exact.
    #[test]
    fn robust_to_arbitrary_input(values in proptest::collection::vec(any::<u64>(), 0..400)) {
        let mut d = DynAis::with_defaults();
        for v in &values {
            d.sample(*v);
        }
        prop_assert_eq!(d.samples(), values.len() as u64);
    }
}
