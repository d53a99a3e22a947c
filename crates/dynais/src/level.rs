//! Single-level periodicity detector.
//!
//! For every candidate period `p` the detector tracks the length of the
//! current run of samples satisfying `x[i] == x[i - p]`. A loop of period
//! `p` is declared once a full period has repeated (`run[p] >= p`), taking
//! the smallest such `p` (harmonics match at multiples). A single mismatch
//! at the detected period ends the loop — iterative HPC codes emit exactly
//! repeating MPI sequences, so mismatches mean real structure changes.
//!
//! # Incremental scheme
//!
//! The naive form (kept as the test oracle in `tests/reference`) rescans
//! all `window/2` candidate periods on every sample. This implementation
//! is event-stream-identical but incremental:
//!
//! * **In a loop** (the steady state for iterative HPC codes) only the
//!   detected period is checked: one window compare per sample, O(1).
//!   No run counters are maintained; when the loop breaks, the runs are
//!   reconstructed exactly from the window contents.
//! * **Out of a loop** the detector keeps the compact set of *live*
//!   candidates (non-zero runs) and an occurrence index (value → previous
//!   occurrence chain). Each sample's matching periods are exactly the
//!   chain distances ≤ `max_period`; merging that sorted set with the
//!   previous live set zeroes stale runs and bumps continuing ones, so an
//!   aperiodic stream costs O(1) amortised instead of O(window).
//!
//! Reconstruction after an in-loop episode caps each run at the streak
//! visible in the window, `window_len - p` pairs. For every admissible
//! period `p ≤ window/2` that cap is ≥ `p`, so the detection predicate
//! `run[p] >= p` — the only consumer of run magnitudes — is unaffected:
//! the capped and true values sit on the same side of the threshold, and
//! subsequent increments move them in lockstep. The property tests in
//! `tests/properties.rs` exercise this equivalence on random and
//! adversarial signals.

use crate::window::SampleWindow;
use std::collections::HashMap;

/// Detector events, mirroring EAR's DynAIS states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopEvent {
    /// Not inside a detected loop.
    NoLoop,
    /// Inside a loop, mid-iteration.
    InLoop,
    /// Inside a loop, at an iteration boundary.
    NewIteration,
    /// A loop was just detected (first boundary).
    NewLoop,
    /// The current loop ended on this sample.
    EndLoop,
    /// The current loop ended and a different one begins immediately.
    EndNewLoop,
}

impl LoopEvent {
    /// True for events that mark an iteration boundary usable for
    /// signature computation.
    pub fn is_boundary(self) -> bool {
        matches!(
            self,
            LoopEvent::NewIteration | LoopEvent::NewLoop | LoopEvent::EndNewLoop
        )
    }
}

/// Sentinel for "no previous occurrence" in the chain links.
const NO_PREV: u64 = u64::MAX;

/// One detection level.
#[derive(Debug, Clone)]
pub struct LevelDetector {
    window: SampleWindow,
    /// `run[p]` = length of the current streak of samples matching their
    /// `p`-distant predecessor (index 0 unused). Invariant while out of a
    /// loop: `run[p] > 0` exactly for the periods listed in `live`.
    run: Vec<u32>,
    /// Ascending periods with a non-zero run (valid while out of a loop).
    live: Vec<u32>,
    /// Reusable buffer for the current sample's matching periods.
    scratch: Vec<u32>,
    /// value → absolute index of its most recent occurrence.
    occ_last: HashMap<u64, u64>,
    /// Per window slot: absolute index of the *previous* occurrence of the
    /// value stored there (`NO_PREV` if none). Together with `occ_last`
    /// this forms per-value occurrence chains through the window.
    occ_prev: Vec<u64>,
    min_period: usize,
    period: Option<usize>,
    pos_in_period: usize,
    /// Absolute index of the next sample (samples pushed since reset).
    total: u64,
}

impl LevelDetector {
    /// Creates a detector with the given window size and minimum period.
    pub fn new(window_size: usize, min_period: usize) -> Self {
        assert!(min_period >= 1);
        let max_period = window_size / 2;
        assert!(max_period >= min_period, "window too small for min period");
        Self {
            window: SampleWindow::new(window_size),
            run: vec![0; max_period + 1],
            live: Vec::new(),
            scratch: Vec::new(),
            occ_last: HashMap::new(),
            occ_prev: vec![NO_PREV; window_size],
            min_period,
            period: None,
            pos_in_period: 0,
            total: 0,
        }
    }

    /// Largest detectable period.
    pub fn max_period(&self) -> usize {
        self.run.len() - 1
    }

    /// The period of the loop currently tracked, if any.
    pub fn period(&self) -> Option<usize> {
        self.period
    }

    /// Feeds one sample and classifies it.
    pub fn sample(&mut self, v: u64) -> LoopEvent {
        self.window.push(v);
        let t = self.total;
        self.total += 1;

        match self.period {
            Some(p) => {
                // In-loop fast path: the only run the naive detector ever
                // reads here is run[p], and run[p] != 0 after this sample
                // iff the sample matches its p-distant predecessor.
                if self.window.recent(p) == Some(v) {
                    self.pos_in_period += 1;
                    if self.pos_in_period >= p {
                        self.pos_in_period = 0;
                        LoopEvent::NewIteration
                    } else {
                        LoopEvent::InLoop
                    }
                } else {
                    // Structure broke. Does a different loop take over?
                    self.period = None;
                    self.pos_in_period = 0;
                    self.rebuild_runs();
                    if let Some(np) = self.detect() {
                        self.enter_loop(np);
                        LoopEvent::EndNewLoop
                    } else {
                        self.rebuild_occurrences();
                        LoopEvent::EndLoop
                    }
                }
            }
            None => {
                self.collect_matches(t, v);
                self.apply_matches();
                self.record_occurrence(t, v);
                if let Some(p) = self.detect() {
                    self.enter_loop(p);
                    LoopEvent::NewLoop
                } else {
                    LoopEvent::NoLoop
                }
            }
        }
    }

    /// Resets all detection state (application phase change).
    pub fn reset(&mut self) {
        self.window.clear();
        self.run.iter_mut().for_each(|r| *r = 0);
        self.live.clear();
        self.occ_last.clear();
        self.occ_prev.iter_mut().for_each(|p| *p = NO_PREV);
        self.period = None;
        self.pos_in_period = 0;
        self.total = 0;
    }

    /// Window slot holding the sample with absolute index `idx`. Valid for
    /// the last `capacity` samples: slots are filled round-robin from 0 and
    /// `reset` zeroes both the window head and `total` together.
    fn slot_of(&self, idx: u64) -> usize {
        (idx % self.window.capacity() as u64) as usize
    }

    /// Exact run reconstruction from the window, used when a loop breaks.
    /// Each run is the match streak ending at the newest sample, capped at
    /// the `window_len - p` pairs the window can show (predicate-equivalent
    /// to the uncapped value for every detectable period, see module docs).
    fn rebuild_runs(&mut self) {
        self.live.clear();
        let n = self.window.len();
        for p in 1..self.run.len() {
            let mut k = 0usize;
            while k + p < n {
                // Both offsets are < n, so the lookups cannot miss; a miss
                // would only shorten the reconstructed run, never panic.
                let (Some(a), Some(b)) = (self.window.recent(k), self.window.recent(k + p)) else {
                    break;
                };
                if a != b {
                    break;
                }
                k += 1;
            }
            self.run[p] = k as u32;
            if k > 0 {
                self.live.push(p as u32);
            }
        }
    }

    /// Rebuilds the occurrence chains from the current window contents,
    /// used when a loop ends without another taking over (the chains were
    /// not maintained while the in-loop fast path was active).
    fn rebuild_occurrences(&mut self) {
        self.occ_last.clear();
        let n = self.window.len();
        let first = self.total - n as u64;
        for i in 0..n {
            let idx = first + i as u64;
            // `n - 1 - i < n`, so the lookup cannot miss; skipping a missed
            // slot would only thin the rebuilt chains, never panic.
            let Some(v) = self.window.recent(n - 1 - i) else {
                continue;
            };
            let slot = self.slot_of(idx);
            self.occ_prev[slot] = self.occ_last.insert(v, idx).unwrap_or(NO_PREV);
        }
    }

    /// Fills `scratch` with the periods (ascending) at which the new sample
    /// `v` at index `t` matches its predecessor: exactly the distances to
    /// prior occurrences of `v` within `max_period`. Chain links are only
    /// followed while the distance bound holds, which also guarantees the
    /// linked slots have not been recycled (`max_period ≤ capacity / 2`).
    fn collect_matches(&mut self, t: u64, v: u64) {
        self.scratch.clear();
        let maxp = (self.run.len() - 1) as u64;
        let mut at = self.occ_last.get(&v).copied();
        while let Some(idx) = at {
            let d = t - idx;
            if d > maxp {
                break;
            }
            self.scratch.push(d as u32);
            let prev = self.occ_prev[self.slot_of(idx)];
            at = (prev != NO_PREV).then_some(prev);
        }
    }

    /// Merges the matched-period set in `scratch` into `run`/`live`:
    /// unmatched live runs reset to zero, matched runs extend by one. The
    /// matched set becomes the new live set (both are ascending).
    fn apply_matches(&mut self) {
        let mut j = 0;
        for &p in &self.live {
            while j < self.scratch.len() && self.scratch[j] < p {
                j += 1;
            }
            if j >= self.scratch.len() || self.scratch[j] != p {
                self.run[p as usize] = 0;
            }
        }
        for &p in &self.scratch {
            let r = &mut self.run[p as usize];
            *r = r.saturating_add(1);
        }
        std::mem::swap(&mut self.live, &mut self.scratch);
    }

    /// Threads the new sample into its value's occurrence chain.
    fn record_occurrence(&mut self, t: u64, v: u64) {
        let slot = self.slot_of(t);
        self.occ_prev[slot] = self.occ_last.insert(v, t).unwrap_or(NO_PREV);
        // Bound the index size: entries older than a full window can never
        // be within max_period again; prune them once enough have piled up
        // so the amortised cost per sample stays O(1).
        let cap = self.window.capacity();
        if self.occ_last.len() > 2 * cap {
            self.occ_last.retain(|_, &mut idx| t - idx <= cap as u64);
        }
    }

    fn detect(&self) -> Option<usize> {
        // `live` is ascending, so the first admissible hit is the smallest
        // period — identical to the naive full scan.
        self.live
            .iter()
            .map(|&p| p as usize)
            .find(|&p| p >= self.min_period && self.run[p] as usize >= p)
    }

    fn enter_loop(&mut self, p: usize) {
        self.period = Some(p);
        self.pos_in_period = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut LevelDetector, pattern: &[u64], reps: usize) -> Vec<LoopEvent> {
        let mut out = Vec::new();
        for _ in 0..reps {
            for &v in pattern {
                out.push(det.sample(v));
            }
        }
        out
    }

    #[test]
    fn detects_simple_period_4() {
        let mut det = LevelDetector::new(64, 2);
        let events = feed(&mut det, &[1, 2, 3, 4], 6);
        assert_eq!(det.period(), Some(4));
        let first_new = events.iter().position(|e| *e == LoopEvent::NewLoop);
        // Detection after two full periods: 8 samples (index 7).
        assert_eq!(first_new, Some(7));
        // After detection every 4th sample is an iteration boundary.
        let boundaries = events.iter().filter(|e| e.is_boundary()).count();
        assert!(boundaries >= 4, "boundaries {boundaries}");
    }

    #[test]
    fn no_loop_on_random_stream() {
        let mut det = LevelDetector::new(64, 2);
        // Strictly increasing: never periodic.
        for v in 0..200u64 {
            assert_eq!(det.sample(v), LoopEvent::NoLoop);
        }
        assert_eq!(det.period(), None);
    }

    #[test]
    fn loop_end_detected() {
        let mut det = LevelDetector::new(64, 2);
        feed(&mut det, &[7, 8], 8);
        assert_eq!(det.period(), Some(2));
        // Break the pattern with non-repeating samples.
        let e = det.sample(100);
        assert_eq!(e, LoopEvent::EndLoop);
        assert_eq!(det.period(), None);
    }

    #[test]
    fn loop_to_loop_transition() {
        let mut det = LevelDetector::new(64, 2);
        feed(&mut det, &[1, 2], 10);
        assert_eq!(det.period(), Some(2));
        // Switch to a period-3 pattern; after enough repetitions the
        // detector must land in the new loop.
        let events = feed(&mut det, &[5, 6, 9], 6);
        assert_eq!(det.period(), Some(3));
        assert!(events
            .iter()
            .any(|e| matches!(e, LoopEvent::EndLoop | LoopEvent::EndNewLoop)));
    }

    #[test]
    fn smallest_period_wins_over_harmonics() {
        let mut det = LevelDetector::new(64, 2);
        feed(&mut det, &[1, 2], 12);
        // Period 2, not 4/6/8.
        assert_eq!(det.period(), Some(2));
    }

    #[test]
    fn min_period_respected() {
        let mut det = LevelDetector::new(64, 2);
        // A constant stream has period 1, below min_period 2: the detector
        // reports period 2 instead (smallest admissible harmonic).
        feed(&mut det, &[9], 20);
        assert_eq!(det.period(), Some(2));
    }

    #[test]
    fn reset_clears_state() {
        let mut det = LevelDetector::new(64, 2);
        feed(&mut det, &[1, 2, 3], 8);
        assert!(det.period().is_some());
        det.reset();
        assert_eq!(det.period(), None);
        assert_eq!(det.sample(1), LoopEvent::NoLoop);
    }

    #[test]
    fn long_period_within_window() {
        let mut det = LevelDetector::new(128, 2);
        let pattern: Vec<u64> = (0..50).collect();
        feed(&mut det, &pattern, 4);
        assert_eq!(det.period(), Some(50));
    }

    #[test]
    fn period_beyond_window_is_invisible() {
        let mut det = LevelDetector::new(32, 2); // max period 16
        let pattern: Vec<u64> = (0..20).collect();
        feed(&mut det, &pattern, 6);
        assert_eq!(det.period(), None);
    }
}
