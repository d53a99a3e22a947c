//! Reference (naive O(window)) DynAIS implementation.
//!
//! This module preserves the original eager detector verbatim: every sample
//! rescans all `window/2` candidate periods and updates every run counter.
//! It is the executable specification for the incremental detector in
//! `ear_dynais::level` — the equivalence tests in `equivalence.rs` and
//! `properties.rs` assert that both emit identical event streams on
//! arbitrary signals. It lives under `tests/` because nothing but those
//! tests needs it.

// Each test crate that includes the oracle uses a different subset of it.
#![allow(dead_code)]

use ear_dynais::window::SampleWindow;
use ear_dynais::{DynaisConfig, DynaisResult, LoopEvent};

/// The digest mix of `ear_dynais::dynais` (SplitMix64 finaliser), frozen
/// here so the reference stack's digest stream stays comparable.
fn mix(acc: u64, v: u64) -> u64 {
    let mut z = acc ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One detection level, naive eager form: O(window) work per sample.
#[derive(Debug, Clone)]
pub struct ReferenceLevelDetector {
    window: SampleWindow,
    /// `run[p]` = length of the current streak of samples matching their
    /// `p`-distant predecessor (index 0 unused).
    run: Vec<u32>,
    min_period: usize,
    period: Option<usize>,
    pos_in_period: usize,
}

impl ReferenceLevelDetector {
    /// Creates a detector with the given window size and minimum period.
    pub fn new(window_size: usize, min_period: usize) -> Self {
        assert!(min_period >= 1);
        let max_period = window_size / 2;
        assert!(max_period >= min_period, "window too small for min period");
        Self {
            window: SampleWindow::new(window_size),
            run: vec![0; max_period + 1],
            min_period,
            period: None,
            pos_in_period: 0,
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
        // Update match runs against each candidate period. `recent(0)` is
        // the sample just pushed; an empty window here is unreachable, and
        // the benign answer is "no structure".
        let Some(newest) = self.window.recent(0) else {
            return LoopEvent::NoLoop;
        };
        for p in 1..self.run.len() {
            match self.window.recent(p) {
                Some(prev) if prev == newest => self.run[p] = self.run[p].saturating_add(1),
                _ => self.run[p] = 0,
            }
        }

        match self.period {
            Some(p) => {
                if self.run[p] == 0 {
                    // Structure broke. Does a different loop take over?
                    self.period = None;
                    self.pos_in_period = 0;
                    if let Some(np) = self.detect() {
                        self.enter_loop(np);
                        LoopEvent::EndNewLoop
                    } else {
                        LoopEvent::EndLoop
                    }
                } else {
                    self.pos_in_period += 1;
                    if self.pos_in_period >= p {
                        self.pos_in_period = 0;
                        LoopEvent::NewIteration
                    } else {
                        LoopEvent::InLoop
                    }
                }
            }
            None => {
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
        self.period = None;
        self.pos_in_period = 0;
    }

    fn detect(&self) -> Option<usize> {
        (self.min_period..self.run.len()).find(|&p| self.run[p] as usize >= p)
    }

    fn enter_loop(&mut self, p: usize) {
        self.period = Some(p);
        self.pos_in_period = 0;
    }
}

/// The stacked reference detector, mirroring `ear_dynais::DynAis` exactly but
/// built on [`ReferenceLevelDetector`].
#[derive(Debug, Clone)]
pub struct ReferenceDynAis {
    levels: Vec<ReferenceLevelDetector>,
    digests: Vec<u64>,
    samples: u64,
}

impl ReferenceDynAis {
    /// Builds a detector stack from `config`.
    pub fn new(config: &DynaisConfig) -> Self {
        assert!(config.levels >= 1);
        Self {
            levels: (0..config.levels)
                .map(|_| ReferenceLevelDetector::new(config.window_size, config.min_period))
                .collect(),
            digests: vec![0; config.levels],
            samples: 0,
        }
    }

    /// A detector with EAR's default geometry.
    pub fn with_defaults() -> Self {
        Self::new(&DynaisConfig::default())
    }

    /// Total samples consumed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Period currently tracked at `level`, if any.
    pub fn period_at(&self, level: usize) -> Option<usize> {
        self.levels.get(level).and_then(|l| l.period())
    }

    /// The highest level currently inside a loop, if any.
    pub fn governing_level(&self) -> Option<usize> {
        (0..self.levels.len())
            .rev()
            .find(|&i| self.levels[i].period().is_some())
    }

    /// True when any level is inside a loop.
    pub fn in_loop(&self) -> bool {
        self.governing_level().is_some()
    }

    /// Feeds one sample through the stack (see `ear_dynais::DynAis::sample`).
    pub fn sample(&mut self, value: u64) -> DynaisResult {
        self.samples += 1;
        let mut best: Option<(usize, LoopEvent)> = None;
        let mut upward: Option<u64> = Some(value);
        let mut reset_above: Option<usize> = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            let Some(v) = upward else { break };
            let event = level.sample(v);
            self.digests[i] = mix(self.digests[i], v);
            if event.is_boundary() {
                best = Some((i, event));
                let p = level.period().unwrap_or(0) as u64;
                upward = Some(mix(self.digests[i], p | 0x9E37_79B9_0000_0000));
                self.digests[i] = 0;
                if event == LoopEvent::EndNewLoop {
                    reset_above = Some(i);
                }
            } else {
                if matches!(event, LoopEvent::EndLoop) {
                    self.digests[i] = 0;
                    reset_above = Some(i);
                    if best.is_none() {
                        best = Some((i, event));
                    }
                }
                upward = None;
            }
            if i == 0 && best.is_none() {
                best = Some((0, event));
            }
        }
        if let Some(i) = reset_above {
            for j in (i + 1)..self.levels.len() {
                self.levels[j].reset();
                self.digests[j] = 0;
            }
        }
        let (level, event) = best.unwrap_or((0, LoopEvent::NoLoop));
        DynaisResult {
            event,
            level,
            period: self.levels[level].period(),
        }
    }

    /// Resets every level.
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            l.reset();
        }
        self.digests.iter_mut().for_each(|d| *d = 0);
    }
}
