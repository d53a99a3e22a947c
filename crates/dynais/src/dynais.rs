//! Multi-level DynAIS detector.
//!
//! EAR's DynAIS stacks several periodicity detectors: level 0 consumes the
//! raw MPI-event signal; whenever level *k* completes an iteration, a digest
//! of that iteration is fed to level *k+1*, so higher levels see one sample
//! per inner iteration and detect *outer* loops whose period is the product
//! of the levels' periods. EARL drives its signature computation from the
//! iteration boundaries of the highest level that is inside a loop.

use crate::level::{LevelDetector, LoopEvent};

/// Result of feeding one sample to the detector stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynaisResult {
    /// The reported event (from `level`).
    pub event: LoopEvent,
    /// The level the event belongs to (0 = raw samples).
    pub level: usize,
    /// Period of the loop at that level, when in a loop.
    pub period: Option<usize>,
}

/// Configuration for [`DynAis`].
#[derive(Debug, Clone)]
pub struct DynaisConfig {
    /// Number of stacked levels (EAR ships with up to 10; 4 is plenty for
    /// the paper's applications).
    pub levels: usize,
    /// Window size per level (EAR's default is in the hundreds).
    pub window_size: usize,
    /// Minimum admissible loop period.
    pub min_period: usize,
}

impl Default for DynaisConfig {
    fn default() -> Self {
        Self {
            levels: 4,
            window_size: 250,
            min_period: 2,
        }
    }
}

/// The stacked detector.
#[derive(Debug, Clone)]
pub struct DynAis {
    levels: Vec<LevelDetector>,
    /// Rolling digest of the in-progress iteration at each level, fed
    /// upward when the iteration completes.
    digests: Vec<u64>,
    /// Total samples consumed.
    samples: u64,
}

impl DynAis {
    /// Builds a detector stack from `config`.
    pub fn new(config: &DynaisConfig) -> Self {
        assert!(config.levels >= 1);
        Self {
            levels: (0..config.levels)
                .map(|_| LevelDetector::new(config.window_size, config.min_period))
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

    /// Feeds one sample (a hashed MPI event) through the stack.
    ///
    /// Returns the event of the *highest* level that produced a boundary
    /// this round, or level 0's event when no boundary occurred anywhere.
    pub fn sample(&mut self, value: u64) -> DynaisResult {
        self.samples += 1;
        let mut best: Option<(usize, LoopEvent)> = None;
        let mut upward: Option<u64> = Some(value);
        let mut reset_above: Option<usize> = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            let Some(v) = upward else { break };
            let event = level.sample(v);
            // Fold the sample into this level's running iteration digest.
            self.digests[i] = mix(self.digests[i], v);
            if event.is_boundary() {
                best = Some((i, event));
                // Completed iteration: hand its digest (tagged with the
                // period so different loop shapes propagate differently)
                // to the next level and start a fresh digest.
                let p = level.period().unwrap_or(0) as u64;
                upward = Some(mix(self.digests[i], p | 0x9E37_79B9_0000_0000));
                self.digests[i] = 0;
                if event == LoopEvent::EndNewLoop {
                    // The inner loop changed shape: structure detected
                    // above was built from the old iterations.
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

    /// Resets every level (used when EARL re-enters policy selection after
    /// a drastic phase change).
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            l.reset();
        }
        self.digests.iter_mut().for_each(|d| *d = 0);
    }
}

/// 64-bit mix (SplitMix64 finaliser) used for iteration digests. The
/// reference stack in `tests/reference` keeps a frozen copy, so the two
/// digest streams stay comparable.
pub(crate) fn mix(acc: u64, v: u64) -> u64 {
    let mut z = acc ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_pattern(d: &mut DynAis, pattern: &[u64], reps: usize) -> Vec<DynaisResult> {
        let mut out = Vec::new();
        for _ in 0..reps {
            for &v in pattern {
                out.push(d.sample(v));
            }
        }
        out
    }

    #[test]
    fn detects_inner_loop() {
        let mut d = DynAis::with_defaults();
        let events = feed_pattern(&mut d, &[10, 20, 30, 40, 50], 10);
        assert_eq!(d.period_at(0), Some(5));
        assert!(events
            .iter()
            .any(|r| r.event == LoopEvent::NewLoop && r.level == 0));
        // Iteration boundaries arrive once per period after detection.
        let boundaries = events.iter().filter(|r| r.event.is_boundary()).count();
        assert!(boundaries >= 6, "boundaries {boundaries}");
    }

    #[test]
    fn detects_outer_loop_of_alternating_inner_patterns() {
        // An outer iteration = 3×A-pattern then 1×B-pattern; level 0 sees
        // the raw signal, level 1 sees iteration digests.
        let mut d = DynAis::new(&DynaisConfig {
            levels: 3,
            window_size: 128,
            min_period: 2,
        });
        let a = [1u64, 2, 3, 4];
        let b = [7u64, 8, 9, 11];
        let mut got_upper = false;
        for _ in 0..60 {
            for _ in 0..3 {
                for &v in &a {
                    let r = d.sample(v);
                    got_upper |= r.level >= 1 && r.event.is_boundary();
                }
            }
            for &v in &b {
                let r = d.sample(v);
                got_upper |= r.level >= 1 && r.event.is_boundary();
            }
        }
        assert!(got_upper, "no upper-level loop detected");
        assert!(d.governing_level().unwrap_or(0) >= 1);
    }

    #[test]
    fn no_loop_on_aperiodic_signal() {
        let mut d = DynAis::with_defaults();
        for v in 0..500u64 {
            let r = d.sample(v.wrapping_mul(v).wrapping_add(v));
            assert_eq!(r.event, LoopEvent::NoLoop, "at {v}");
        }
        assert!(!d.in_loop());
    }

    #[test]
    fn governing_level_tracks_loop_state() {
        let mut d = DynAis::with_defaults();
        assert_eq!(d.governing_level(), None);
        feed_pattern(&mut d, &[5, 6, 7], 10);
        assert!(d.governing_level().is_some());
    }

    #[test]
    fn reset_forgets_everything() {
        let mut d = DynAis::with_defaults();
        feed_pattern(&mut d, &[5, 6, 7], 10);
        assert!(d.in_loop());
        d.reset();
        assert!(!d.in_loop());
        assert_eq!(d.period_at(0), None);
    }

    #[test]
    fn sample_count_accumulates() {
        let mut d = DynAis::with_defaults();
        feed_pattern(&mut d, &[1, 2], 5);
        assert_eq!(d.samples(), 10);
    }

    #[test]
    fn loop_break_reports_end() {
        let mut d = DynAis::with_defaults();
        feed_pattern(&mut d, &[1, 2, 3], 10);
        assert!(d.in_loop());
        let mut saw_end = false;
        for v in 1000..1100u64 {
            let r = d.sample(v * 31 + 7);
            saw_end |= matches!(r.event, LoopEvent::EndLoop | LoopEvent::EndNewLoop);
        }
        assert!(saw_end);
        assert!(!d.in_loop());
    }
}
