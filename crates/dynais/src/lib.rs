//! # ear-dynais — dynamic application iterative structure detection
//!
//! Reimplementation of EAR's DynAIS component (paper §III): a stack of
//! windowed periodicity detectors that finds the outer iterative structure
//! of a parallel application from the stream of its MPI calls, without any
//! user hints or code marks.
//!
//! The EAR library hashes each MPI call (call id + buffer size + partner)
//! into a `u64` sample and feeds it to [`DynAis::sample`]; the returned
//! [`LoopEvent`]s delimit loop iterations, which EARL uses as signature
//! measurement windows.
//!
//! ```
//! use ear_dynais::DynAis;
//!
//! let mut detector = DynAis::with_defaults();
//! // An application issuing the same four MPI calls per iteration:
//! for _ in 0..8 {
//!     for call_hash in [11u64, 22, 33, 44] {
//!         detector.sample(call_hash);
//!     }
//! }
//! assert_eq!(detector.period_at(0), Some(4));
//! assert!(detector.in_loop());
//! ```

#![warn(missing_docs)]

pub mod dynais;
pub mod level;
pub mod window;

pub use dynais::{DynAis, DynaisConfig, DynaisResult};
pub use level::{LevelDetector, LoopEvent};
