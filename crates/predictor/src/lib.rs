#![warn(missing_docs)]

//! # vds-predictor — predicting which version is faulty
//!
//! §4 of the paper conditions the roll-forward gain on `p`, the
//! probability of correctly guessing the *faulty* version; §5 proposes
//! improving `p` with "techniques similar to branch prediction in
//! microprocessors: we keep a history of faults … If a particular part of
//! the hardware is more likely to be affected by faults of this kind due
//! to process variations, this can be detected."
//!
//! This crate implements that idea:
//!
//! * [`predictors`] — random guess (the p = ½ floor), last-outcome,
//!   2-bit saturating counter, and a two-level (history-indexed) scheme —
//!   the same taxonomy as hardware branch predictors, but in software,
//!   because "we are operating on much larger time scales".
//! * [`streams`] — synthetic faulty-version sequences: i.i.d., persistent
//!   (process-variation bias), and alternating, used to characterise each
//!   predictor's accuracy.
//! * [`eval`] — accuracy measurement; the measured `p` feeds directly
//!   into `vds_analytic::predictive::gbar_corr_exact`.
//!
//! Crash evidence ("sometimes there is evidence that a particular version
//! is most likely the faulty one, e.g. in the case of a crash fault")
//! needs no predictor: the abstract engine in `vds-core` takes the
//! crashed version as the faulty one and consults its predictor only
//! when no version crashed.

//! ```
//! use vds_predictor::eval::measure_accuracy;
//! use vds_predictor::predictors::LastOutcome;
//! use vds_predictor::streams::PersistentStream;
//!
//! // process-variation clustering: the same version keeps failing
//! let mut stream = PersistentStream::new(0.9);
//! let mut pred = LastOutcome::default();
//! let acc = measure_accuracy(&mut pred, &mut stream, 20_000, 100, 7);
//! assert!((acc.p - 0.9).abs() < 0.02); // p ≈ the persistence
//! ```

pub mod eval;
pub mod predictors;
pub mod streams;

pub use predictors::{FaultPredictor, Suspect};
