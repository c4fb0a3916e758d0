#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-fault — fault models, injection and error-detecting codes
//!
//! The paper's fault model (§2.1): transient faults ("bit flips in
//! registers … only directly affect one version") and permanent faults
//! (made survivable by diversity); a fault may stop one version or the
//! whole processor; cross-address-space corruption is excluded by
//! hardware protection and error-detecting codes in memory. This crate
//! supplies all of it:
//!
//! * [`model`] — the fault taxonomy: transient register/memory/text bit
//!   flips, permanent stuck-at faults in functional units, version-crash
//!   and processor-stop faults.
//! * [`arrival`] — stochastic fault arrival: Poisson (memoryless, the
//!   classic radiation model) and bursty/clustered (Markov-modulated —
//!   the §5 scenario where "several \[transients\] may occur" close
//!   together and fault *history* becomes predictive).
//! * [`inject`] — applying faults to a running [`vds_sched::Machine`].
//! * [`edc`] — error-detecting/correcting codes: word parity, a
//!   Hamming SEC-DED code over 32-bit words, and CRC-32 over blocks —
//!   the paper's "error detecting codes for data in the memory".
//! * [`memory`] — an EDC-protected, scrubbable memory array built on the
//!   Hamming code (the concrete form of the paper's assumption).
//! * [`campaign`] — a deterministic, parallel fault-injection campaign
//!   driver (independent per-trial seeds, merged counters).
//! * [`vm`] — architectural-state fault sites for the `vds-vm` bytecode
//!   workload: registers, pc, literal pool and data memory, with
//!   journal-round-trippable `vm:…` spec strings.

//! ```
//! use vds_fault::memory::{ProtectedMemory, ReadOutcome};
//!
//! let mut mem = ProtectedMemory::from_image(&[0xDEAD_BEEF]);
//! mem.inject_flip(0, 13); // a radiation upset
//! assert_eq!(mem.read(0), ReadOutcome::Corrected(0xDEAD_BEEF));
//! assert_eq!(mem.read(0), ReadOutcome::Clean(0xDEAD_BEEF)); // healed
//! ```

pub mod arrival;
pub mod campaign;
pub mod edc;
pub mod inject;
pub mod memory;
pub mod model;
pub mod vm;

pub use arrival::{ArrivalProcess, BurstyProcess, PoissonProcess};
pub use model::{FaultKind, FaultSite};
pub use vm::VmFaultSite;
