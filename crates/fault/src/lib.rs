#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-fault — fault models and injection
//!
//! The paper's fault model (§2.1): transient faults ("bit flips in
//! registers … only directly affect one version") and permanent faults
//! (made survivable by diversity); a fault may stop one version or the
//! whole processor. Cross-address-space corruption is excluded by
//! hardware protection (`vds-sched` traps out-of-range accesses) and by
//! error-detecting codes in memory, which the reproduction keeps as an
//! assumption; E10 measures the gap they close. This crate supplies the
//! fault side:
//!
//! * [`model`] — the fault taxonomy: transient register/memory/text bit
//!   flips, permanent stuck-at faults in functional units, version-crash
//!   and processor-stop faults.
//! * [`inject`] — applying faults to a running [`vds_sched::Machine`].
//! * [`campaign`] — a deterministic, parallel fault-injection campaign
//!   driver (independent per-trial seeds, merged counters).
//! * [`vm`] — architectural-state fault sites for the `vds-vm` bytecode
//!   workload: registers, pc, literal pool and data memory, with
//!   journal-round-trippable `vm:…` spec strings.

pub mod campaign;
pub mod inject;
pub mod model;
pub mod vm;

pub use model::{FaultKind, FaultSite};
pub use vm::VmFaultSite;
