#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-core — virtual duplex systems on SMT processors
//!
//! The paper's contribution, as an executable system. A **virtual duplex
//! system (VDS)** runs two diverse versions of a program in rounds,
//! compares their states after every round, checkpoints every `s` rounds,
//! and holds a third diverse version in reserve. On a state mismatch at
//! round `i` the spare replays rounds 1..i from the checkpoint and a
//! 2-out-of-3 vote identifies the faulty version (*stop-and-retry*). On a
//! simultaneous multithreaded processor the two versions run in parallel
//! hardware threads, and during recovery the second thread performs a
//! **roll-forward** (deterministic, probabilistic, or prediction-guided)
//! while the first replays — the paper's §3–§4 schemes, all implemented
//! here, plus the §5 boosted multi-thread variants.
//!
//! Three execution backends, driven by one implementation of the Figures
//! 2–3 protocol (the crate-private `duplex` module: round, compare,
//! checkpoint, recover, journal):
//!
//! * [`abstract_vds`] — the paper's abstract timing model (`t`, `c`, `t'`,
//!   `α`, `s`) driven by stochastic fault processes. Fast enough for 10⁶
//!   incidents; validates every closed form in `vds-analytic` and
//!   regenerates the Figure 1 timelines.
//! * [`micro_vds`] — versions are *real diversified programs* executing on
//!   the cycle-level SMT machine (`vds-smtsim` + `vds-sched`), with real
//!   state comparison digests (`vds-checkpoint`), real fault injection
//!   (`vds-fault`) and real recovery execution. Slower, but nothing is
//!   assumed: `α`, `t`, `c`, `t'` all *emerge*.
//! * [`vm_vds`] — *real programs* under duplex: seed programs of the
//!   `vds-vm` register-based bytecode VM run as two diversified variants
//!   (`vds_diversity::vm`), with architectural-state fault injection
//!   (`vds_fault::vm`) and stop-and-retry recovery from data-memory
//!   checkpoints. Time is counted in interpreted instructions.
//!
//! Support modules: [`config`] (schemes and fault plans), [`report`]
//! (accounting), [`workload`] (the memory-resident VDS application),
//! [`gain`] (measured-vs-analytic comparison helpers), [`conformance`]
//! (run-level predicted-vs-measured gain residuals) and [`flowchart`]
//! (DOT export of the Figures 2–3 recovery state machines).
//! [`recording`] is the one writer and reader of journal headers: a
//! [`recording::Recording`] is a run of any backend, or a fault campaign,
//! as its header describes it.

pub mod abstract_vds;
pub mod config;
pub mod conformance;
mod duplex;
pub mod flowchart;
pub mod gain;
pub mod micro_vds;
pub mod recording;
pub mod report;
pub mod vm_vds;
pub mod workload;

pub use config::{FaultModel, Scheme, Victim, DEFAULT_SEED};
pub use report::RunReport;
