#![warn(missing_docs)]

//! # vds-sched — OS-level process scheduling over the SMT core
//!
//! The paper's system model assumes an operating system that "maps user
//! processes onto the hardware threads of the processor in the same manner
//! as on a two-processor machine", with versions in **separate address
//! spaces** and context switches costing `c`. This crate supplies that
//! layer:
//!
//! * [`machine::Machine`] — a processor (any number of hardware contexts)
//!   plus a process table. Processes are spawned, dispatched onto hardware
//!   threads (paying a context-switch cost when the resident process
//!   changes), run until they yield/halt/trap, and switched out again.
//! * per-process accounting — cycle usage
//!   ([`Machine::cycles_used`](machine::Machine::cycles_used)) and switch
//!   counts ([`Machine::switches`](machine::Machine::switches)).
//!
//! The micro VDS engine in `vds-core` builds both execution models on
//! this API: the conventional processor of the paper's §3.1 (versions
//! dispatched in turn on one hardware context, Figure 1a) and the SMT
//! processor (both versions resident at once, Figure 1b).

pub mod machine;

pub use machine::{Machine, ProcId, ProcOutcome, ProcState};
