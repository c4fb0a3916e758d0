#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-desim — seeds, spans and surfaces for the figure harness
//!
//! The reporting toolkit shared by the VDS-SMT reproduction of
//! Fechner/Keller/Sobe, *"Performance Estimation of Virtual Duplex
//! Systems on Simultaneous Multithreaded Processors"* (IPDPS 2004
//! workshops):
//!
//! * [`rng`] — seed-derivation helpers so independent subsystems get
//!   independent, reproducible random streams.
//! * [`trace`] — the Figure 1 span vocabulary ([`trace::SpanKind`]) and
//!   the ASCII Gantt / TSV renderers over `vds_obs::SpanRecord`s.
//! * [`series`] — the 2-D surface container behind Figures 4 and 5, with
//!   CSV/TSV and ASCII output.

pub mod rng;
pub mod series;
pub mod trace;
