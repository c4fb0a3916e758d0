#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-smtsim — a cycle-level simultaneous multithreaded processor model
//!
//! The paper assumes a 2-way SMT ("hyperthreaded") processor whose
//! two-thread co-run stretch factor is `α ∈ (½, 1]` (≈ 0.65 reported for
//! the Pentium 4). This crate supplies that machine so α can be *measured*
//! rather than assumed: a small in-order superscalar core with
//!
//! * a tiny 32-bit RISC ISA ([`isa`]) with a binary encoding ([`encode`]),
//!   a two-pass assembler ([`asm`]) and a disassembler ([`disasm`]);
//! * 1–8 hardware thread contexts with private register files and
//!   **separate, protected address spaces** (out-of-bounds accesses trap —
//!   the paper's system model requires access violations to be signalled
//!   as faults without corrupting other versions);
//! * shared functional units (ALUs, one multiplier, one load/store unit,
//!   one branch unit) and a shared issue width — the sources of SMT
//!   contention;
//! * shared set-associative I/D caches ([`cache`]) and per-thread branch
//!   predictors ([`branch`]);
//! * per-thread performance counters ([`perf`]);
//! * a library of workload kernels ([`kernels`]) spanning compute-bound to
//!   memory-bound behaviour, and the α-measurement harness ([`alpha`]).
//!
//! The pipeline model ([`core`]) is deliberately simple — in-order, one
//! instruction issued per thread per cycle, blocking loads — because the
//! analytical model only needs a machine whose co-run time is
//! `2αt` with a workload-dependent α in the right range; see DESIGN.md.
//!
//! The [`Yield`](isa::Instr::Yield) instruction marks **round boundaries**:
//! the VDS engine runs a version until it yields, then compares
//! architectural state digests.
//!
//! ## Quick start
//!
//! ```
//! use vds_smtsim::asm::assemble;
//! use vds_smtsim::core::{Core, CoreConfig, RunOutcome};
//!
//! let prog = assemble(
//!     r#"
//!     .text
//!         addi r1, r0, 10     ; n = 10
//!         addi r2, r0, 0      ; acc = 0
//!     loop:
//!         add  r2, r2, r1
//!         addi r1, r1, -1
//!         bne  r1, r0, loop
//!         halt
//!     "#,
//! )
//! .unwrap();
//!
//! let mut core = Core::new(CoreConfig::default());
//! let tid = core.add_thread(&prog, 1024);
//! let outcome = core.run_until_all_blocked(100_000);
//! assert_eq!(outcome, RunOutcome::AllHalted);
//! assert_eq!(core.thread(tid).regs[2], 55); // 10+9+…+1
//! ```

pub mod alpha;
pub mod asm;
pub mod branch;
pub mod cache;
pub mod core;
pub mod disasm;
pub mod encode;
pub mod isa;
pub mod kernels;
pub mod perf;
pub mod program;

pub use crate::core::{Core, CoreConfig, RunOutcome, ThreadId};
pub use crate::isa::{Instr, Reg};
pub use crate::program::Program;
