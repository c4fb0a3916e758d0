#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds — virtual duplex systems on simultaneous multithreaded processors
//!
//! Umbrella crate for the reproduction of Fechner, Keller & Sobe,
//! *"Performance Estimation of Virtual Duplex Systems on Simultaneous
//! Multithreaded Processors"* (IPDPS 2004 workshops). Re-exports every
//! subsystem crate under one roof:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `vds-core` | the VDS engines (abstract, micro, vm) behind one duplex protocol, schemes, flow charts |
//! | [`analytic`] | `vds-analytic` | the paper's closed-form model, Eqs. (1)–(14) |
//! | [`smtsim`] | `vds-smtsim` | cycle-level SMT processor, ISA, assembler, kernels |
//! | [`sched`] | `vds-sched` | OS processes, address spaces, context switching |
//! | [`fault`] | `vds-fault` | fault models, injection, campaigns |
//! | [`diversity`] | `vds-diversity` | automatic diverse-version generation |
//! | [`checkpoint`] | `vds-checkpoint` | state-digest names used by the micro engine |
//! | [`predictor`] | `vds-predictor` | fault-version prediction (§4/§5) |
//! | [`desim`] | `vds-desim` | seed derivation, Figure 1 span rendering, figure surfaces |
//! | [`obs`] | `vds-obs` | deterministic metrics, profiler spans, flight-recorder journal |
//! | [`sweep`] | `vds-sweep` | deterministic parallel parameter sweeps with resume |
//!
//! ## Quick start
//!
//! ```
//! use vds::analytic::{predictive, Params};
//! use vds::core::abstract_vds::{run, AbstractConfig};
//! use vds::core::{FaultModel, Scheme};
//!
//! // the paper's operating point: α = 0.65, β = 0.1, s = 20
//! let params = Params::paper_default();
//!
//! // closed form: expected recovery gain with random picks ≈ 1.38
//! let g = predictive::g_max(0.65, 0.1, 0.5);
//! assert!((g - 1.38).abs() < 0.01);
//!
//! // and the executable VDS agrees that SMT normal processing is faster
//! let conv = run(
//!     &AbstractConfig::new(params, Scheme::Conventional),
//!     FaultModel::None,
//!     100,
//!     1,
//! );
//! let smt = run(
//!     &AbstractConfig::new(params, Scheme::SmtPredictive),
//!     FaultModel::None,
//!     100,
//!     1,
//! );
//! assert!(smt.total_time < conv.total_time);
//! ```

pub use vds_analytic as analytic;
pub use vds_checkpoint as checkpoint;
pub use vds_core as core;
pub use vds_desim as desim;
pub use vds_diversity as diversity;
pub use vds_fault as fault;
pub use vds_obs as obs;
pub use vds_predictor as predictor;
pub use vds_sched as sched;
pub use vds_smtsim as smtsim;
pub use vds_sweep as sweep;
