#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-analytic — the paper's closed-form performance model
//!
//! Exact and approximate implementations of every equation in
//! Fechner/Keller/Sobe, *"Performance Estimation of Virtual Duplex Systems
//! on Simultaneous Multithreaded Processors"* (IPDPS 2004 workshops),
//! plus the §5 outlook extensions (more than two hardware threads, clock
//! scaling).
//!
//! ## Model recap
//!
//! A virtual duplex system (VDS) runs two diverse versions of a program in
//! *rounds* of length `t`, compares their states (cost `t'`) after each
//! round, and checkpoints every `s` rounds. On a mismatch at round `i`
//! (1 ≤ i ≤ s after the last checkpoint) a third version replays rounds
//! 1..i and a majority vote identifies the faulty version.
//!
//! * Conventional processor: versions alternate, each round pair costs
//!   `T1_round = 2(t+c) + t'` (Eq. 1); recovery costs
//!   `T1_corr = i·t + 2t'` (Eq. 2).
//! * 2-way SMT processor: versions run in parallel hardware threads; a
//!   round pair costs `THT2_round = 2αt + t'` (Eq. 3) where `α ∈ (½, 1]`
//!   models resource contention (α = 0.5 ⇒ perfect overlap, α = 1 ⇒ full
//!   serialisation; the Pentium 4 reportedly achieves α ≈ 0.65). During
//!   recovery the second thread *rolls forward* while the first replays,
//!   `THT2_corr = 2iαt + 2t'` (Eq. 5).
//!
//! Gains are ratios of conventional time (including the catch-up value of
//! any roll-forward progress, valued at `T1_round` per round) to SMT time.
//!
//! ## Module map
//!
//! * [`params`] — the parameter bundle `(t, c, t', α, s)` and the paper's
//!   normalisation `c = t' = βt` (Eq. 14).
//! * [`timing`] — Eqs. (1), (2), (3), (5) and the round-gain Eq. (4).
//! * [`rollforward`] — §3: deterministic (Eqs. 6–7) and probabilistic
//!   (Eq. 8) roll-forward with fault detection.
//! * [`predictive`] — §4: prediction-guided roll-forward without detection
//!   (Eqs. 9–13) and the `G_max` limit (the paper's headline 1.38).
//! * [`figures`] — the `Ḡ_corr(α, β)` surfaces of Figures 4 and 5 as plain
//!   grid evaluations.
//! * [`multithread`] — §5 outlook: ≥3 hardware threads and the
//!   clock-frequency-reduction trade.
//! * [`schemes`] — the six recovery schemes as one [`Scheme`] enum: each
//!   scheme's roll-forward length, round and recovery times, steady-state
//!   gain ḡ, and the whole-run gain blend.
//! * [`checkpointing`] — the §2.2 interval trade-off as a closed form
//!   (Young-style square-root law), validated against experiment E12.
//! * [`math`] — harmonic sums and the logarithmic tail approximations the
//!   paper uses (`Σ_{n+1}^{m} 1/i ≈ ln(m/n)`).
//!
//! Every quantity exists in an `_exact` form (sums over integer `i`, no
//! small-`c,t'` assumptions) and, where the paper states one, an `_approx`
//! form matching the printed formula. Unit tests pin both to the paper's
//! numeric claims: the 0.723 α-threshold (Eq. 7), the `(1+ln2)/2 ≈ 0.847`
//! threshold (§4.3), and `G_max ≈ 1.38` for `p=0.5, α=0.65, β=0.1`.
//!
//! ```
//! use vds_analytic::{predictive, rollforward, timing, Params};
//!
//! let p = Params::paper_default(); // α=0.65, β=0.1, s=20
//! assert!((timing::g_round_exact(&p) - 2.3 / 1.4).abs() < 1e-12);
//! assert!((rollforward::det_alpha_threshold() - 0.723).abs() < 5e-4);
//! assert!((predictive::g_max(0.65, 0.1, 0.5) - 1.38).abs() < 0.01);
//! ```

pub mod checkpointing;
pub mod figures;
pub mod math;
pub mod multithread;
pub mod params;
pub mod predictive;
pub mod rollforward;
pub mod schemes;
pub mod timing;

pub use params::Params;
pub use schemes::Scheme;
