#![warn(missing_docs)]

//! # vds-checkpoint — state digests under their historical names
//!
//! Rounds end with a state comparison of cost `t' ≪ t`; that is only
//! plausible if versions are compared by digest rather than word by word.
//! [`digest`] names the 128-bit digest that `vds-obs` implements
//! ([`vds_obs::Digest128`]) under the names the micro engine uses.
//!
//! The checkpoint protocol itself lives elsewhere: `vds-core`'s `Duplex`
//! decides when to checkpoint (every `s` rounds), and each backend
//! charges the checkpoint's cost `c` in its `Backend::checkpoint`.

pub mod digest;
