//! Fault plans, and the recovery [`Scheme`] every backend runs (defined
//! with its closed forms in [`vds_analytic::schemes`], re-exported here).

pub use vds_analytic::Scheme;

/// Root seed of a micro or VM run unless `--seed` (or the caller) says
/// otherwise: [`crate::micro_vds::MicroConfig::new`] and
/// [`crate::vm_vds::VmConfig::new`] start from it.
pub const DEFAULT_SEED: u64 = 2024;

/// Which active version a fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// Version 1.
    V1,
    /// Version 2.
    V2,
}

impl Victim {
    /// Index 0/1.
    pub fn index(self) -> usize {
        match self {
            Victim::V1 => 0,
            Victim::V2 => 1,
        }
    }

    /// The other version.
    pub fn other(self) -> Victim {
        match self {
            Victim::V1 => Victim::V2,
            Victim::V2 => Victim::V1,
        }
    }
}

/// When and where faults strike (abstract backend).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// No faults: pure normal-processing timing.
    None,
    /// Exactly one silent state corruption, at round `round`
    /// (1-based within the first checkpoint interval) of version
    /// `victim`. Used for the per-incident gain experiments.
    OneShot {
        /// Round 1..=s at which the corruption lands.
        round: u32,
        /// Corrupted version.
        victim: Victim,
    },
    /// Every executed round (normal, retry or roll-forward) corrupts the
    /// executing version with probability `q`, victim chosen 50/50 in
    /// normal rounds. The long-run stochastic model.
    PerRound {
        /// Per-round corruption probability.
        q: f64,
    },
    /// Like `PerRound`, but a corruption is a *crash* with probability
    /// `crash_fraction` — crashes carry perfect evidence of the victim
    /// (the paper's §4 "e.g. in the case of a crash fault").
    PerRoundWithCrashes {
        /// Per-round corruption probability.
        q: f64,
        /// Fraction of corruptions that crash the version.
        crash_fraction: f64,
    },
    /// The full mission mix: per-round corruptions that are silent,
    /// crashes, or **processor stops** ("a fault is able to stop … the
    /// entire processor. In the latter case, recovery is only possible
    /// by rollback"). A stop loses all volatile state; the VDS restarts
    /// both versions from the last stable-storage checkpoint.
    Mission {
        /// Per-round corruption probability.
        q: f64,
        /// Fraction of corruptions that crash one version.
        crash_fraction: f64,
        /// Fraction of corruptions that stop the whole processor.
        stop_fraction: f64,
    },
}

impl FaultModel {
    /// Canonical spec string, written as an abstract journal header's
    /// `fault_model` meta and understood by [`FaultModel::parse_spec`]:
    /// `none`, `one-shot:<round>:<v1|v2>`, `per-round:<q>`,
    /// `per-round-crashes:<q>:<crash_fraction>` or
    /// `mission:<q>:<crash_fraction>:<stop_fraction>`, each number in
    /// its shortest round-trip form.
    pub fn spec_string(&self) -> String {
        match *self {
            FaultModel::None => "none".to_string(),
            FaultModel::OneShot { round, victim } => {
                format!("one-shot:{round}:v{}", victim.index() + 1)
            }
            FaultModel::PerRound { q } => format!("per-round:{q}"),
            FaultModel::PerRoundWithCrashes { q, crash_fraction } => {
                format!("per-round-crashes:{q}:{crash_fraction}")
            }
            FaultModel::Mission {
                q,
                crash_fraction,
                stop_fraction,
            } => format!("mission:{q}:{crash_fraction}:{stop_fraction}"),
        }
    }

    /// Inverse of [`FaultModel::spec_string`].
    pub fn parse_spec(spec: &str) -> Option<FaultModel> {
        let parts: Vec<&str> = spec.split(':').collect();
        Some(match parts.as_slice() {
            ["none"] => FaultModel::None,
            ["one-shot", round, victim] => FaultModel::OneShot {
                round: round.parse().ok()?,
                victim: match *victim {
                    "v1" => Victim::V1,
                    "v2" => Victim::V2,
                    _ => return None,
                },
            },
            ["per-round", q] => FaultModel::PerRound { q: q.parse().ok()? },
            ["per-round-crashes", q, crash] => FaultModel::PerRoundWithCrashes {
                q: q.parse().ok()?,
                crash_fraction: crash.parse().ok()?,
            },
            ["mission", q, crash, stop] => FaultModel::Mission {
                q: q.parse().ok()?,
                crash_fraction: crash.parse().ok()?,
                stop_fraction: stop.parse().ok()?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_model_specs_round_trip() {
        let models = [
            FaultModel::None,
            FaultModel::OneShot {
                round: 7,
                victim: Victim::V2,
            },
            FaultModel::PerRound { q: 0.05 },
            FaultModel::PerRoundWithCrashes {
                q: 1e-7,
                crash_fraction: 0.2,
            },
            FaultModel::Mission {
                q: 0.95,
                crash_fraction: 0.0,
                stop_fraction: 1.0,
            },
        ];
        let specs = models.map(|m| m.spec_string());
        assert_eq!(
            specs,
            [
                "none",
                "one-shot:7:v2",
                "per-round:0.05",
                "per-round-crashes:0.0000001:0.2",
                "mission:0.95:0:1",
            ]
        );
        for (m, spec) in models.into_iter().zip(&specs) {
            assert_eq!(FaultModel::parse_spec(spec), Some(m), "{spec}");
        }
        for bad in [
            "",
            "None",
            "one-shot:7",
            "one-shot:7:v3",
            "one-shot:-1:v1",
            "per-round:x",
            "per-round:0.1:0.2",
            "mission:0.1:0.2",
            "per-round-crashes:0.1",
        ] {
            assert_eq!(FaultModel::parse_spec(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn victim_helpers() {
        assert_eq!(Victim::V1.other(), Victim::V2);
        assert_eq!(Victim::V2.index(), 1);
    }
}
