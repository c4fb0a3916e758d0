//! The fault taxonomy.

use rand::rngs::SmallRng;
use rand::Rng as _;
use vds_smtsim::core::FuFault;
use vds_smtsim::isa::FuClass;

/// Where a transient bit flip lands inside one version's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Bit `bit` of architectural register `reg`.
    Register {
        /// Register index 1..=15 (flipping r0 has no architectural
        /// effect and is excluded by the sampler).
        reg: u8,
        /// Bit 0..=31.
        bit: u8,
    },
    /// Bit `bit` of data-memory word `addr`.
    Memory {
        /// Word address.
        addr: u32,
        /// Bit 0..=31.
        bit: u8,
    },
    /// Bit `bit` of instruction-memory word `index`.
    Text {
        /// Instruction index.
        index: u32,
        /// Bit 0..=31.
        bit: u8,
    },
}

/// A fault to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A transient single-bit flip in one version's state.
    Transient(FaultSite),
    /// A permanent stuck-at bit on a functional unit (shared hardware —
    /// affects every version that executes on that unit).
    PermanentFu(FuFault),
    /// The version crashes outright (models e.g. a flip that wedges
    /// control flow; detected as a trap rather than a state mismatch).
    CrashVersion,
    /// The whole processor stops; only rollback from stable storage
    /// survives this.
    ProcessorStop,
}

impl FaultKind {
    /// `true` for transient faults (one-shot state corruption).
    pub fn is_transient(&self) -> bool {
        matches!(self, FaultKind::Transient(_) | FaultKind::CrashVersion)
    }

    /// Canonical spec string, used in flight-recorder journal entries and
    /// understood by [`FaultKind::parse_spec`] (and therefore by
    /// `vds replay`): `transient:mem:<addr>:<bit>`,
    /// `transient:reg:<reg>:<bit>`, `transient:text:<index>:<bit>`,
    /// `permfu:<alu|mul|mem|branch>:<unit>:<bit>:<0|1>`, `crash`, `stop`.
    pub fn spec_string(&self) -> String {
        match self {
            FaultKind::Transient(FaultSite::Register { reg, bit }) => {
                format!("transient:reg:{reg}:{bit}")
            }
            FaultKind::Transient(FaultSite::Memory { addr, bit }) => {
                format!("transient:mem:{addr}:{bit}")
            }
            FaultKind::Transient(FaultSite::Text { index, bit }) => {
                format!("transient:text:{index}:{bit}")
            }
            FaultKind::PermanentFu(f) => {
                let class = match f.class {
                    FuClass::Alu => "alu",
                    FuClass::MulDiv => "mul",
                    FuClass::Mem => "mem",
                    FuClass::Branch => "branch",
                    FuClass::None => "none",
                };
                format!("permfu:{class}:{}:{}:{}", f.unit, f.bit, u8::from(f.value))
            }
            FaultKind::CrashVersion => "crash".to_string(),
            FaultKind::ProcessorStop => "stop".to_string(),
        }
    }

    /// Inverse of [`FaultKind::spec_string`]. A `permfu` bit must name
    /// one of a result word's 32 bits.
    pub fn parse_spec(spec: &str) -> Option<FaultKind> {
        let parts: Vec<&str> = spec.split(':').collect();
        match parts.as_slice() {
            ["crash"] => Some(FaultKind::CrashVersion),
            ["stop"] => Some(FaultKind::ProcessorStop),
            ["transient", site, a, b] => {
                let site = match *site {
                    "reg" => FaultSite::Register {
                        reg: a.parse().ok()?,
                        bit: b.parse().ok()?,
                    },
                    "mem" => FaultSite::Memory {
                        addr: a.parse().ok()?,
                        bit: b.parse().ok()?,
                    },
                    "text" => FaultSite::Text {
                        index: a.parse().ok()?,
                        bit: b.parse().ok()?,
                    },
                    _ => return None,
                };
                Some(FaultKind::Transient(site))
            }
            ["permfu", class, unit, bit, value] => {
                let class = match *class {
                    "alu" => FuClass::Alu,
                    "mul" => FuClass::MulDiv,
                    "mem" => FuClass::Mem,
                    "branch" => FuClass::Branch,
                    "none" => FuClass::None,
                    _ => return None,
                };
                Some(FaultKind::PermanentFu(FuFault {
                    class,
                    unit: unit.parse().ok()?,
                    bit: bit.parse().ok().filter(|&b: &u8| b < 32)?,
                    value: match *value {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    },
                }))
            }
            _ => None,
        }
    }
}

/// Sample a random transient site within a version whose address space
/// has `dmem_words` words and whose program has `text_len` instructions.
/// Weighted toward memory (most state lives there), mirroring soft-error
/// cross-sections being proportional to bit count.
pub fn sample_transient_site(rng: &mut SmallRng, dmem_words: u32, text_len: u32) -> FaultSite {
    // 16 registers vs dmem_words memory words vs text_len text words:
    // weight by word counts (registers get a floor so they stay hittable).
    let reg_w = 16u64.max(u64::from(dmem_words) / 16);
    let mem_w = u64::from(dmem_words);
    let txt_w = u64::from(text_len);
    let total = reg_w + mem_w + txt_w;
    let x = rng.gen_range(0..total);
    if x < reg_w {
        FaultSite::Register {
            reg: rng.gen_range(1..16),
            bit: rng.gen_range(0..32),
        }
    } else if x < reg_w + mem_w {
        FaultSite::Memory {
            addr: rng.gen_range(0..dmem_words),
            bit: rng.gen_range(0..32),
        }
    } else {
        FaultSite::Text {
            index: rng.gen_range(0..text_len),
            bit: rng.gen_range(0..32),
        }
    }
}

/// Sample a random permanent functional-unit fault for a core with the
/// given unit counts.
pub fn sample_fu_fault(rng: &mut SmallRng, num_alu: usize, num_mul: usize) -> FuFault {
    let (class, unit) = match rng.gen_range(0..4) {
        0 | 1 => (FuClass::Alu, rng.gen_range(0..num_alu)),
        2 => (FuClass::MulDiv, rng.gen_range(0..num_mul)),
        _ => (FuClass::Mem, 0),
    };
    FuFault {
        class,
        unit,
        bit: rng.gen_range(0..32),
        value: rng.gen(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(404)
    }

    #[test]
    fn transient_sites_stay_in_bounds() {
        let mut r = rng();
        for _ in 0..2000 {
            match sample_transient_site(&mut r, 128, 40) {
                FaultSite::Register { reg, bit } => {
                    assert!((1..16).contains(&reg));
                    assert!(bit < 32);
                }
                FaultSite::Memory { addr, bit } => {
                    assert!(addr < 128);
                    assert!(bit < 32);
                }
                FaultSite::Text { index, bit } => {
                    assert!(index < 40);
                    assert!(bit < 32);
                }
            }
        }
    }

    #[test]
    fn transient_sampling_covers_all_site_kinds() {
        let mut r = rng();
        let (mut regs, mut mems, mut txts) = (0, 0, 0);
        for _ in 0..3000 {
            match sample_transient_site(&mut r, 256, 64) {
                FaultSite::Register { .. } => regs += 1,
                FaultSite::Memory { .. } => mems += 1,
                FaultSite::Text { .. } => txts += 1,
            }
        }
        assert!(regs > 0 && mems > 0 && txts > 0, "{regs}/{mems}/{txts}");
        assert!(mems > regs, "memory dominates the cross-section");
    }

    #[test]
    fn fu_faults_stay_in_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let f = sample_fu_fault(&mut r, 2, 1);
            match f.class {
                FuClass::Alu => assert!(f.unit < 2),
                FuClass::MulDiv => assert_eq!(f.unit, 0),
                FuClass::Mem => assert_eq!(f.unit, 0),
                other => panic!("unexpected class {other:?}"),
            }
            assert!(f.bit < 32);
        }
    }

    #[test]
    fn fault_spec_round_trips() {
        let kinds = [
            FaultKind::Transient(FaultSite::Register { reg: 5, bit: 3 }),
            FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 9 }),
            FaultKind::Transient(FaultSite::Text { index: 12, bit: 27 }),
            FaultKind::PermanentFu(FuFault {
                class: FuClass::MulDiv,
                unit: 0,
                bit: 7,
                value: true,
            }),
            FaultKind::CrashVersion,
            FaultKind::ProcessorStop,
        ];
        for k in kinds {
            let spec = k.spec_string();
            assert_eq!(FaultKind::parse_spec(&spec), Some(k), "{spec}");
        }
        assert_eq!(FaultKind::parse_spec("transient:mem:4:9@v2"), None);
        assert_eq!(FaultKind::parse_spec("bogus"), None);
    }

    /// A stuck-at bit past the word would shift `1 << bit` out of range
    /// in `FuFault::corrupt`.
    #[test]
    fn permfu_bits_beyond_the_word_are_rejected() {
        assert!(FaultKind::parse_spec("permfu:alu:0:31:1").is_some());
        for bit in ["32", "40", "255"] {
            let spec = format!("permfu:alu:0:{bit}:1");
            assert_eq!(FaultKind::parse_spec(&spec), None, "{spec}");
        }
    }

    #[test]
    fn kind_classification() {
        assert!(FaultKind::CrashVersion.is_transient());
        assert!(FaultKind::Transient(FaultSite::Register { reg: 1, bit: 0 }).is_transient());
        assert!(!FaultKind::ProcessorStop.is_transient());
        assert!(!FaultKind::PermanentFu(FuFault {
            class: FuClass::Alu,
            unit: 0,
            bit: 0,
            value: true
        })
        .is_transient());
    }
}
