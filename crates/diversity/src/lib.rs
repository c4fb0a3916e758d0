#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-diversity — automatic generation of diverse program versions
//!
//! The paper's VDS runs *diverse* versions: "the versions show both design
//! diversity and systematic diversity to be able to recover from transient
//! as well as from many permanent hardware faults", and cites Jochim's
//! automatically generated virtual duplex systems. This crate implements
//! that generator for the `vds-smtsim` ISA: semantics-preserving program
//! transformations that change *how* the hardware is exercised —
//!
//! * [`transform::RegisterPermutation`] — consistently renames registers
//!   (r0 stays fixed), so a transient flip of a given physical register
//!   corrupts different variables in different versions;
//! * [`transform::CommutativeSwap`] — swaps operands of commutative
//!   operations (`add`, `and`, `or`, `xor`, `mul`, `beq`, `bne`), changing
//!   operand routing;
//! * [`transform::NopPadding`] — inserts `nop`s (with branch-target
//!   fix-up), shifting every subsequent instruction's issue slot and
//!   functional-unit assignment — the property that makes a *permanent*
//!   fault in one functional unit corrupt diverse versions differently;
//! * [`transform::ImmediateRewrite`] — rewrites `addi rd, rs, 0` moves to
//!   `ori` form, exercising different decoder paths;
//! * [`transform::ArithmeticRecoding`] — the *systematic* diversity of
//!   Lovrić: recodes `addi` constants through an offset-and-correct pair
//!   so the versions compute different **intermediate values** — the
//!   property that makes a stuck-at fault in a shared functional unit
//!   corrupt the versions differently (value-preserving transforms alone
//!   cannot achieve this).
//!
//! [`diversify`] composes them into the canonical version pipeline, and
//! [`equivalence`] *proves* (by co-execution) that a transformed version
//! computes the same output window as the original on a fault-free
//! machine — the correctness contract every transform must meet, enforced
//! by property tests.
//!
//! The [`vm`] module carries the same idea to the `vds-vm` bytecode
//! workload: scratch-register renaming, commutative operand swaps, a
//! literal-pool permutation and safe instruction reordering, composed by
//! [`vm::diversify_vm`] and proved by [`vm::check_vm_equivalence`].

pub mod equivalence;
pub mod transform;
pub mod vm;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use transform::{
    ArithmeticRecoding, CommutativeSwap, ImmediateRewrite, NopPadding, RegisterPermutation,
    Transform,
};
use vds_smtsim::program::Program;

/// Generate version `index` of a base program. Version 0 is the base
/// itself; higher indices apply increasingly different (but always
/// semantics-preserving) transformation pipelines, deterministically
/// derived from `seed`.
pub fn diversify(base: &Program, index: u32, seed: u64) -> Program {
    if index == 0 {
        return base.clone();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(index)).wrapping_mul(0x9E37_79B9));
    let mut prog = base.clone();
    // every non-base version gets a register permutation…
    prog = RegisterPermutation.apply(&prog, &mut rng);
    // …operand swaps…
    prog = CommutativeSwap { prob: 0.7 }.apply(&prog, &mut rng);
    // …and value diversity (different δ per version — this is what makes
    // permanent stuck-at faults corrupt the versions differently)
    prog = ArithmeticRecoding {
        prob: 0.5,
        max_delta: 7,
    }
    .apply(&prog, &mut rng);
    // odd versions additionally get schedule perturbation, even ones the
    // immediate rewrite — so version 1 and version 2 differ from the base
    // *and* from each other
    if index % 2 == 1 {
        prog = NopPadding { density: 0.12 }.apply(&prog, &mut rng);
    } else {
        prog = ImmediateRewrite.apply(&prog, &mut rng);
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use vds_smtsim::kernels;

    #[test]
    fn version_zero_is_identity() {
        let base = kernels::vecsum(16, 1).program();
        assert_eq!(diversify(&base, 0, 42).text, base.text);
    }

    #[test]
    fn versions_differ_from_base_and_each_other() {
        let base = kernels::crc(32, 1).program();
        let v1 = diversify(&base, 1, 42);
        let v2 = diversify(&base, 2, 42);
        assert_ne!(v1.text, base.text);
        assert_ne!(v2.text, base.text);
        assert_ne!(v1.text, v2.text);
        assert_ne!(v1.text_digest(), v2.text_digest());
    }

    #[test]
    fn diversification_is_deterministic() {
        let base = kernels::bsort(8, 1).program();
        assert_eq!(diversify(&base, 1, 7).text, diversify(&base, 1, 7).text);
        assert_ne!(
            diversify(&base, 1, 7).text,
            diversify(&base, 1, 8).text,
            "different seeds give different versions"
        );
    }

    #[test]
    fn all_suite_kernels_survive_diversification() {
        // equivalence is checked exhaustively in `equivalence::tests`;
        // here we only require the pipeline not to produce garbage
        for k in kernels::suite(1) {
            let base = k.program();
            for idx in 1..=3 {
                let v = diversify(&base, idx, 99);
                assert!(
                    v.decode_all().is_ok(),
                    "kernel {} version {idx} has undecodable text",
                    k.name
                );
            }
        }
    }
}
