//! The seed workloads: four small programs exercising distinct
//! architectural behavior, each paired with a pure-Rust oracle that
//! reproduces its full data-memory effect round by round.
//!
//! Shared data-memory layout (word addresses):
//!
//! | range    | meaning                                              |
//! |----------|------------------------------------------------------|
//! | `0`      | round counter, written by the harness at round entry |
//! | `1..9`   | persistent state `S[0..8]` (seed-perturbed)          |
//! | `9..16`  | per-round outputs                                    |
//! | `16..48` | working area (checksum table, sort array, matrices)  |
//! | `48..56` | strhash's persistent packed string                   |
//! | `56..64` | dead padding — never read, never digested: the       |
//! |          | canonical escape target for injected memory faults   |
//!
//! The duplex digest covers `r0..r3` plus `mem[0..16]`
//! ([`STATE_WINDOW`]), so any state-affecting divergence between
//! variants surfaces the round it reaches state or outputs, while
//! padding corruption can only be caught by the end-of-run oracle
//! check — exactly the masked/latent/escaped taxonomy the fault
//! forensics layer measures.

use crate::asm::{assemble, Program};
use crate::interp::DMEM_WORDS;
use std::sync::OnceLock;

/// Data-memory address of the round counter.
pub const ADDR_ROUND: usize = 0;
/// First word of the 8-word persistent state.
pub const ADDR_STATE: usize = 1;
/// Words covered by the per-round duplex digest (with `r0..r3`).
pub const STATE_WINDOW: std::ops::Range<usize> = 0..16;
/// Output registers covered by the per-round duplex digest.
pub const DIGEST_REGS: usize = 4;

/// Checksum lookup table base (read-only at run time).
pub const TABLE_BASE: usize = 16;
/// Strhash packed-string base.
pub const STR_BASE: usize = 48;
/// Dead padding base — initialized once, never read again.
pub const PAD_BASE: usize = 56;

/// One seed workload: assembly source plus its oracle.
pub struct SeedProgram {
    /// Stable name (`vds vm run <name>`, journal metadata).
    pub name: &'static str,
    /// One-line description for listings.
    pub title: &'static str,
    /// Assembly source.
    pub asm: &'static str,
    oracle_fn: fn(&mut [u32]),
    extra_init: fn(&mut [u32]),
}

impl SeedProgram {
    /// The assembled program, assembled once per process and shared.
    /// Seed programs are static invariants; every one is covered by a
    /// test, so an assembly failure here is a crate bug.
    #[must_use]
    pub fn program(&self) -> &'static Program {
        static CACHE: [OnceLock<Program>; SEED_PROGRAMS.len()] =
            [const { OnceLock::new() }; SEED_PROGRAMS.len()];
        let slot = SEED_PROGRAMS
            .iter()
            .position(|p| p.name == self.name)
            .expect("every seed program is listed");
        CACHE[slot].get_or_init(|| assemble(self.name, self.asm).expect("seed program assembles"))
    }

    /// An owned copy of [`SeedProgram::program`], for callers that
    /// reshape or flip it.
    #[must_use]
    pub fn assembled(&self) -> Program {
        self.program().clone()
    }

    /// Initial data memory for the given run seed: state words are
    /// perturbed by the seed so distinct runs take distinct
    /// trajectories, while layout and constants stay fixed.
    #[must_use]
    pub fn initial_dmem(&self, seed: u64) -> Vec<u32> {
        let mut m = vec![0u32; DMEM_WORDS];
        let lo = seed as u32;
        let hi = (seed >> 32) as u32;
        for i in 0..8 {
            let i32u = i as u32;
            m[ADDR_STATE + i] = (i32u + 1).wrapping_mul(0x9E37_79B9)
                ^ lo.rotate_left(i32u * 4)
                ^ hi.wrapping_mul(i32u + 1);
        }
        for i in 0..16 {
            m[TABLE_BASE + i] = (i as u32).wrapping_mul(0x85EB_CA6B) ^ 0xC0DE_1234;
        }
        for (i, w) in m[PAD_BASE..].iter_mut().enumerate() {
            *w = 0xC0DE_0000 + (PAD_BASE + i) as u32;
        }
        (self.extra_init)(&mut m);
        m
    }

    /// Full-run oracle: the exact data memory after `rounds` clean
    /// rounds from the seeded initial memory.
    #[must_use]
    pub fn oracle(&self, seed: u64, rounds: u32) -> Vec<u32> {
        let mut mem = self.initial_dmem(seed);
        for round in 1..=rounds {
            mem[ADDR_ROUND] = round;
            (self.oracle_fn)(&mut mem);
        }
        mem
    }

    /// Whether a data-memory image holds the program's correct output:
    /// it equals the [`SeedProgram::oracle`] image after `rounds` rounds,
    /// round word included. The one output check of a VM workload.
    #[must_use]
    pub fn output_correct(&self, seed: u64, img: &[u32], rounds: u32) -> bool {
        *img == self.oracle(seed, rounds)[..]
    }
}

/// Look up a seed program by name.
#[must_use]
pub fn seed_program(name: &str) -> Option<&'static SeedProgram> {
    SEED_PROGRAMS.iter().find(|p| p.name == name)
}

/// All seed programs, in canonical order.
pub const SEED_PROGRAMS: &[SeedProgram] = &[CHECKSUM, SORT, MATMUL, STRHASH];

fn no_extra_init(_: &mut [u32]) {}

// ---------------------------------------------------------------- checksum

const CHECKSUM: SeedProgram = SeedProgram {
    name: "checksum",
    title: "table-driven state mix, one helper call per element",
    asm: "\
; S[i] = mix(S[i] + T[(S[i] ^ round) & 15]); acc ^= S[i]
        lit   r6, 0
        ld    r5, r6          ; acc = round
        lit   r4, 0           ; i = 0
loop:
        lit   r6, 1
        add   r6, r6, r4      ; r6 = &S[i]
        ld    r7, r6          ; r7 = S[i]
        lit   r2, 0
        ld    r2, r2          ; r2 = round
        xor   r2, r7, r2
        lit   r3, 15
        and   r2, r2, r3      ; table index
        lit   r3, 16
        add   r2, r2, r3
        ld    r2, r2          ; r2 = T[index]
        add   r8, r7, r2      ; arg = S[i] + t
        call  mix
        xor   r5, r5, r8      ; acc ^= mixed
        st    r6, r8          ; S[i] = mixed
        lit   r7, 1
        add   r4, r4, r7
        lit   r7, 8
        cmplt r7, r4, r7
        jnz   r7, loop
        lit   r6, 9
        st    r6, r5          ; out: mem[9] = acc
        mov   r0, r5
        lit   r6, 1
        ld    r1, r6
        lit   r6, 5
        ld    r2, r6
        lit   r6, 8
        ld    r3, r6
        halt
mix:
        lit   r4, 13
        shl   r5, r0, r4
        xor   r0, r0, r5
        lit   r4, 0x9E3779B9
        add   r0, r0, r4
        lit   r4, 7
        shr   r5, r0, r4
        xor   r0, r0, r5
        ret
",
    oracle_fn: checksum_step,
    extra_init: no_extra_init,
};

fn mix(x: u32) -> u32 {
    let x = x ^ (x << 13);
    let x = x.wrapping_add(0x9E37_79B9);
    x ^ (x >> 7)
}

fn checksum_step(mem: &mut [u32]) {
    let round = mem[ADDR_ROUND];
    let mut acc = round;
    for i in 0..8 {
        let s = mem[ADDR_STATE + i];
        let t = mem[TABLE_BASE + ((s ^ round) & 15) as usize];
        let m = mix(s.wrapping_add(t));
        acc ^= m;
        mem[ADDR_STATE + i] = m;
    }
    mem[9] = acc;
}

// -------------------------------------------------------------------- sort

const SORT: SeedProgram = SeedProgram {
    name: "sort",
    title: "LCG-filled 32-word insertion sort, extremes folded into state",
    asm: "\
; regenerate a[0..32] from (round ^ S[0]) via an LCG, insertion-sort,
; fold a[i]/a[31-i] back into S
        lit   r6, 0
        ld    r7, r6          ; round
        lit   r6, 1
        ld    r6, r6          ; S[0]
        xor   r7, r7, r6      ; x
        lit   r4, 0           ; i
gen:
        lit   r2, 1664525
        mul   r7, r7, r2
        lit   r2, 1013904223
        add   r7, r7, r2
        lit   r6, 16
        add   r6, r6, r4
        st    r6, r7          ; a[i] = x
        lit   r2, 1
        add   r4, r4, r2
        lit   r2, 32
        cmplt r2, r4, r2
        jnz   r2, gen
        lit   r4, 1           ; i = 1
outer:
        lit   r6, 16
        add   r6, r6, r4
        ld    r7, r6          ; key = a[i]
        mov   r5, r4          ; j = i
inner:
        jz    r5, place
        lit   r2, 16
        add   r2, r2, r5
        lit   r3, 1
        sub   r2, r2, r3      ; &a[j-1]
        ld    r3, r2          ; a[j-1]
        cmplt r3, r7, r3      ; key < a[j-1]?
        jz    r3, place
        ld    r3, r2          ; a[j-1] again
        lit   r6, 1
        add   r2, r2, r6      ; &a[j]
        st    r2, r3          ; a[j] = a[j-1]
        lit   r6, 1
        sub   r5, r5, r6      ; j--
        jmp   inner
place:
        lit   r2, 16
        add   r2, r2, r5
        st    r2, r7          ; a[j] = key
        lit   r2, 1
        add   r4, r4, r2
        lit   r2, 32
        cmplt r2, r4, r2
        jnz   r2, outer
        lit   r4, 0
fold:
        lit   r6, 1
        add   r6, r6, r4      ; &S[i]
        ld    r7, r6
        lit   r2, 16
        add   r2, r2, r4
        ld    r2, r2          ; a[i]
        xor   r7, r7, r2
        lit   r2, 47
        sub   r2, r2, r4
        ld    r2, r2          ; a[31-i]
        add   r7, r7, r2
        st    r6, r7
        lit   r2, 1
        add   r4, r4, r2
        lit   r2, 8
        cmplt r2, r4, r2
        jnz   r2, fold
        lit   r6, 16
        ld    r0, r6          ; min
        lit   r6, 47
        ld    r1, r6          ; max
        lit   r6, 9
        st    r6, r0
        lit   r6, 10
        st    r6, r1
        lit   r6, 1
        ld    r2, r6
        lit   r6, 8
        ld    r3, r6
        halt
",
    oracle_fn: sort_step,
    extra_init: no_extra_init,
};

fn sort_step(mem: &mut [u32]) {
    let mut x = mem[ADDR_ROUND] ^ mem[ADDR_STATE];
    for i in 0..32 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        mem[16 + i] = x;
    }
    for i in 1..32 {
        let key = mem[16 + i];
        let mut j = i;
        while j > 0 && key < mem[16 + j - 1] {
            mem[16 + j] = mem[16 + j - 1];
            j -= 1;
        }
        mem[16 + j] = key;
    }
    for i in 0..8 {
        mem[ADDR_STATE + i] = (mem[ADDR_STATE + i] ^ mem[16 + i]).wrapping_add(mem[47 - i]);
    }
    mem[9] = mem[16];
    mem[10] = mem[47];
}

// ------------------------------------------------------------------ matmul

const MATMUL: SeedProgram = SeedProgram {
    name: "matmul",
    title: "3x3 matrix product over state-derived matrices, dot-product helper",
    asm: "\
; A (16..25) and B (25..34) derive from state+round; C = A*B (34..43)
; via a dot-product helper; C folds back into the state
        lit   r6, 0
        ld    r3, r6          ; round, held in r3 until the outputs
        lit   r4, 0           ; k
gena:
        lit   r2, 7
        and   r2, r4, r2
        lit   r6, 1
        add   r2, r2, r6
        ld    r2, r2          ; S[k & 7]
        lit   r6, 0x9E3779B1
        mul   r7, r3, r6
        add   r7, r7, r4
        xor   r7, r2, r7
        lit   r6, 16
        add   r6, r6, r4
        st    r6, r7          ; A[k]
        lit   r6, 1
        add   r4, r4, r6
        lit   r6, 9
        cmplt r6, r4, r6
        jnz   r6, gena
        lit   r4, 0
genb:
        lit   r2, 3
        add   r2, r4, r2
        lit   r6, 7
        and   r2, r2, r6
        lit   r6, 1
        add   r2, r2, r6
        ld    r2, r2          ; S[(k+3) & 7]
        lit   r6, 0x85EBCA6B
        mul   r7, r4, r6
        xor   r7, r3, r7
        add   r7, r2, r7
        lit   r6, 25
        add   r6, r6, r4
        st    r6, r7          ; B[k]
        lit   r6, 1
        add   r4, r4, r6
        lit   r6, 9
        cmplt r6, r4, r6
        jnz   r6, genb
        lit   r4, 0           ; i
mmi:
        lit   r5, 0           ; j
mmj:
        lit   r2, 3
        mul   r2, r4, r2
        lit   r6, 16
        add   r8, r2, r6      ; arg: &A[i][0]
        lit   r6, 25
        add   r9, r5, r6      ; arg: &B[0][j]
        call  dot
        lit   r2, 3
        mul   r2, r4, r2
        add   r2, r2, r5
        lit   r6, 34
        add   r2, r2, r6      ; &C[i][j]
        st    r2, r8
        lit   r6, 1
        add   r5, r5, r6
        lit   r6, 3
        cmplt r6, r5, r6
        jnz   r6, mmj
        lit   r6, 1
        add   r4, r4, r6
        lit   r6, 3
        cmplt r6, r4, r6
        jnz   r6, mmi
        lit   r4, 0
mfold:
        lit   r6, 1
        add   r6, r6, r4
        ld    r7, r6
        lit   r2, 34
        add   r2, r2, r4
        ld    r2, r2          ; C[i]
        xor   r7, r7, r2
        st    r6, r7          ; S[i] ^= C[i]
        lit   r2, 1
        add   r4, r4, r2
        lit   r2, 8
        cmplt r2, r4, r2
        jnz   r2, mfold
        lit   r6, 42
        ld    r7, r6          ; C[8]
        lit   r6, 1
        ld    r2, r6
        add   r2, r2, r7
        st    r6, r2          ; S[0] += C[8]
        lit   r6, 34
        ld    r0, r6
        lit   r6, 42
        ld    r1, r6
        lit   r6, 9
        st    r6, r0
        lit   r6, 10
        st    r6, r1
        lit   r6, 1
        ld    r2, r6
        lit   r6, 8
        ld    r3, r6
        halt
dot:
        ld    r4, r0          ; A[i][0]   (args arrive in r0/r1)
        ld    r5, r1          ; B[0][j]
        mul   r6, r4, r5
        lit   r7, 1
        add   r0, r0, r7
        lit   r7, 3
        add   r1, r1, r7
        ld    r4, r0
        ld    r5, r1
        mul   r4, r4, r5
        add   r6, r6, r4
        lit   r7, 1
        add   r0, r0, r7
        lit   r7, 3
        add   r1, r1, r7
        ld    r4, r0
        ld    r5, r1
        mul   r4, r4, r5
        add   r0, r6, r4      ; result returns in caller r8
        ret
",
    oracle_fn: matmul_step,
    extra_init: no_extra_init,
};

fn matmul_step(mem: &mut [u32]) {
    let round = mem[ADDR_ROUND];
    for k in 0..9u32 {
        mem[16 + k as usize] =
            mem[ADDR_STATE + (k & 7) as usize] ^ round.wrapping_mul(0x9E37_79B1).wrapping_add(k);
    }
    for k in 0..9u32 {
        mem[25 + k as usize] = mem[ADDR_STATE + ((k + 3) & 7) as usize]
            .wrapping_add(round ^ k.wrapping_mul(0x85EB_CA6B));
    }
    for i in 0..3 {
        for j in 0..3 {
            let mut acc = 0u32;
            for k in 0..3 {
                acc = acc.wrapping_add(mem[16 + 3 * i + k].wrapping_mul(mem[25 + 3 * k + j]));
            }
            mem[34 + 3 * i + j] = acc;
        }
    }
    for i in 0..8 {
        mem[ADDR_STATE + i] ^= mem[34 + i];
    }
    mem[ADDR_STATE] = mem[ADDR_STATE].wrapping_add(mem[42]);
    mem[9] = mem[34];
    mem[10] = mem[42];
}

// ----------------------------------------------------------------- strhash

const STRHASH: SeedProgram = SeedProgram {
    name: "strhash",
    title: "FNV-1a over a persistent packed string, self-mutating",
    asm: "\
; h = fnv1a(string at 48..56, seeded with round); fold h into S;
; mutate one string word so corruption there persists across rounds
        lit   r6, 0
        ld    r7, r6
        lit   r6, 2166136261
        xor   r7, r7, r6      ; h
        lit   r4, 0           ; w
hw:
        lit   r6, 48
        add   r6, r6, r4
        ld    r2, r6          ; x = string[w]
        lit   r5, 0           ; b
hb:
        lit   r6, 3
        shl   r6, r5, r6      ; 8*b
        shr   r3, r2, r6
        lit   r6, 255
        and   r3, r3, r6      ; byte
        xor   r7, r7, r3
        lit   r6, 16777619
        mul   r7, r7, r6
        lit   r6, 1
        add   r5, r5, r6
        lit   r6, 4
        cmplt r6, r5, r6
        jnz   r6, hb
        lit   r6, 1
        add   r4, r4, r6
        lit   r6, 8
        cmplt r6, r4, r6
        jnz   r6, hw
        lit   r4, 0
sf:
        lit   r6, 1
        add   r6, r6, r4      ; &S[i]
        ld    r2, r6
        lit   r3, 0x9E3779B9
        mul   r3, r4, r3
        xor   r3, r3, r7
        add   r2, r2, r3
        st    r6, r2          ; S[i] += (i*phi) ^ h
        lit   r3, 1
        add   r4, r4, r3
        lit   r3, 8
        cmplt r3, r4, r3
        jnz   r3, sf
        lit   r6, 0
        ld    r2, r6          ; round
        lit   r6, 7
        and   r2, r2, r6
        lit   r6, 48
        add   r2, r2, r6      ; &string[round & 7]
        ld    r3, r2
        add   r3, r3, r7
        st    r2, r3          ; string[round & 7] += h
        mov   r0, r7
        lit   r6, 9
        st    r6, r7          ; out: mem[9] = h
        lit   r6, 1
        ld    r1, r6
        lit   r6, 8
        ld    r2, r6
        lit   r6, 53
        ld    r3, r6
        halt
",
    oracle_fn: strhash_step,
    extra_init: strhash_init,
};

fn strhash_init(mem: &mut [u32]) {
    const TEXT: &[u8; 32] = b"virtual-duplex-on-smt:vds-vm-01!";
    for w in 0..8 {
        let b = &TEXT[w * 4..w * 4 + 4];
        mem[STR_BASE + w] = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

fn strhash_step(mem: &mut [u32]) {
    let round = mem[ADDR_ROUND];
    let mut h = 2_166_136_261u32 ^ round;
    for w in 0..8 {
        let x = mem[STR_BASE + w];
        for b in 0..4 {
            let byte = (x >> (8 * b)) & 0xff;
            h = (h ^ byte).wrapping_mul(16_777_619);
        }
    }
    for i in 0..8 {
        mem[ADDR_STATE + i] =
            mem[ADDR_STATE + i].wrapping_add((i as u32).wrapping_mul(0x9E37_79B9) ^ h);
    }
    let idx = STR_BASE + (round & 7) as usize;
    mem[idx] = mem[idx].wrapping_add(h);
    mem[9] = h;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Outcome, Vm};
    use crate::run_round;

    #[test]
    fn each_seed_program_is_assembled_once() {
        for p in SEED_PROGRAMS {
            assert!(std::ptr::eq(p.program(), p.program()), "{}", p.name);
            assert_eq!(*p.program(), assemble(p.name, p.asm).unwrap());
        }
    }

    #[test]
    fn every_seed_program_assembles() {
        for p in SEED_PROGRAMS {
            let prog = p.assembled();
            assert!(!prog.code.is_empty(), "{}", p.name);
            assert!(!prog.lits.is_empty(), "{}", p.name);
        }
        assert_eq!(SEED_PROGRAMS.len(), 4);
        assert!(seed_program("checksum").is_some());
        assert!(seed_program("nope").is_none());
    }

    #[test]
    fn vm_execution_matches_the_oracle_word_for_word() {
        for p in SEED_PROGRAMS {
            for seed in [0u64, 7, 0xDEAD_BEEF_CAFE] {
                let prog = p.assembled();
                let mut vm = Vm::with_mem(p.initial_dmem(seed));
                for round in 1..=12u32 {
                    let r = run_round(&mut vm, &prog, round, None);
                    assert_eq!(
                        r.outcome,
                        Outcome::Halted,
                        "{} seed {seed} round {round}: {r:?}",
                        p.name
                    );
                }
                let want = p.oracle(seed, 12);
                assert_eq!(vm.mem, want, "{} seed {seed}: dmem diverged", p.name);
            }
        }
    }

    #[test]
    fn rounds_are_cheap_relative_to_the_step_budget() {
        for p in SEED_PROGRAMS {
            let prog = p.assembled();
            let mut vm = Vm::with_mem(p.initial_dmem(1));
            let r = run_round(&mut vm, &prog, 1, None);
            assert_eq!(r.outcome, Outcome::Halted, "{}", p.name);
            assert!(
                r.steps < crate::STEP_BUDGET / 10,
                "{}: {} steps leaves no hang headroom",
                p.name,
                r.steps
            );
        }
    }

    #[test]
    fn state_window_evolves_every_round() {
        for p in SEED_PROGRAMS {
            let prog = p.assembled();
            let mut vm = Vm::with_mem(p.initial_dmem(3));
            let mut prev = vm.mem[STATE_WINDOW].to_vec();
            for round in 1..=4u32 {
                run_round(&mut vm, &prog, round, None);
                let cur = vm.mem[STATE_WINDOW].to_vec();
                assert_ne!(cur, prev, "{} round {round}: state stuck", p.name);
                prev = cur;
            }
        }
    }

    #[test]
    fn seeds_select_distinct_trajectories() {
        for p in SEED_PROGRAMS {
            assert_ne!(p.oracle(1, 4), p.oracle(2, 4), "{}", p.name);
        }
    }

    #[test]
    fn padding_is_never_touched() {
        for p in SEED_PROGRAMS {
            let init = p.initial_dmem(9);
            let after = p.oracle(9, 16);
            assert_eq!(
                &init[PAD_BASE..],
                &after[PAD_BASE..],
                "{}: padding must stay dead",
                p.name
            );
        }
    }

    #[test]
    fn strhash_string_is_initialized_and_mutated() {
        let p = seed_program("strhash").unwrap();
        let init = p.initial_dmem(0);
        assert_eq!(init[STR_BASE], u32::from_le_bytes(*b"virt"));
        let after = p.oracle(0, 8);
        assert_ne!(&init[STR_BASE..PAD_BASE], &after[STR_BASE..PAD_BASE]);
    }
}
