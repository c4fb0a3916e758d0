//! The VDS application workload for the micro backend.
//!
//! Classical virtual duplex systems compare and transplant *defined
//! comparison states* between diverse versions; that only works if the
//! state that matters is representation-independent. This workload is
//! written in that style: **all live state resides in data memory at
//! every round boundary** — registers are dead at `yield` — so
//!
//! * two diverse versions' data memories are bit-identical after equal
//!   round counts (the comparison invariant), and
//! * any version can be (re)started *at any round boundary* from any
//!   state image via a canonical context `{regs: 0, pc: round-entry,
//!   dmem: image}` — which is exactly what the recovery schemes need for
//!   replay and cross-state roll-forward.
//!
//! The computation itself is a keyed state-mixing loop (multiplies,
//! xors, shifts, table lookups) over [`STATE_WORDS`] words — enough
//! microarchitectural variety that diversity transforms and functional-
//! unit faults have observable consequences.
//!
//! Memory layout (word addresses):
//!
//! ```text
//! 0                  round counter (completed rounds)
//! 1                  remaining rounds (counts down to 0)
//! 2 .. 2+S           mixing state S[0..S]
//! 2+S .. 2+S+T       lookup table (read-only)
//! ```

use std::sync::OnceLock;
use vds_smtsim::asm::assemble;
use vds_smtsim::program::{Program, Symbol};

/// Mixing-state size in words.
pub const STATE_WORDS: u32 = 8;
/// Lookup-table size in words (power of two; the mixer masks with T−1).
pub const TABLE_WORDS: u32 = 32;

/// Address of the round counter.
pub const ADDR_ROUND: u32 = 0;
/// Address of the remaining-rounds counter.
pub const ADDR_REMAINING: u32 = 1;
/// First state word.
pub const ADDR_STATE: u32 = 2;
/// First table word.
pub const ADDR_TABLE: u32 = ADDR_STATE + STATE_WORDS;
/// Words of data memory the workload needs (plus slack for nothing —
/// the address space ends right after the table, so wild pointers trap).
pub const DMEM_WORDS: usize = (ADDR_TABLE + TABLE_WORDS) as usize;

/// The comparable state window: counters + mixing state (the table is
/// read-only and could be included, but keeping it out exercises the
/// "window" concept).
pub const STATE_WINDOW: std::ops::Range<u32> = 0..ADDR_TABLE;

/// Build the base workload program performing `rounds` rounds.
///
/// The round count is only the initial value of the remaining-rounds data
/// word, so the source is assembled once and each call patches that word
/// into a copy.
pub fn build(rounds: u32) -> Program {
    assert!(rounds >= 1);
    let mut prog = template().clone();
    prog.data[ADDR_REMAINING as usize] = rounds;
    prog
}

/// Instructions in the workload's text, whatever its round count,
/// without the copy of the whole program [`build`] makes.
pub fn text_len() -> usize {
    template().text.len()
}

/// The workload assembled once, for one round.
fn template() -> &'static Program {
    static TEMPLATE: OnceLock<Program> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let prog = assemble(&source(1)).expect("workload must assemble");
        debug_assert!(matches!(prog.symbol("round"), Some(Symbol::Text(_))));
        prog
    })
}

/// Assembly source of the workload performing `rounds` rounds.
fn source(rounds: u32) -> String {
    let s = STATE_WORDS;
    let t_mask = TABLE_WORDS - 1;
    let a_state = ADDR_STATE;
    let a_table = ADDR_TABLE;
    format!(
        r#"
        ; memory-resident VDS workload: all live state in dmem at yield
        .data
        counters: .word 0, {rounds}
        state:    .word 17, 42, 99, 7, 1234, 5678, 4321, 8765
        table:    .word  3,  1,  4,  1,   5,   9,   2,   6
                  .word  5,  3,  5,  8,   9,   7,   9,   3
                  .word  2,  3,  8,  4,   6,   2,   6,   4
                  .word  3,  3,  8,  3,   2,   7,   9,   5
        .text
        round:
            ld   r1, {addr_round}(r0)   ; k = completed rounds
            addi r2, r0, 0              ; j = 0
            addi r9, r0, {s}
        mix:
            add  r3, r2, r0
            addi r3, r3, {a_state}      ; &S[j]
            ld   r4, 0(r3)              ; S[j]
            ; idx = (S[j] + k) & (T-1)
            add  r5, r4, r1
            andi r5, r5, {t_mask}
            addi r5, r5, {a_table}
            ld   r6, 0(r5)              ; table[idx]
            ; S[j] = (S[j]*31 + table[idx]) ^ (S[(j+1) mod s] >> 3)
            addi r7, r0, 31
            mul  r8, r4, r7
            add  r8, r8, r6
            addi r10, r2, 1
            blt  r10, r9, nowrap
            addi r10, r0, 0
        nowrap:
            addi r10, r10, {a_state}
            ld   r11, 0(r10)            ; S[j+1 mod s]
            srli r11, r11, 3
            xor  r8, r8, r11
            st   r8, 0(r3)
            addi r2, r2, 1
            bne  r2, r9, mix
            ; counters
            addi r1, r1, 1
            st   r1, {addr_round}(r0)
            ld   r2, {addr_remaining}(r0)
            subi r2, r2, 1
            st   r2, {addr_remaining}(r0)
            yield
            bne  r2, r0, round
            halt
        "#,
        addr_round = ADDR_ROUND,
        addr_remaining = ADDR_REMAINING,
    )
}

/// The round-entry instruction index of a (possibly diversified) workload
/// program.
///
/// # Panics
/// Panics if the program lost its `round` symbol.
pub fn round_entry(prog: &Program) -> u32 {
    match prog.symbol("round") {
        Some(Symbol::Text(t)) => t,
        other => panic!("workload without a `round` text symbol: {other:?}"),
    }
}

/// Pure-Rust oracle: the expected `(round_counter, state)` after `rounds`
/// rounds.
pub fn oracle(rounds: u32) -> (u32, Vec<u32>) {
    let mut state: Vec<u32> = vec![17, 42, 99, 7, 1234, 5678, 4321, 8765];
    let table: Vec<u32> = vec![
        3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7,
        9, 5,
    ];
    let s = STATE_WORDS as usize;
    for k in 0..rounds {
        for j in 0..s {
            let sj = state[j];
            let idx = (sj.wrapping_add(k) & (TABLE_WORDS - 1)) as usize;
            let nxt = state[(j + 1) % s] >> 3;
            state[j] = sj.wrapping_mul(31).wrapping_add(table[idx]) ^ nxt;
        }
    }
    (rounds, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vds_smtsim::core::{Core, CoreConfig, RunOutcome, ThreadId};

    fn run_rounds(prog: &Program, rounds: u32) -> Vec<u32> {
        let mut core = Core::new(CoreConfig::single_threaded());
        let t = core.add_thread(prog, DMEM_WORDS);
        for _ in 0..rounds {
            assert_eq!(
                core.run_until_all_blocked(10_000_000),
                RunOutcome::AllYielded
            );
            core.resume(t);
        }
        core.thread(ThreadId(0)).dmem.clone()
    }

    #[test]
    fn build_equals_a_fresh_assembly() {
        for rounds in [1, 4, 40, 1_000_000] {
            let fresh = assemble(&source(rounds)).unwrap();
            assert_eq!(build(rounds), fresh, "rounds = {rounds}");
            assert_eq!(text_len(), fresh.text.len(), "rounds = {rounds}");
        }
    }

    #[test]
    fn matches_oracle() {
        let prog = build(10);
        for check in [1u32, 5, 10] {
            let dmem = run_rounds(&prog, check);
            let (k, state) = oracle(check);
            assert_eq!(dmem[ADDR_ROUND as usize], k);
            assert_eq!(
                &dmem[ADDR_STATE as usize..(ADDR_STATE + STATE_WORDS) as usize],
                &state[..],
                "state after {check} rounds"
            );
        }
    }

    #[test]
    fn state_is_memory_resident_at_yield() {
        // Canonical re-entry: run 3 rounds natively; separately run 2
        // rounds, capture dmem, re-enter at `round` with zeroed registers
        // and run 1 more round — states must agree.
        let prog = build(10);
        let native = run_rounds(&prog, 3);

        let mut core = Core::new(CoreConfig::single_threaded());
        let t = core.add_thread(&prog, DMEM_WORDS);
        for _ in 0..2 {
            core.run_until_all_blocked(10_000_000);
            core.resume(t);
        }
        // canonical re-entry
        let th = core.thread_mut(t);
        th.regs = [0; 16];
        th.pc = round_entry(&prog);
        assert_eq!(
            core.run_until_all_blocked(10_000_000),
            RunOutcome::AllYielded
        );
        let reentered = core.thread(ThreadId(0)).dmem.clone();
        assert_eq!(native, reentered);
    }

    #[test]
    fn diversified_versions_agree_in_memory() {
        let base = build(6);
        for idx in 1..=3u32 {
            let v = vds_diversity::diversify(&base, idx, 2024);
            let a = run_rounds(&base, 4);
            let b = run_rounds(&v, 4);
            assert_eq!(a, b, "version {idx} dmem diverged");
            // and the round symbol survived diversification
            let entry = round_entry(&v);
            assert!((entry as usize) < v.text.len());
        }
    }

    #[test]
    fn cross_version_state_adoption_works() {
        // Run the base for 2 rounds, then hand its memory image to a
        // *diverse* version via a canonical context and continue — the
        // result must equal 3 native rounds.
        let base = build(10);
        let v1 = vds_diversity::diversify(&base, 1, 7);
        let native3 = run_rounds(&base, 3);

        let mut core = Core::new(CoreConfig::single_threaded());
        let t = core.add_thread(&base, DMEM_WORDS);
        for _ in 0..2 {
            core.run_until_all_blocked(10_000_000);
            core.resume(t);
        }
        let image = core.thread(ThreadId(0)).dmem.clone();

        let mut core2 = Core::new(CoreConfig::single_threaded());
        let t2 = core2.add_thread(&v1, DMEM_WORDS);
        let th = core2.thread_mut(t2);
        th.dmem = image;
        th.regs = [0; 16];
        th.pc = round_entry(&v1);
        assert_eq!(
            core2.run_until_all_blocked(10_000_000),
            RunOutcome::AllYielded
        );
        assert_eq!(core2.thread(t2).dmem, native3);
    }

    #[test]
    fn halts_after_budget() {
        let prog = build(2);
        let mut core = Core::new(CoreConfig::single_threaded());
        let t = core.add_thread(&prog, DMEM_WORDS);
        core.run_until_all_blocked(10_000_000);
        core.resume(t);
        assert_eq!(
            core.run_until_all_blocked(10_000_000),
            RunOutcome::AllYielded
        );
        core.resume(t);
        assert_eq!(
            core.run_until_all_blocked(10_000_000),
            RunOutcome::AllHalted
        );
    }
}
