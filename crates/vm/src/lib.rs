#![forbid(unsafe_code)]

//! A small register-based bytecode VM that turns real programs into VDS
//! workloads.
//!
//! The duplex engines in `vds-core` historically advanced synthetic work
//! units; every fault-coverage or G-residual number was therefore
//! parametric rather than earned on architectural state. This crate
//! supplies the missing substance: a fixed-width register ISA with
//! register windows (modeled on regorus's RVM), a deterministic
//! assembler for a tiny text format, an interpreter with explicit trap
//! and step-budget semantics, and four seed programs (checksum loop,
//! insertion sort, 3x3 matrix multiply, string hash) each paired with a
//! pure-Rust oracle over the full data memory.
//!
//! Determinism contract: assembling the same source yields the same
//! `Program` (literal pool interned in first-appearance order, labels
//! resolved in two passes), and executing the same program from the
//! same data memory always performs the same instruction sequence. All
//! arithmetic wraps; shifts mask their amount to 5 bits; there is no
//! I/O, no clock, and no host-dependent behavior. The duplex engine in
//! `vds-core` leans on this to digest registers+memory per round and
//! compare variants bit-for-bit.
//!
//! The crate is dependency-free so the diversity and fault layers can
//! reshape programs and flip architectural state without cycles in the
//! workspace graph.

pub mod asm;
pub mod interp;
pub mod isa;
pub mod programs;

pub use asm::{assemble, AsmError, Program};
pub use interp::{
    FaultPlan, Outcome, RunResult, StateFlip, Trap, Vm, DMEM_WORDS, MAX_FRAMES, REG_FILE,
    STEP_BUDGET, WINDOW_SHIFT,
};
pub use isa::{AluOp, Instr};
pub use programs::{
    seed_program, SeedProgram, ADDR_ROUND, ADDR_STATE, DIGEST_REGS, SEED_PROGRAMS, STATE_WINDOW,
};

/// Run one duplex round: canonical re-entry (registers zeroed, window
/// base and pc reset), publish the round number at [`ADDR_ROUND`], then
/// execute to halt/trap/hang. Data memory persists across rounds — that
/// persistence is what gives injected memory faults a lifetime.
pub fn run_round(vm: &mut Vm, prog: &Program, round: u32, fault: Option<&FaultPlan>) -> RunResult {
    vm.reset_for_round();
    vm.mem[ADDR_ROUND] = round;
    vm.run(prog, fault)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_protocol_is_reentrant() {
        let p = seed_program("checksum").unwrap();
        let mut vm = Vm::with_mem(p.initial_dmem(7));
        for round in 1..=5u32 {
            let r = run_round(&mut vm, &p.assembled(), round, None);
            assert!(matches!(r.outcome, Outcome::Halted), "round {round}: {r:?}");
            assert_eq!(vm.mem[ADDR_ROUND], round);
        }
    }
}
