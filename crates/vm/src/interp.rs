//! The interpreter: a flat 256-register file viewed through a sliding
//! window, a word-addressed data memory, and explicit trap/budget
//! semantics so every abnormal outcome is observable evidence for the
//! duplex comparator.
//!
//! Step contract of [`Vm::run`]:
//! - a [`FaultPlan`] flip fires exactly before step `at_step` (0 = on
//!   round-entry state), and only if the round gets that far;
//! - the budget check comes after the flip, so a plan with
//!   `at_step == STEP_BUDGET` fires and the round then hangs, while a
//!   plan beyond the budget never fires;
//! - a trap reports the pc of the faulting instruction and leaves
//!   `pc` there; a trapping instruction counts as a step unless the
//!   fetch itself failed ([`Trap::PcOutOfRange`]).
//!
//! `run` executes this as two straight-line segments, the fault-free
//! prefix and the rest after the flip, so the step loop never looks at
//! the plan. A per-step reference stepper, test-only in
//! `interp/oracle.rs`, is the oracle of a differential property.

use crate::asm::Program;
use crate::isa::Instr;

#[cfg(test)]
mod oracle;

/// Size of the flat physical register file.
pub const REG_FILE: usize = 256;
/// How far the window slides on `call`: the caller's `r8..` alias the
/// callee's `r0..`, so `r8..r11` are the argument/return registers.
pub const WINDOW_SHIFT: usize = 8;
/// Maximum call depth before a frame-overflow trap.
pub const MAX_FRAMES: usize = 24;
/// Words of data memory. Layout conventions live in [`crate::programs`].
pub const DMEM_WORDS: usize = 64;
/// Per-round step budget; exceeding it is a hang verdict, the VM
/// analogue of the watchdog in the micro engine.
pub const STEP_BUDGET: u64 = 100_000;

/// Why execution stopped abnormally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// `pc` left the code array (also the usual fate of a PC bit flip).
    PcOutOfRange,
    /// The fetched word decoded to no instruction.
    IllegalInstr,
    /// A literal-pool index exceeded the pool.
    LitOutOfRange,
    /// A load/store address exceeded data memory.
    MemOutOfRange,
    /// A window-relative register name fell off the physical file.
    RegOutOfRange,
    /// `call` beyond [`MAX_FRAMES`] or past the register file.
    FrameOverflow,
    /// `ret` with no frame to pop.
    FrameUnderflow,
}

impl Trap {
    /// Short stable name (journal/report strings).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Trap::PcOutOfRange => "pc-oob",
            Trap::IllegalInstr => "illegal",
            Trap::LitOutOfRange => "lit-oob",
            Trap::MemOutOfRange => "mem-oob",
            Trap::RegOutOfRange => "reg-oob",
            Trap::FrameOverflow => "frame-overflow",
            Trap::FrameUnderflow => "frame-underflow",
        }
    }
}

/// How one round of execution ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Reached `halt`; architectural state is valid for comparison.
    Halted,
    /// Trapped at the given pc.
    Trapped { trap: Trap, pc: u32 },
    /// Exceeded [`STEP_BUDGET`].
    Hung,
}

/// Result of [`Vm::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    pub outcome: Outcome,
    /// Instructions executed (the engine's time unit for this round).
    pub steps: u64,
    /// Whether a scheduled [`FaultPlan`] actually fired; a plan whose
    /// `at_step` lies beyond the halt point arrives masked.
    pub fault_applied: bool,
}

/// A single architectural-state bit flip scheduled mid-execution.
/// Literal-pool flips are not represented here: the pool is immutable
/// program text, so the engine flips it on its copy of the [`Program`]
/// before the round and reverts it after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Apply the flip just before executing this step (0 = before the
    /// first instruction, i.e. on round-entry state).
    pub at_step: u64,
    pub flip: StateFlip,
}

/// Target of a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateFlip {
    /// Flip one bit of a physical register (absolute index).
    Reg { index: u16, bit: u8 },
    /// Flip one bit of the program counter.
    Pc { bit: u8 },
    /// Flip one bit of a data-memory word.
    Mem { addr: u8, bit: u8 },
}

/// Machine state. Registers and control state are reset at every round
/// entry; data memory persists for the life of the run.
#[derive(Clone, Debug)]
pub struct Vm {
    /// Flat physical register file; the window base selects the visible
    /// `r0..` slice.
    pub regs: [u32; REG_FILE],
    /// Program counter (code index).
    pub pc: u32,
    /// Current window base into `regs`.
    pub base: u32,
    /// Return frames: `(return_pc, caller_base)`.
    frames: Vec<(u32, u32)>,
    /// Word-addressed data memory.
    pub mem: Vec<u32>,
}

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}

impl Vm {
    /// Fresh machine with zeroed memory.
    #[must_use]
    pub fn new() -> Vm {
        Vm::with_mem(vec![0; DMEM_WORDS])
    }

    /// Fresh machine with the given initial data memory.
    #[must_use]
    pub fn with_mem(mem: Vec<u32>) -> Vm {
        Vm {
            regs: [0; REG_FILE],
            pc: 0,
            base: 0,
            frames: Vec::new(),
            mem,
        }
    }

    /// Canonical round entry: zero all registers, reset pc/window/call
    /// stack. Data memory is deliberately left alone.
    pub fn reset_for_round(&mut self) {
        self.regs = [0; REG_FILE];
        self.pc = 0;
        self.base = 0;
        self.frames.clear();
    }

    /// The registers the duplex digest covers: the base frame's
    /// `r0..r3` output registers.
    #[must_use]
    pub fn output_regs(&self) -> [u32; 4] {
        [self.regs[0], self.regs[1], self.regs[2], self.regs[3]]
    }

    fn apply_flip(&mut self, flip: StateFlip) {
        match flip {
            StateFlip::Reg { index, bit } => {
                let i = usize::from(index) % REG_FILE;
                self.regs[i] ^= 1u32 << (bit & 31);
            }
            StateFlip::Pc { bit } => {
                // keep the flip inside the 16-bit encodable pc range;
                // it still almost always lands out of code bounds
                self.pc ^= 1u32 << (bit & 15);
            }
            StateFlip::Mem { addr, bit } => {
                let a = usize::from(addr) % self.mem.len().max(1);
                self.mem[a] ^= 1u32 << (bit & 31);
            }
        }
    }

    /// Execute until halt, trap, or budget exhaustion, optionally
    /// applying one scheduled state flip mid-flight, under the step
    /// contract in the module docs.
    pub fn run(&mut self, prog: &Program, fault: Option<&FaultPlan>) -> RunResult {
        let plan = fault.filter(|f| f.at_step <= STEP_BUDGET);
        let (mut steps, mut ended) =
            self.run_until(prog, 0, plan.map_or(STEP_BUDGET, |f| f.at_step));
        let mut fault_applied = false;
        if let (None, Some(f)) = (ended, plan) {
            self.apply_flip(f.flip);
            fault_applied = true;
            (steps, ended) = self.run_until(prog, steps, STEP_BUDGET);
        }
        RunResult {
            outcome: ended.unwrap_or(Outcome::Hung),
            steps,
            fault_applied,
        }
    }

    /// The step loop: execute from `steps` until halt or trap (returned
    /// with the step count) or until `steps == limit` (`None`). `pc` and
    /// the window base live in locals and are written back on exit; a
    /// trap leaves `pc` at the faulting instruction.
    fn run_until(&mut self, prog: &Program, mut steps: u64, limit: u64) -> (u64, Option<Outcome>) {
        let Vm {
            regs,
            pc: pc_out,
            base: base_out,
            frames,
            mem,
        } = self;
        let mut pc = *pc_out as usize;
        let mut base = *base_out as usize;
        let ended = 'step: loop {
            if steps >= limit {
                break None;
            }
            macro_rules! trap {
                ($trap:expr) => {
                    break 'step Some(Outcome::Trapped {
                        trap: $trap,
                        pc: pc as u32,
                    })
                };
            }
            // physical index of window-relative register `r`, or trap
            macro_rules! reg {
                ($r:expr) => {{
                    let i = base + usize::from($r);
                    if i >= REG_FILE {
                        trap!(Trap::RegOutOfRange);
                    }
                    i
                }};
            }
            let Some(&instr) = prog.code.get(pc) else {
                trap!(Trap::PcOutOfRange);
            };
            steps += 1;
            match instr {
                Instr::Halt => break Some(Outcome::Halted),
                Instr::LoadLit { d, idx } => {
                    let Some(&v) = prog.lits.get(usize::from(idx)) else {
                        trap!(Trap::LitOutOfRange);
                    };
                    regs[reg!(d)] = v;
                }
                Instr::Mov { d, s } => regs[reg!(d)] = regs[reg!(s)],
                Instr::Alu { op, d, a, b } => {
                    let v = op.eval(regs[reg!(a)], regs[reg!(b)]);
                    regs[reg!(d)] = v;
                }
                Instr::CmpLt { d, a, b } => {
                    let v = u32::from(regs[reg!(a)] < regs[reg!(b)]);
                    regs[reg!(d)] = v;
                }
                Instr::CmpEq { d, a, b } => {
                    let v = u32::from(regs[reg!(a)] == regs[reg!(b)]);
                    regs[reg!(d)] = v;
                }
                Instr::Jmp { target } => {
                    pc = usize::from(target);
                    continue;
                }
                Instr::Jnz { s, target } => {
                    if regs[reg!(s)] != 0 {
                        pc = usize::from(target);
                        continue;
                    }
                }
                Instr::Jz { s, target } => {
                    if regs[reg!(s)] == 0 {
                        pc = usize::from(target);
                        continue;
                    }
                }
                Instr::Call { target } => {
                    if frames.len() >= MAX_FRAMES || base + 2 * WINDOW_SHIFT > REG_FILE {
                        trap!(Trap::FrameOverflow);
                    }
                    frames.push((pc as u32 + 1, base as u32));
                    base += WINDOW_SHIFT;
                    pc = usize::from(target);
                    continue;
                }
                Instr::Ret => {
                    let Some((ret_pc, caller_base)) = frames.pop() else {
                        trap!(Trap::FrameUnderflow);
                    };
                    base = caller_base as usize;
                    pc = ret_pc as usize;
                    continue;
                }
                Instr::Ld { d, a } => {
                    let Some(&v) = mem.get(regs[reg!(a)] as usize) else {
                        trap!(Trap::MemOutOfRange);
                    };
                    regs[reg!(d)] = v;
                }
                Instr::St { a, s } => {
                    let addr = regs[reg!(a)] as usize;
                    let v = regs[reg!(s)];
                    let Some(w) = mem.get_mut(addr) else {
                        trap!(Trap::MemOutOfRange);
                    };
                    *w = v;
                }
            }
            pc += 1;
        };
        *pc_out = pc as u32;
        *base_out = base as u32;
        (steps, ended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_src(src: &str) -> (Vm, RunResult) {
        let p = assemble("t", src).unwrap();
        let mut vm = Vm::new();
        let r = vm.run(&p, None);
        (vm, r)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (vm, r) = run_src(
            "lit r1, 40\n\
             lit r2, 2\n\
             add r0, r1, r2\n\
             halt\n",
        );
        assert_eq!(r.outcome, Outcome::Halted);
        assert_eq!(vm.regs[0], 42);
        assert_eq!(r.steps, 4);
    }

    #[test]
    fn loops_and_compares() {
        // sum 1..=10
        let (vm, r) = run_src(
            "lit r4, 0\n\
             lit r5, 0\n\
             loop:\n\
             lit r6, 1\n\
             add r4, r4, r6\n\
             add r5, r5, r4\n\
             lit r6, 10\n\
             cmplt r6, r4, r6\n\
             jnz r6, loop\n\
             mov r0, r5\n\
             halt\n",
        );
        assert_eq!(r.outcome, Outcome::Halted);
        assert_eq!(vm.regs[0], 55);
    }

    #[test]
    fn call_slides_the_register_window() {
        // caller passes 5 in r8 (callee r0); callee doubles it; caller
        // reads the result back from r8; callee scratch must not
        // disturb the caller's r4.
        let (vm, r) = run_src(
            "lit r4, 99\n\
             lit r8, 5\n\
             call double\n\
             mov r0, r8\n\
             mov r1, r4\n\
             halt\n\
             double:\n\
             lit r4, 2\n\
             mul r0, r0, r4\n\
             ret\n",
        );
        assert_eq!(r.outcome, Outcome::Halted);
        assert_eq!(vm.regs[0], 10);
        assert_eq!(vm.regs[1], 99, "caller scratch survived the call");
    }

    #[test]
    fn memory_roundtrip() {
        let (vm, r) = run_src(
            "lit r1, 7\n\
             lit r2, 1234\n\
             st r1, r2\n\
             ld r0, r1\n\
             halt\n",
        );
        assert_eq!(r.outcome, Outcome::Halted);
        assert_eq!(vm.regs[0], 1234);
        assert_eq!(vm.mem[7], 1234);
    }

    #[test]
    fn traps_are_precise() {
        let cases: &[(&str, Trap)] = &[
            ("lit r1, 9999\nld r0, r1\nhalt\n", Trap::MemOutOfRange),
            (
                "lit r1, 9999\nlit r2, 1\nst r1, r2\nhalt\n",
                Trap::MemOutOfRange,
            ),
            ("ret\n", Trap::FrameUnderflow),
            ("jmp nowhere\nnowhere:\n", Trap::PcOutOfRange),
        ];
        for (src, want) in cases {
            let (_, r) = run_src(src);
            match r.outcome {
                Outcome::Trapped { trap, .. } => assert_eq!(trap, *want, "{src}"),
                other => panic!("{src}: {other:?}"),
            }
        }
    }

    #[test]
    fn deep_recursion_traps_as_frame_overflow() {
        let (_, r) = run_src("down:\ncall down\nhalt\n");
        match r.outcome {
            Outcome::Trapped { trap, .. } => assert_eq!(trap, Trap::FrameOverflow),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infinite_loop_hits_the_step_budget() {
        let (_, r) = run_src("spin:\njmp spin\n");
        assert_eq!(r.outcome, Outcome::Hung);
        assert_eq!(r.steps, STEP_BUDGET);
    }

    #[test]
    fn register_flip_fires_at_the_scheduled_step() {
        let p = assemble(
            "t",
            "lit r1, 1\n\
             lit r2, 2\n\
             add r0, r1, r2\n\
             halt\n",
        )
        .unwrap();
        // flip r1 bit 4 after the two loads: 1 -> 17, so r0 = 19
        let mut vm = Vm::new();
        let r = vm.run(
            &p,
            Some(&FaultPlan {
                at_step: 2,
                flip: StateFlip::Reg { index: 1, bit: 4 },
            }),
        );
        assert_eq!(r.outcome, Outcome::Halted);
        assert!(r.fault_applied);
        assert_eq!(vm.regs[0], 19);
    }

    #[test]
    fn late_fault_plans_arrive_masked() {
        let p = assemble("t", "halt\n").unwrap();
        let mut vm = Vm::new();
        let r = vm.run(
            &p,
            Some(&FaultPlan {
                at_step: 50,
                flip: StateFlip::Reg { index: 0, bit: 0 },
            }),
        );
        assert_eq!(r.outcome, Outcome::Halted);
        assert!(!r.fault_applied, "plan beyond halt never fires");
        assert_eq!(vm.regs[0], 0);
    }

    #[test]
    fn flips_at_the_budget_fire_and_beyond_it_never_do() {
        let p = assemble("t", "spin:\njmp spin\n").unwrap();
        for (at_step, fires) in [(STEP_BUDGET, true), (STEP_BUDGET + 1, false)] {
            let mut vm = Vm::new();
            let r = vm.run(
                &p,
                Some(&FaultPlan {
                    at_step,
                    flip: StateFlip::Reg { index: 7, bit: 0 },
                }),
            );
            assert_eq!(r.outcome, Outcome::Hung);
            assert_eq!(r.steps, STEP_BUDGET);
            assert_eq!(r.fault_applied, fires, "at_step {at_step}");
            assert_eq!(vm.regs[7], u32::from(fires));
        }
    }

    #[test]
    fn a_register_past_the_file_end_traps() {
        // one call deep the window base is 8: r247 is the last register
        let (vm, r) = run_src("call f\nhalt\nf:\nmov r247, r0\nmov r248, r0\nret\n");
        assert_eq!(
            r.outcome,
            Outcome::Trapped {
                trap: Trap::RegOutOfRange,
                pc: 3
            }
        );
        assert_eq!((vm.pc, vm.base, r.steps), (3, 8, 3));
    }

    #[test]
    fn pc_flip_usually_traps() {
        let p = assemble("t", "lit r0, 1\nhalt\n").unwrap();
        let mut vm = Vm::new();
        let r = vm.run(
            &p,
            Some(&FaultPlan {
                at_step: 0,
                flip: StateFlip::Pc { bit: 9 },
            }),
        );
        assert!(r.fault_applied);
        assert!(matches!(
            r.outcome,
            Outcome::Trapped {
                trap: Trap::PcOutOfRange,
                ..
            }
        ));
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let p = crate::seed_program("checksum").unwrap();
        let prog = p.assembled();
        let mut a = Vm::with_mem(p.initial_dmem(3));
        let mut b = Vm::with_mem(p.initial_dmem(3));
        for round in 1..=6 {
            let ra = crate::run_round(&mut a, &prog, round, None);
            let rb = crate::run_round(&mut b, &prog, round, None);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.regs, b.regs);
        assert_eq!(a.mem, b.mem);
    }
}
