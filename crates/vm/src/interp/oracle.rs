//! The interpreter as it was before the straight-line step loop, kept as
//! the oracle for a differential property: a per-step fault check, and a
//! `Result<Flow, Trap>` returned through `get`/`set` register helpers on
//! every instruction. The property below holds [`Vm::run`] to it, state
//! and result, round by round.

use super::*;

impl Vm {
    fn reg_index(&self, r: u8) -> Result<usize, Trap> {
        let i = self.base as usize + usize::from(r);
        if i >= REG_FILE {
            Err(Trap::RegOutOfRange)
        } else {
            Ok(i)
        }
    }

    fn get(&self, r: u8) -> Result<u32, Trap> {
        Ok(self.regs[self.reg_index(r)?])
    }

    fn set(&mut self, r: u8, v: u32) -> Result<(), Trap> {
        let i = self.reg_index(r)?;
        self.regs[i] = v;
        Ok(())
    }

    /// [`Vm::run`] as the reference stepper.
    pub(super) fn run_reference(&mut self, prog: &Program, fault: Option<&FaultPlan>) -> RunResult {
        let mut steps: u64 = 0;
        let mut fault_applied = false;
        let done = |outcome, steps, fault_applied| RunResult {
            outcome,
            steps,
            fault_applied,
        };
        loop {
            if let Some(f) = fault {
                if !fault_applied && steps >= f.at_step {
                    self.apply_flip(f.flip);
                    fault_applied = true;
                }
            }
            if steps >= STEP_BUDGET {
                return done(Outcome::Hung, steps, fault_applied);
            }
            let pc = self.pc;
            let Some(&instr) = prog.code.get(pc as usize) else {
                return done(
                    Outcome::Trapped {
                        trap: Trap::PcOutOfRange,
                        pc,
                    },
                    steps,
                    fault_applied,
                );
            };
            steps += 1;
            match self.exec(prog, instr) {
                Ok(Flow::Next) => self.pc = pc + 1,
                Ok(Flow::Jump(t)) => self.pc = t,
                Ok(Flow::Halt) => return done(Outcome::Halted, steps, fault_applied),
                Err(trap) => {
                    return done(Outcome::Trapped { trap, pc }, steps, fault_applied);
                }
            }
        }
    }

    fn exec(&mut self, prog: &Program, instr: Instr) -> Result<Flow, Trap> {
        match instr {
            Instr::Halt => return Ok(Flow::Halt),
            Instr::LoadLit { d, idx } => {
                let v = *prog.lits.get(usize::from(idx)).ok_or(Trap::LitOutOfRange)?;
                self.set(d, v)?;
            }
            Instr::Mov { d, s } => {
                let v = self.get(s)?;
                self.set(d, v)?;
            }
            Instr::Alu { op, d, a, b } => {
                let v = op.eval(self.get(a)?, self.get(b)?);
                self.set(d, v)?;
            }
            Instr::CmpLt { d, a, b } => {
                let v = u32::from(self.get(a)? < self.get(b)?);
                self.set(d, v)?;
            }
            Instr::CmpEq { d, a, b } => {
                let v = u32::from(self.get(a)? == self.get(b)?);
                self.set(d, v)?;
            }
            Instr::Jmp { target } => return Ok(Flow::Jump(u32::from(target))),
            Instr::Jnz { s, target } => {
                if self.get(s)? != 0 {
                    return Ok(Flow::Jump(u32::from(target)));
                }
            }
            Instr::Jz { s, target } => {
                if self.get(s)? == 0 {
                    return Ok(Flow::Jump(u32::from(target)));
                }
            }
            Instr::Call { target } => {
                let new_base = self.base as usize + WINDOW_SHIFT;
                if self.frames.len() >= MAX_FRAMES || new_base + WINDOW_SHIFT > REG_FILE {
                    return Err(Trap::FrameOverflow);
                }
                self.frames.push((self.pc + 1, self.base));
                self.base = new_base as u32;
                return Ok(Flow::Jump(u32::from(target)));
            }
            Instr::Ret => {
                let (ret_pc, base) = self.frames.pop().ok_or(Trap::FrameUnderflow)?;
                self.base = base;
                return Ok(Flow::Jump(ret_pc));
            }
            Instr::Ld { d, a } => {
                let addr = self.get(a)? as usize;
                let v = *self.mem.get(addr).ok_or(Trap::MemOutOfRange)?;
                self.set(d, v)?;
            }
            Instr::St { a, s } => {
                let addr = self.get(a)? as usize;
                let v = self.get(s)?;
                if addr >= self.mem.len() {
                    return Err(Trap::MemOutOfRange);
                }
                self.mem[addr] = v;
            }
        }
        Ok(Flow::Next)
    }
}

enum Flow {
    Next,
    Jump(u32),
    Halt,
}

mod properties {
    use super::*;
    use crate::isa::AluOp;
    use crate::programs::ADDR_ROUND;
    use proptest::prelude::*;

    const ALU: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
        AluOp::Shl,
        AluOp::Shr,
    ];

    fn chance(rng: &mut TestRng, one_in: u64) -> bool {
        rng.below(one_in) == 0
    }

    /// A window-relative register name: mostly a low one, so programs
    /// compute; sometimes one on either side of the file's end for a
    /// window a few calls deep, or any up to `r255`.
    fn reg(rng: &mut TestRng) -> u8 {
        match rng.below(12) {
            0 => (REG_FILE - WINDOW_SHIFT * (1 + rng.below(3) as usize)) as u8 - rng.below(2) as u8,
            1 => rng.below(256) as u8,
            _ => rng.below(12) as u8,
        }
    }

    /// A code target: mostly inside the program, often the instruction
    /// itself (a self-`call` recurses past `MAX_FRAMES`), sometimes
    /// past the end.
    fn target(rng: &mut TestRng, pc: usize, len: usize) -> u16 {
        match rng.below(6) {
            0 => pc as u16,
            1 => (len + rng.below(4) as usize) as u16,
            _ => rng.below(len as u64) as u16,
        }
    }

    /// A word: a data-memory address (some just out of range), a small
    /// count, or anything.
    fn word(rng: &mut TestRng) -> u32 {
        match rng.below(3) {
            0 => rng.below(DMEM_WORDS as u64 + 8) as u32,
            1 => rng.below(4) as u32,
            _ => rng.next_u64() as u32,
        }
    }

    /// One of the 13 forms; loads and stores weigh double, `ret` half.
    fn instr(rng: &mut TestRng, pc: usize, len: usize, lits: usize) -> Instr {
        match rng.below(16) {
            0 => Instr::Halt,
            1 => Instr::LoadLit {
                d: reg(rng),
                idx: if chance(rng, 8) {
                    (lits + rng.below(3) as usize) as u16
                } else {
                    rng.below(lits.max(1) as u64) as u16
                },
            },
            2 => Instr::Mov {
                d: reg(rng),
                s: reg(rng),
            },
            3 => Instr::Alu {
                op: ALU[rng.below(8) as usize],
                d: reg(rng),
                a: reg(rng),
                b: reg(rng),
            },
            4 => Instr::CmpLt {
                d: reg(rng),
                a: reg(rng),
                b: reg(rng),
            },
            5 => Instr::CmpEq {
                d: reg(rng),
                a: reg(rng),
                b: reg(rng),
            },
            6 => Instr::Jmp {
                target: target(rng, pc, len),
            },
            7 => Instr::Jnz {
                s: reg(rng),
                target: target(rng, pc, len),
            },
            8 => Instr::Jz {
                s: reg(rng),
                target: target(rng, pc, len),
            },
            9 => Instr::Call {
                target: target(rng, pc, len),
            },
            10 if chance(rng, 2) => Instr::Ret,
            10..=12 => Instr::Ld {
                d: reg(rng),
                a: reg(rng),
            },
            _ => Instr::St {
                a: reg(rng),
                s: reg(rng),
            },
        }
    }

    /// A few literal loads into low registers, so addresses and
    /// conditions vary, then a random body.
    fn program(rng: &mut TestRng) -> Program {
        let lits: Vec<u32> = (0..rng.below(6)).map(|_| word(rng)).collect();
        let prologue = if lits.is_empty() {
            0
        } else {
            rng.below(5) as usize
        };
        let len = prologue + 1 + rng.below(24) as usize;
        let code = (0..len)
            .map(|pc| {
                if pc < prologue {
                    Instr::LoadLit {
                        d: rng.below(12) as u8,
                        idx: rng.below(lits.len() as u64) as u16,
                    }
                } else {
                    instr(rng, pc, len, lits.len())
                }
            })
            .collect();
        Program {
            name: "p".to_string(),
            code,
            lits,
        }
    }

    /// A flip scheduled before the first step, in range, around where
    /// a clean round of `clean_steps` ends, exactly at the budget
    /// (fires, then hangs) or beyond it (never fires).
    fn plan(rng: &mut TestRng, clean_steps: u64) -> FaultPlan {
        let at_step = match rng.below(6) {
            0 => 0,
            1 => rng.below(64),
            2 => (clean_steps + rng.below(3)).saturating_sub(1),
            3 => STEP_BUDGET,
            4 => STEP_BUDGET + 1 + rng.below(1000),
            _ => rng.next_u64(),
        };
        let flip = match rng.below(3) {
            0 => StateFlip::Reg {
                index: rng.below(1 << 16) as u16,
                bit: rng.below(256) as u8,
            },
            1 => StateFlip::Pc {
                bit: rng.below(256) as u8,
            },
            _ => StateFlip::Mem {
                addr: rng.below(256) as u8,
                bit: rng.below(256) as u8,
            },
        };
        FaultPlan { at_step, flip }
    }

    fn assert_same(fast: &Vm, slow: &Vm, round: u32) {
        assert_eq!(fast.regs, slow.regs, "regs after round {round}");
        assert_eq!(fast.pc, slow.pc, "pc after round {round}");
        assert_eq!(fast.base, slow.base, "base after round {round}");
        assert_eq!(fast.frames, slow.frames, "frames after round {round}");
        assert_eq!(fast.mem, slow.mem, "mem after round {round}");
    }

    proptest! {
        #[test]
        fn step_loop_agrees_with_the_reference_stepper(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut prog = program(&mut rng);
            let mem: Vec<u32> = (0..DMEM_WORDS).map(|_| word(&mut rng)).collect();
            let mut fast = Vm::with_mem(mem.clone());
            let mut slow = Vm::with_mem(mem);
            for round in 1..=1 + rng.below(4) as u32 {
                // mostly the canonical round entry; otherwise resume
                // from wherever the last round stopped
                if !chance(&mut rng, 4) {
                    for vm in [&mut fast, &mut slow] {
                        vm.reset_for_round();
                        vm.mem[ADDR_ROUND] = round;
                    }
                }
                // a literal-pool flip lasts one round, as in the engine
                let lit_flip = (!prog.lits.is_empty() && chance(&mut rng, 4)).then(|| {
                    let idx = rng.below(prog.lits.len() as u64) as usize;
                    (idx, 1u32 << rng.below(32))
                });
                if let Some((idx, mask)) = lit_flip {
                    prog.lits[idx] ^= mask;
                }
                let fault = if chance(&mut rng, 3) {
                    None
                } else {
                    let clean_steps = slow.clone().run_reference(&prog, None).steps;
                    Some(plan(&mut rng, clean_steps))
                };
                let got = fast.run(&prog, fault.as_ref());
                let want = slow.run_reference(&prog, fault.as_ref());
                prop_assert_eq!(got, want, "round {} of {:?} with {:?}", round, prog, fault);
                assert_same(&fast, &slow, round);
                if let Some((idx, mask)) = lit_flip {
                    prog.lits[idx] ^= mask;
                }
            }
        }
    }

    #[test]
    fn seed_programs_agree_under_every_flip_site() {
        for sp in crate::SEED_PROGRAMS {
            let prog = sp.program();
            let flips = [
                StateFlip::Reg { index: 4, bit: 3 },
                StateFlip::Pc { bit: 2 },
                StateFlip::Mem { addr: 20, bit: 7 },
            ];
            for (i, flip) in flips.into_iter().enumerate() {
                let mut fast = Vm::with_mem(sp.initial_dmem(i as u64));
                let mut slow = fast.clone();
                for round in 1..=6u32 {
                    let fault = FaultPlan {
                        at_step: u64::from(round) * 17,
                        flip,
                    };
                    for vm in [&mut fast, &mut slow] {
                        vm.reset_for_round();
                        vm.mem[ADDR_ROUND] = round;
                    }
                    let got = fast.run(prog, Some(&fault));
                    let want = slow.run_reference(prog, Some(&fault));
                    assert_eq!(got, want, "{} round {round} {flip:?}", sp.name);
                    assert_same(&fast, &slow, round);
                }
            }
        }
    }
}
