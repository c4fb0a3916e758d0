//! Random kernels, core shapes and the block-driven host loop shared by
//! the property tests (the `vds-core` replay property includes this file
//! too, so each test binary uses only part of it).
#![allow(dead_code)]

use vds_obs::SpanRecord;
use vds_smtsim::core::{Core, CoreConfig, FuFault, SavedContext, ThreadId, ThreadState};
use vds_smtsim::isa::FuClass;
use vds_smtsim::kernels::{self, Kernel};
use vds_smtsim::program::Program;

/// One of the six suite kernels, sized by `size`.
pub fn kernel_for(idx: u64, size: u64, rounds: u32) -> Kernel {
    let n = 16 + (size % 64) as u32;
    match idx % 6 {
        0 => kernels::vecsum(n, rounds),
        1 => kernels::crc(n, rounds),
        2 => kernels::matmul(3 + (size % 5) as u32, rounds),
        3 => {
            // pchase rejects lengths divisible by 7 (its stride trick).
            let mut len = 64 + (size % 128) as u32;
            if len.is_multiple_of(7) {
                len += 1;
            }
            kernels::pchase(len, n, rounds)
        }
        4 => kernels::bsort(4 + (size % 12) as u32, rounds),
        _ => kernels::control(n, rounds),
    }
}

/// The default core with issue width, ALU count and memory latency
/// varied.
pub fn cfg_for(width: u64, latency: u64) -> CoreConfig {
    let mut cfg = CoreConfig::default();
    cfg.issue_width = 1 + (width % 4) as usize;
    cfg.num_alu = cfg.issue_width.max(2);
    cfg.mem_latency = 5 + (latency % 30) as u32;
    cfg
}

/// The pipeline windows `core` exports, as spans.
pub fn spans(core: &Core) -> Vec<SpanRecord> {
    let mut rec = vds_obs::Recorder::new();
    core.export_spans(&mut rec);
    rec.spans().records().cloned().collect()
}

/// Assert two cores are in the same simulated state, naming the first
/// observable that differs.
pub fn assert_same(stepped: &Core, fast: &Core, context: &str) {
    assert_eq!(stepped.cycles(), fast.cycles(), "{context}: cycles");
    for i in 0..stepped.thread_count() {
        let (a, b) = (stepped.thread(ThreadId(i)), fast.thread(ThreadId(i)));
        assert_eq!(a.counters, b.counters, "{context}: thread {i} counters");
        assert_eq!(a.state, b.state, "{context}: thread {i} state");
        assert_eq!(a.regs, b.regs, "{context}: thread {i} regs");
        assert_eq!(a.pc, b.pc, "{context}: thread {i} pc");
        assert_eq!(a.dmem, b.dmem, "{context}: thread {i} dmem");
    }
    assert_eq!(
        stepped.icache_stats(),
        fast.icache_stats(),
        "{context}: icache"
    );
    assert_eq!(
        stepped.dcache_stats(),
        fast.dcache_stats(),
        "{context}: dcache"
    );
    assert_eq!(spans(stepped), spans(fast), "{context}: spans");
    // everything else: cache lines with their LRU stamps and conflict
    // lists, predictor tables and history, units' busy-until, fill
    // buffers, stall causes and the round-robin position
    assert!(stepped == fast, "{context}: micro-architectural state");
}

/// xorshift64: the host's action stream, identical for both cores.
pub fn next(x: u64) -> u64 {
    let mut x = x | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

fn blocked(state: ThreadState) -> bool {
    matches!(
        state,
        ThreadState::Yielded | ThreadState::Halted | ThreadState::Trapped(_)
    )
}

/// The per-cycle host loop [`Core::advance_until_block`] replaces:
/// advance one call at a time and re-scan every thread after each,
/// stopping once one has newly yielded, halted or trapped.
pub fn per_cycle_until_block(core: &mut Core, limit: u64) {
    while core.cycles() < limit {
        let before: Vec<bool> = (0..core.thread_count())
            .map(|i| blocked(core.thread(ThreadId(i)).state))
            .collect();
        core.advance(limit);
        let newly = before
            .iter()
            .enumerate()
            .any(|(i, &was)| !was && blocked(core.thread(ThreadId(i)).state));
        if newly {
            return;
        }
    }
}

/// A fresh context running `prog` from its entry in `dmem_words` words.
fn fresh(prog: &Program, dmem_words: usize) -> SavedContext {
    let mut dmem = prog.data.clone();
    dmem.resize(dmem_words, 0);
    SavedContext {
        regs: [0; 16],
        pc: prog.entry,
        prog: prog.clone(),
        dmem,
        state: ThreadState::Ready,
    }
}

/// Drive `core`, whose thread `i` runs `programs[i]` in
/// `programs[i].1` words, to its next block `epochs` times (or until
/// every thread is dead), once through [`Core::advance_until_block`] and
/// once through the per-cycle scan, with up to `chunk` cycles per call
/// (some calls fewer), and assert after every call that both are in the
/// same state.
///
/// Between calls the host acts on both alike, drawing from `host`: it
/// resumes yields (some late), saves a yielded context and later swaps
/// it back in, also over a running thread (a restart at the round
/// entry), flips a bit of a running thread's text, data memory or
/// registers, or corrupts it into a trap, parks it, gives a dead
/// context a fresh process, and now and then installs a
/// functional-unit fault, after which no segment may replay.
pub fn replay_matches_scan(
    core: Core,
    programs: &[(Program, usize)],
    chunk: u64,
    host: u64,
    epochs: usize,
) {
    let mut scanned = core;
    let mut fast = scanned.clone();
    let mut rng = host;
    let mut entries: Vec<Option<SavedContext>> = vec![None; programs.len()];
    let mut replayed_at_fault = None;
    for epoch in 0..epochs {
        // now and then a call ends short, inside a segment that may
        // have been recorded whole
        rng = next(rng);
        let limit = scanned.cycles()
            + if rng.is_multiple_of(4) {
                1 + rng % chunk
            } else {
                chunk
            };
        per_cycle_until_block(&mut scanned, limit);
        fast.advance_until_block(limit);
        assert_same(&scanned, &fast, &format!("epoch {epoch} (chunk {chunk})"));
        if let Some(replayed) = replayed_at_fault {
            assert_eq!(
                fast.replayed_segments(),
                replayed,
                "epoch {epoch}: a segment replayed under a functional-unit fault"
            );
        }

        rng = next(rng);
        if replayed_at_fault.is_none() && rng.is_multiple_of(600) {
            let fault = FuFault {
                class: [FuClass::Alu, FuClass::MulDiv, FuClass::Mem, FuClass::Branch]
                    [(rng >> 8) as usize % 4],
                unit: 0,
                bit: (rng >> 16) as u8 % 32,
                value: rng & (1 << 24) != 0,
            };
            scanned.inject_fu_fault(fault);
            fast.inject_fu_fault(fault);
            replayed_at_fault = Some(fast.replayed_segments());
        }
        let mut running = false;
        for (i, (prog, dmem_words)) in programs.iter().enumerate() {
            let t = ThreadId(i);
            rng = next(rng);
            let bits = rng >> 8;
            match scanned.thread(t).state {
                ThreadState::Yielded if rng.is_multiple_of(7) => {
                    let th = scanned.thread(t);
                    entries[i] = Some(SavedContext {
                        regs: th.regs,
                        pc: th.pc,
                        prog: th.prog.clone(),
                        dmem: th.dmem.clone(),
                        state: ThreadState::Ready,
                    });
                    scanned.resume(t);
                    fast.resume(t);
                }
                // a restart at the round entry, also of a running thread
                // (its multi-cycle op keeps its unit busy)
                _ if rng % 7 == 1 && entries[i].is_some() => {
                    let ctx = entries[i].clone().expect("saved at a yield");
                    scanned.swap_context(t, ctx.clone());
                    fast.swap_context(t, ctx);
                }
                ThreadState::Yielded if !rng.is_multiple_of(3) => {
                    scanned.resume(t);
                    fast.resume(t);
                }
                ThreadState::Ready | ThreadState::StalledUntil(_) if rng.is_multiple_of(11) => {
                    for core in [&mut scanned, &mut fast] {
                        let th = core.thread_mut(t);
                        let bit = 1 << (bits % 32);
                        match (bits >> 5) % 6 {
                            0 => {
                                let pc = (bits >> 8) as usize % th.prog.text.len();
                                th.prog.text[pc] ^= bit;
                            }
                            1 => {
                                let addr = (bits >> 8) as usize % th.dmem.len();
                                th.dmem[addr] ^= bit;
                            }
                            2 => th.regs[(bits >> 8) as usize % 16] ^= bit,
                            // a trap: an illegal word, a pc off the text,
                            // or every pointer out of the address space
                            3 => {
                                let pc = th.pc as usize % th.prog.text.len();
                                th.prog.text[pc] = 63 << 26;
                            }
                            4 => th.pc = th.prog.text.len() as u32 + 5,
                            _ => th.regs[1..].fill(1 << 30),
                        }
                    }
                }
                ThreadState::Ready | ThreadState::StalledUntil(_) if rng.is_multiple_of(5) => {
                    let cycles = bits as u32 % 60;
                    scanned.park_thread(t, cycles);
                    fast.park_thread(t, cycles);
                }
                ThreadState::Halted | ThreadState::Trapped(_) if rng.is_multiple_of(2) => {
                    let ctx = fresh(prog, *dmem_words);
                    scanned.swap_context(t, ctx.clone());
                    fast.swap_context(t, ctx);
                }
                _ => {}
            }
            running |= !matches!(
                scanned.thread(t).state,
                ThreadState::Halted | ThreadState::Trapped(_)
            );
        }
        if !running {
            break;
        }
    }
}
