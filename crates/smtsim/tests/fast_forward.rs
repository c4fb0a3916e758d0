//! Differential property tests for the core's two fast paths.
//!
//! [`Core::advance`] books a stretch in which no thread is ready in one
//! go instead of one [`Core::step`] per cycle, and
//! [`Core::advance_until_block`] runs until a thread yields, halts or
//! traps instead of returning to the host every cycle. Both are only
//! allowed to be faster, never different: two clones of one core, one
//! driven the slow way and one the fast way, must agree on everything
//! observable — cycle count, per-thread counters, scheduling state,
//! architectural state, cache statistics and exported pipeline spans —
//! while the host resumes yielded threads late, parks threads mid-run,
//! and (for the block-driven loop) corrupts text and swaps contexts.

mod common;

use common::{cfg_for, kernel_for};
use proptest::prelude::*;
use vds_obs::SpanRecord;
use vds_smtsim::core::{Core, FetchPolicy, SavedContext, ThreadId, ThreadState};

fn spans(core: &Core) -> Vec<SpanRecord> {
    let mut rec = vds_obs::Recorder::new();
    core.export_spans(&mut rec);
    rec.spans().records().cloned().collect()
}

fn assert_same(stepped: &Core, fast: &Core, context: &str) {
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
}

/// A thread's pipeline windows as `(begin, end, issued, retired)`.
type Windows = Vec<(u64, u64, u64, u64)>;

/// Pipeline windows as a per-cycle observer sees them, the definition
/// the core's recorder must meet while it only looks at threads after a
/// state change: before each cycle, a thread that can issue opens a
/// window if it has none, and a yielded, halted or trapped one closes
/// its window at that cycle.
#[derive(Default)]
struct WindowOracle {
    /// Per thread: the open window's `(begin, issued, retired)`.
    open: Vec<Option<(u64, u64, u64)>>,
    closed: Vec<Windows>,
}

impl WindowOracle {
    /// Observe `core` just before it steps.
    fn before_step(&mut self, core: &Core) {
        let n = core.thread_count();
        self.open.resize(n, None);
        self.closed.resize(n, Vec::new());
        let cycle = core.cycles() + 1;
        for i in 0..n {
            let t = core.thread(ThreadId(i));
            let (issued, retired) = (t.counters.issued_cycles, t.counters.retired);
            match t.state {
                ThreadState::Ready | ThreadState::StalledUntil(_) => {
                    self.open[i].get_or_insert((cycle, issued, retired));
                }
                _ => {
                    if let Some((begin, i0, r0)) = self.open[i].take() {
                        self.closed[i].push((begin, cycle, issued - i0, retired - r0));
                    }
                }
            }
        }
    }

    /// Per thread, the closed windows and the open one clamped to now.
    fn windows(&self, core: &Core) -> Vec<Windows> {
        let mut out = self.closed.clone();
        for (i, open) in self.open.iter().enumerate() {
            if let Some((begin, i0, r0)) = *open {
                let c = &core.thread(ThreadId(i)).counters;
                out[i].push((begin, core.cycles(), c.issued_cycles - i0, c.retired - r0));
            }
        }
        out
    }
}

/// The pipeline windows `core` exports as spans, per thread.
fn exported_windows(core: &Core) -> Vec<Windows> {
    let mut out = vec![Vec::new(); core.thread_count()];
    for r in spans(core) {
        let field = |k: &str| match r.fields.iter().find(|(name, _)| *name == k) {
            Some((_, vds_obs::Value::U64(v))) => *v,
            other => panic!("window field {k}: {other:?}"),
        };
        out[r.tid as usize].push((
            r.begin as u64,
            r.end as u64,
            field("issued"),
            field("retired"),
        ));
    }
    out
}

/// xorshift64: the host's action stream, identical for both cores.
fn next(x: u64) -> u64 {
    let mut x = x | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

proptest! {
    #[test]
    fn advance_books_every_cycle_exactly_as_step(
        kinds in (0u64..6, 0u64..6, 0u64..6),
        threads in 1usize..4,
        size in 0u64..1000,
        width in 0u64..4,
        latency in 0u64..30,
        icount in any::<bool>(),
        chunk in 1u64..100,
        host in any::<u64>(),
    ) {
        let mut cfg = cfg_for(width, latency);
        cfg.max_threads = threads;
        if icount {
            cfg.fetch_policy = FetchPolicy::ICount;
        }
        let mut stepped = Core::new(cfg);
        stepped.set_window_recording(true);
        for (k, kind) in [kinds.0, kinds.1, kinds.2].into_iter().take(threads).enumerate() {
            let kernel = kernel_for(kind, size + 31 * k as u64, 3);
            stepped.add_thread(&kernel.program(), kernel.dmem_words);
        }
        let mut fast = stepped.clone();
        let mut oracle = WindowOracle::default();
        let mut rng = host;
        for epoch in 0..200 {
            let target = stepped.cycles() + chunk;
            while stepped.cycles() < target {
                oracle.before_step(&stepped);
                stepped.step();
            }
            while fast.cycles() < target {
                fast.advance(target);
            }
            assert_same(&stepped, &fast, &format!("epoch {epoch} (chunk {chunk})"));
            assert_eq!(
                exported_windows(&stepped),
                oracle.windows(&stepped),
                "epoch {epoch}: windows"
            );

            let mut running = false;
            for i in 0..threads {
                let t = ThreadId(i);
                rng = next(rng);
                match stepped.thread(t).state {
                    // resume most yields at once, leave some for an epoch
                    // so that whole stretches have no live thread at all
                    ThreadState::Yielded if rng % 3 != 0 => {
                        stepped.resume(t);
                        fast.resume(t);
                    }
                    ThreadState::Ready | ThreadState::StalledUntil(_) if rng % 5 == 0 => {
                        let cycles = (rng >> 8) as u32 % 60;
                        stepped.park_thread(t, cycles);
                        fast.park_thread(t, cycles);
                    }
                    _ => {}
                }
                running |= matches!(
                    stepped.thread(t).state,
                    ThreadState::Ready | ThreadState::StalledUntil(_) | ThreadState::Yielded
                );
            }
            if !running {
                break;
            }
        }
    }
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
fn per_cycle_until_block(core: &mut Core, limit: u64) {
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

proptest! {
    #[test]
    fn advance_until_block_stops_exactly_where_a_per_cycle_scan_does(
        kinds in (0u64..6, 0u64..6, 0u64..6),
        threads in 1usize..4,
        size in 0u64..1000,
        width in 0u64..4,
        latency in 0u64..30,
        icount in any::<bool>(),
        chunk in 1u64..3000,
        host in any::<u64>(),
    ) {
        let mut cfg = cfg_for(width, latency);
        cfg.max_threads = threads;
        if icount {
            cfg.fetch_policy = FetchPolicy::ICount;
        }
        let mut scanned = Core::new(cfg);
        scanned.set_window_recording(true);
        let mut programs = Vec::new();
        for (k, kind) in [kinds.0, kinds.1, kinds.2].into_iter().take(threads).enumerate() {
            let kernel = kernel_for(kind, size + 31 * k as u64, 4);
            scanned.add_thread(&kernel.program(), kernel.dmem_words);
            programs.push(kernel);
        }
        let mut fast = scanned.clone();
        let mut rng = host;
        for epoch in 0..300 {
            let limit = scanned.cycles() + chunk;
            per_cycle_until_block(&mut scanned, limit);
            fast.advance_until_block(limit);
            assert_same(&scanned, &fast, &format!("epoch {epoch} (chunk {chunk})"));

            let mut running = false;
            for (i, kernel) in programs.iter().enumerate() {
                let t = ThreadId(i);
                rng = next(rng);
                match scanned.thread(t).state {
                    ThreadState::Yielded if rng % 3 != 0 => {
                        scanned.resume(t);
                        fast.resume(t);
                    }
                    // a fault: the next fetch decodes an illegal word or
                    // leaves the text section, or the next load or store
                    // leaves the address space
                    ThreadState::Ready | ThreadState::StalledUntil(_) if rng % 11 == 0 => {
                        for core in [&mut scanned, &mut fast] {
                            let th = core.thread_mut(t);
                            match (rng >> 8) % 3 {
                                0 => {
                                    let pc = th.pc as usize % th.prog.text.len();
                                    th.prog.text[pc] = 63 << 26;
                                }
                                1 => th.pc = th.prog.text.len() as u32 + 5,
                                _ => th.regs[1..].fill(1 << 30),
                            }
                        }
                    }
                    ThreadState::Ready | ThreadState::StalledUntil(_) if rng % 5 == 0 => {
                        let cycles = (rng >> 8) as u32 % 60;
                        scanned.park_thread(t, cycles);
                        fast.park_thread(t, cycles);
                    }
                    // a dead context gets a fresh process, as the OS
                    // layer dispatches one
                    ThreadState::Halted | ThreadState::Trapped(_) if rng % 2 == 0 => {
                        let prog = kernel.program();
                        for core in [&mut scanned, &mut fast] {
                            let mut dmem = prog.data.clone();
                            dmem.resize(kernel.dmem_words, 0);
                            core.swap_context(t, SavedContext {
                                regs: [0; 16],
                                pc: prog.entry,
                                prog: prog.clone(),
                                dmem,
                                state: ThreadState::Ready,
                            });
                        }
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
}
