//! Differential property tests for the core's two fast paths.
//!
//! [`Core::advance`] books a stretch in which no thread is ready in one
//! go instead of one [`Core::step`] per cycle, and
//! [`Core::advance_until_block`] runs until a thread yields, halts or
//! traps instead of returning to the host every cycle, replaying a
//! segment it has recorded before. Both are only allowed to be faster,
//! never different: two clones of one core, one driven the slow way and
//! one the fast way, must agree on everything observable — cycle count,
//! per-thread counters, scheduling state, architectural state, cache
//! statistics and exported pipeline spans — and on the whole simulated
//! state besides, while the host resumes yielded threads late, parks
//! threads mid-run, and (for the block-driven loop) corrupts text, data
//! and registers, swaps contexts and installs a functional-unit fault.

mod common;

use common::{assert_same, cfg_for, kernel_for, next, replay_matches_scan, spans};
use proptest::prelude::*;
use vds_smtsim::core::{Core, FetchPolicy, ThreadId, ThreadState};

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
        let mut core = Core::new(cfg);
        core.set_window_recording(true);
        let mut programs = Vec::new();
        for (k, kind) in [kinds.0, kinds.1, kinds.2].into_iter().take(threads).enumerate() {
            let kernel = kernel_for(kind, size + 31 * k as u64, 12);
            let prog = kernel.program();
            core.add_thread(&prog, kernel.dmem_words);
            programs.push((prog, kernel.dmem_words));
        }
        replay_matches_scan(core, &programs, chunk, host, 300);
    }
}
