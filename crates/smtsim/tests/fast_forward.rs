//! Differential property test for the idle fast-forward.
//!
//! [`Core::advance`] books a stretch in which no thread is ready in one
//! go instead of one [`Core::step`] per cycle. It is only allowed to be
//! faster, never different: two clones of one core, one stepped and one
//! advanced to the same cycles, must agree on everything observable —
//! cycle count, per-thread counters, scheduling state, architectural
//! state, cache statistics and exported pipeline spans — while the host
//! resumes yielded threads late and parks threads mid-run.

mod common;

use common::{cfg_for, kernel_for};
use proptest::prelude::*;
use vds_obs::SpanRecord;
use vds_smtsim::core::{Core, FetchPolicy, ThreadId, ThreadState};

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
        let mut rng = host;
        for epoch in 0..200 {
            let target = stepped.cycles() + chunk;
            while stepped.cycles() < target {
                stepped.step();
            }
            while fast.cycles() < target {
                fast.advance(target);
            }
            assert_same(&stepped, &fast, &format!("epoch {epoch} (chunk {chunk})"));

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
