//! The SMT core: thread contexts, shared functional units, shared caches,
//! cycle-by-cycle execution.
//!
//! ## Pipeline model
//!
//! In-order, architecturally-atomic execution: each cycle, threads are
//! considered in a deterministic priority order (round-robin rotation or
//! ICOUNT); a thread issues at most one instruction per cycle, subject to
//!
//! * total issue width,
//! * a free functional unit of the required class (multi-cycle ops reserve
//!   their unit),
//! * instruction-cache hit (miss parks the thread for the memory latency),
//! * not being parked by a previous data-cache miss, multi-cycle op or
//!   branch-mispredict flush.
//!
//! This is far simpler than a real out-of-order SMT pipeline, but it
//! produces the behaviour the paper's model needs: a single thread leaves
//! issue slots and stall cycles unused; a second thread fills them;
//! co-run time is `2αt` with α somewhere in `(½, 1)` depending on how the
//! workloads collide on units and caches.
//!
//! ## Faults
//!
//! The core carries optional **permanent functional-unit faults**
//! ([`FuFault`]): results computed on a specific unit get a bit forced.
//! Because diverse program versions schedule work onto units differently,
//! a single faulty unit corrupts them differently — the property the VDS
//! diversity argument relies on. Transient faults are injected from
//! outside by mutating [`Thread::regs`], [`Thread::dmem`] or program text
//! (see `vds-fault`).
//!
//! ## Replayed repeats
//!
//! [`Core::step`] is the one definition of a cycle, and a VDS round on it
//! repeats: once the caches are warm, a diversified pair runs the same
//! instructions to the same cycles every round, only on other data.
//! [`Core::advance_until_block`] therefore remembers each segment it
//! simulates (from its call to the first yield, halt or trap) that
//! missed in neither cache, under round-robin priority with no
//! functional-unit fault installed. It keeps the stream of fetches that
//! reached the text, in cycle-loop order, each with its thread and pc
//! and whether it found its unit busy, trapped on its address or (a
//! branch) was predicted correctly; the text each thread fetched from;
//! and the segment's totals: cycles, counter and state-change deltas,
//! i-cache hits, each thread's exit state, and the units it issued to.
//!
//! The key is the scheduling state the cycle loop reads besides text,
//! data and caches: the thread count, the round-robin position, each
//! unit's busy-until relative to now, and per thread its pc, state
//! (`StalledUntil` relative to now), stall cause and fill buffer. A
//! later call from an equal key, with the fetched text unchanged, every
//! i-cache line the segment fetched still present and the segment
//! ending before `limit`, is replayed: the stream runs through
//! `Thread::apply`, the one definition of an instruction's
//! architectural effect that the cycle loop executes too, with the real
//! d-cache accesses and predictor updates in recorded order. Each event
//! must match its pc, in-range address (a trap at the recorded
//! address), d-cache hit and prediction outcome. The d-cache outcome is
//! checked, not the address, because the micro workload's table load
//! reads another word every round. Those are all the cycle loop's
//! choices depend on, so the replayed run takes the recorded cycles,
//! and the core books them: the totals, the exit states, the units'
//! busy-until, and the pipeline windows the segment's first cycle
//! syncs. The i-cache is restamped rather than accessed: with no miss
//! nothing is evicted, and an access only moves the clock and its
//! line's stamp to the clock, so each line ends stamped at the entry
//! clock plus the offset of its last access in the segment, and LRU
//! order is exactly what the cycle loop leaves.
//!
//! On the first mismatch the replay restores what it changed (registers,
//! pcs, data memory, d-cache, predictors) and the cycle loop runs, and
//! records the segment anew. Recorded segments take at most 40 KiB per
//! core, oldest dropped first, and segments longer than the 4 KiB tape
//! are not kept. There is no switch: the result is the cycle loop's or
//! none.

use crate::branch::{Predictor, PredictorKind};
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::encode::decode;
use crate::isa::{FuClass, Instr, Reg};
use crate::perf::{StallCause, ThreadCounters};
use crate::program::Program;

mod replay;

/// Identifies a hardware thread context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

/// Why a thread stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Load/store outside the thread's address space. The paper's system
    /// model: "an access to the data of another version … leads to an
    /// access violation which is signaled as a fault but leaves the other
    /// version's data unchanged."
    AccessViolation {
        /// Offending word address.
        addr: u32,
    },
    /// Fetched word does not decode (corrupted program memory).
    IllegalInstruction {
        /// Instruction index.
        pc: u32,
    },
    /// Control flow left the text section.
    PcOutOfRange {
        /// Offending instruction index.
        pc: u32,
    },
}

/// Scheduling state of a hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Can issue.
    Ready,
    /// Parked until the given cycle (cache miss, multi-cycle op, flush).
    StalledUntil(u64),
    /// Executed `yield` — end of a VDS round; host must resume it.
    Yielded,
    /// Executed `halt`.
    Halted,
    /// Took a trap; host decides what to do.
    Trapped(Trap),
}

/// Fetch/issue priority policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchPolicy {
    /// Rotate thread priority every cycle.
    #[default]
    RoundRobin,
    /// Prefer the thread with the fewest retired instructions (a crude,
    /// deterministic stand-in for ICOUNT).
    ICount,
}

/// A permanent hardware fault pinned to one functional unit: bit
/// `bit` of every result computed on that unit is forced to `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuFault {
    /// Functional-unit class.
    pub class: FuClass,
    /// Unit index within the class.
    pub unit: usize,
    /// Which result bit is stuck.
    pub bit: u8,
    /// Stuck-at value.
    pub value: bool,
}

impl FuFault {
    /// Apply the fault to a result value.
    #[inline]
    pub fn corrupt(&self, result: u32) -> u32 {
        if self.value {
            result | (1 << self.bit)
        } else {
            result & !(1 << self.bit)
        }
    }
}

/// Core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Hardware thread contexts (the paper's machine: 2).
    pub max_threads: usize,
    /// Instructions issued per cycle across all threads.
    pub issue_width: usize,
    /// Single-cycle ALUs.
    pub num_alu: usize,
    /// Multi-cycle multiply/divide units.
    pub num_mul: usize,
    /// Load/store units.
    pub num_mem: usize,
    /// Branch units.
    pub num_branch: usize,
    /// Shared instruction cache.
    pub icache: CacheConfig,
    /// Shared data cache.
    pub dcache: CacheConfig,
    /// Main-memory latency in cycles (applied to I/D misses).
    pub mem_latency: u32,
    /// Extra cycles a load stalls its thread even on a D-cache hit
    /// (load-use delay).
    pub load_use_delay: u32,
    /// Cycles a store miss stalls its thread (write-allocate fill;
    /// cheaper than a load miss thanks to the store buffer).
    pub store_miss_latency: u32,
    /// Branch mispredict flush penalty in cycles.
    pub mispredict_penalty: u32,
    /// Branch predictor per thread.
    pub predictor: PredictorKind,
    /// Thread priority policy.
    pub fetch_policy: FetchPolicy,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            max_threads: 2,
            issue_width: 2,
            num_alu: 2,
            num_mul: 1,
            num_mem: 1,
            num_branch: 1,
            icache: CacheConfig {
                sets: 128,
                ways: 2,
                line_words: 8,
            },
            dcache: CacheConfig::small(),
            mem_latency: 20,
            load_use_delay: 1,
            store_miss_latency: 4,
            mispredict_penalty: 3,
            predictor: PredictorKind::default(),
            fetch_policy: FetchPolicy::RoundRobin,
        }
    }
}

impl CoreConfig {
    /// A configuration approximating a *conventional* (1-context)
    /// processor of the same microarchitecture.
    pub fn single_threaded() -> Self {
        CoreConfig {
            max_threads: 1,
            ..CoreConfig::default()
        }
    }

    /// A wider SMT core with `n` contexts (for the §5 boosted variants).
    pub fn with_threads(n: usize) -> Self {
        CoreConfig {
            max_threads: n,
            ..CoreConfig::default()
        }
    }
}

/// A hardware thread context and its private architectural state.
#[derive(Debug, Clone)]
pub struct Thread {
    /// General registers; `regs[0]` is kept at zero after every step.
    pub regs: [u32; Reg::COUNT],
    /// Next instruction index.
    pub pc: u32,
    /// The program this context executes.
    pub prog: Program,
    /// Private data memory (word-addressed address space).
    pub dmem: Vec<u32>,
    /// Scheduling state.
    pub state: ThreadState,
    /// Performance counters.
    pub counters: ThreadCounters,
    predictor: Predictor,
    stall_cause: StallCause,
    /// Fill-buffer: a completed I-cache miss for this pc is delivered to
    /// the pipeline even if the line has been evicted again meanwhile.
    /// Without this, N > ways fetch streams aliasing one set livelock by
    /// mutually evicting each other's lines — real front-ends keep the
    /// in-flight line in a fill buffer for exactly this reason.
    fetch_fill: Option<u32>,
    /// Pre-decoded text: entry `pc` is `(word, decode(word).ok())` for
    /// the word last fetched (or installed) at `pc`. A fetch trusts the
    /// entry only while its tag equals the live `prog.text[pc]`, so any
    /// write to the text — fault injection, a context swap, a host
    /// fix-up — is seen on the next fetch without invalidation.
    decoded: Vec<(u32, Option<Instr>)>,
}

impl Thread {
    fn new(prog: &Program, dmem_words: usize, predictor: PredictorKind) -> Self {
        assert!(
            prog.data.len() <= dmem_words,
            "data image ({} words) exceeds address space ({} words)",
            prog.data.len(),
            dmem_words
        );
        let mut dmem = prog.data.clone();
        dmem.resize(dmem_words, 0);
        Thread {
            regs: [0; Reg::COUNT],
            pc: prog.entry,
            prog: prog.clone(),
            dmem,
            state: ThreadState::Ready,
            counters: ThreadCounters::default(),
            predictor: Predictor::new(predictor),
            stall_cause: StallCause::Parked,
            fetch_fill: None,
            decoded: prog.text.iter().map(|&w| (w, decode(w).ok())).collect(),
        }
    }

    /// Park the thread until cycle `until`; the stall cycles themselves
    /// are booked to `cause` while it sits in `StalledUntil`.
    #[inline]
    fn stall_until(&mut self, until: u64, cause: StallCause) {
        self.state = ThreadState::StalledUntil(until);
        self.stall_cause = cause;
    }

    /// The instruction encoded by `word`, the live text word at `pc`
    /// (`None` if it does not decode). Served from the pre-decoded copy
    /// when the entry's tag matches `word`; otherwise decoded afresh and
    /// the entry refreshed.
    #[inline]
    fn fetch_decoded(&mut self, pc: usize, word: u32) -> Option<Instr> {
        match self.decoded.get(pc) {
            Some(&(tag, instr)) if tag == word => instr,
            _ => {
                let instr = decode(word).ok();
                if self.decoded.len() <= pc {
                    // every entry is (w, decode(w)), padding included
                    self.decoded
                        .resize(self.prog.text.len(), (0, decode(0).ok()));
                }
                self.decoded[pc] = (word, instr);
                instr
            }
        }
    }

    /// The architectural effect of `instr`, the instruction at `pc`, on
    /// the registers, data memory and pc, every result passed through
    /// `corrupt` (the functional-unit faults): the one definition both
    /// the cycle loop and the replay of a recorded segment execute.
    /// Returns what is left for the pipeline to do.
    #[inline]
    fn apply(&mut self, instr: &Instr, corrupt: impl Fn(u32) -> u32) -> Effect {
        let pc = self.pc;
        let regs = &mut self.regs;
        let mut next_pc = pc + 1;
        let effect = match *instr {
            Instr::Nop => Effect::Done,
            Instr::Alu { op, rd, rs1, rs2 } => {
                regs[rd.idx()] = corrupt(op.apply(regs[rs1.idx()], regs[rs2.idx()]));
                Effect::Done
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                regs[rd.idx()] = corrupt(op.apply(regs[rs1.idx()], imm));
                Effect::Done
            }
            Instr::Lui { rd, imm } => {
                regs[rd.idx()] = corrupt(u32::from(imm) << 16);
                Effect::Done
            }
            Instr::Mul { op, rd, rs1, rs2 } => {
                regs[rd.idx()] = corrupt(op.apply(regs[rs1.idx()], regs[rs2.idx()]));
                Effect::Wait
            }
            Instr::Ld { rd, rs1, imm } => {
                let addr = regs[rs1.idx()].wrapping_add(imm as u32);
                match self.dmem.get(addr as usize) {
                    Some(&v) => {
                        regs[rd.idx()] = corrupt(v);
                        Effect::Load { addr }
                    }
                    None => Effect::Violation { store: false, addr },
                }
            }
            Instr::St { rs2, rs1, imm } => {
                let addr = regs[rs1.idx()].wrapping_add(imm as u32);
                match self.dmem.get_mut(addr as usize) {
                    Some(slot) => {
                        let old = std::mem::replace(slot, corrupt(regs[rs2.idx()]));
                        Effect::Store { addr, old }
                    }
                    None => Effect::Violation { store: true, addr },
                }
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.holds(regs[rs1.idx()], regs[rs2.idx()]);
                if taken {
                    next_pc = target;
                }
                Effect::Branch { pc, taken }
            }
            Instr::Jal { rd, target } => {
                regs[rd.idx()] = corrupt(pc + 1);
                next_pc = target;
                Effect::Done
            }
            Instr::Jalr { rd, rs1, imm } => {
                let dest = regs[rs1.idx()].wrapping_add(imm as u32);
                regs[rd.idx()] = corrupt(pc + 1);
                next_pc = dest;
                Effect::Done
            }
            Instr::Yield => Effect::Yield,
            // pc frozen at the halt
            Instr::Halt => Effect::Halt,
        };
        // a trapping access leaves the pc on the faulting instruction
        if !matches!(effect, Effect::Halt | Effect::Violation { .. }) {
            self.pc = next_pc;
        }
        regs[0] = 0;
        effect
    }

    /// `true` if the thread may still make progress on its own.
    pub fn is_live(&self) -> bool {
        matches!(
            self.state,
            ThreadState::Ready | ThreadState::StalledUntil(_)
        )
    }

    /// 128-bit digest of the thread's architectural state (registers, pc,
    /// data memory) — the same quantity a VDS comparison round hashes, in
    /// canonical order. Micro-architectural state (caches, predictor,
    /// counters) is deliberately excluded: two contexts that agree
    /// architecturally must digest equal even if they took different
    /// timing paths. Used by the checkpoint layer and the flight-recorder
    /// journal.
    pub fn state_digest(&self) -> vds_obs::Digest128 {
        let mut d = vds_obs::Digester128::new();
        d.push_words(&self.regs);
        d.push_word(self.pc);
        d.push_words(&self.dmem);
        d.finish()
    }
}

/// Equal simulated state: everything but the pre-decoded text, a
/// host-side cache.
impl PartialEq for Thread {
    fn eq(&self, other: &Self) -> bool {
        let Thread {
            regs,
            pc,
            prog,
            dmem,
            state,
            counters,
            predictor,
            stall_cause,
            fetch_fill,
            decoded: _,
        } = self;
        (
            regs,
            pc,
            prog,
            dmem,
            state,
            counters,
            predictor,
            stall_cause,
            fetch_fill,
        ) == (
            &other.regs,
            &other.pc,
            &other.prog,
            &other.dmem,
            &other.state,
            &other.counters,
            &other.predictor,
            &other.stall_cause,
            &other.fetch_fill,
        )
    }
}

/// Saved architectural state for OS-level context switching
/// (`vds-sched`). Caches and predictors deliberately stay behind —
/// the pollution a context switch causes is part of the model.
#[derive(Debug, Clone)]
pub struct SavedContext {
    /// Register file.
    pub regs: [u32; Reg::COUNT],
    /// Program counter.
    pub pc: u32,
    /// Program image.
    pub prog: Program,
    /// Data memory.
    pub dmem: Vec<u32>,
    /// Scheduling state at save time.
    pub state: ThreadState,
}

/// Outcome of [`Core::run_until_all_blocked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every thread halted.
    AllHalted,
    /// No thread can issue; at least one yielded (others halted/yielded).
    AllYielded,
    /// A thread trapped (execution of the others stops too so the host
    /// can react; the paper's fault model allows a fault to stop the
    /// whole processor).
    Trapped(ThreadId, Trap),
    /// The cycle budget ran out first.
    CycleBudgetExhausted,
}

/// A closed pipeline window of one hardware thread: the cycle range from
/// the thread becoming runnable to it parking (yield / halt / trap /
/// context switch), with the instructions it issued and retired inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineWindow {
    /// Hardware thread index.
    pub thread: usize,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Last cycle of the window.
    pub end_cycle: u64,
    /// Cycles in which the thread issued an instruction.
    pub issued: u64,
    /// Instructions retired during the window.
    pub retired: u64,
}

/// A cycle's thread priority order (see [`Core::priority`]).
#[derive(Debug, Clone, Copy)]
enum Priority {
    /// Round robin: `0..n` rotated left by this many places.
    Rotated(usize),
    /// ICOUNT: as ranked into `Core::order`.
    Ranked,
}

/// What is left of an instruction for the pipeline once
/// [`Thread::apply`] has done its architectural effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    /// Nothing.
    Done,
    /// A multi-cycle result the thread waits for.
    Wait,
    /// A load of in-range word `addr`.
    Load { addr: u32 },
    /// A store to in-range word `addr`, which held `old`.
    Store { addr: u32, old: u32 },
    /// A load or store outside the address space: nothing was written.
    Violation { store: bool, addr: u32 },
    /// A conditional branch at `pc`.
    Branch { pc: u32, taken: bool },
    /// `yield`.
    Yield,
    /// `halt`.
    Halt,
}

/// Index of a unit-bearing functional-unit class into
/// `Core::unit_free_at`; `None` for [`FuClass::None`].
fn fu_slot(class: FuClass) -> Option<usize> {
    match class {
        FuClass::Alu => Some(0),
        FuClass::MulDiv => Some(1),
        FuClass::Mem => Some(2),
        FuClass::Branch => Some(3),
        FuClass::None => None,
    }
}

/// Cap on recorded pipeline windows (drops are counted, not silent).
const MAX_WINDOWS: usize = 16_384;

/// The simultaneous multithreaded core.
#[derive(Debug, Clone)]
pub struct Core {
    cfg: CoreConfig,
    threads: Vec<Thread>,
    icache: Cache,
    dcache: Cache,
    cycle: u64,
    /// Per unit-bearing class ([`fu_slot`]), the cycle from which each
    /// unit is free: an op issued at cycle `c` with latency `l` holds its
    /// unit for cycles `c .. c + l`.
    unit_free_at: [Vec<u64>; 4],
    faults: Vec<FuFault>,
    rr_offset: usize,
    record_windows: bool,
    windows: Vec<PipelineWindow>,
    /// Per-thread open window: (start_cycle, issued-at-start,
    /// retired-at-start) counter snapshots.
    open_windows: Vec<Option<(u64, u64, u64)>>,
    windows_dropped: u64,
    /// ICOUNT priority order of the current cycle, reused across
    /// [`Core::step`] calls so the hot per-cycle loop allocates nothing.
    order: Vec<usize>,
    /// Counts the scheduling-state changes a host loop or the window
    /// recorder must see: a thread yielding, halting or trapping, and
    /// every host call that can change a thread's state. Between two
    /// changes threads only move between ready and stalled.
    /// [`Core::advance_until_block`] stops when it moves.
    state_changes: u64,
    /// `state_changes` when the open windows were last brought in line
    /// with the thread states ([`Core::sync_windows`]).
    windows_synced: u64,
    /// Segments recorded for [`Core::advance_until_block`] to replay.
    memo: replay::Memo,
}

/// Equal simulated state, micro-architecture and recorded pipeline
/// windows included: everything but host-side caches (the replay memo,
/// the ICOUNT scratch order and the pre-decoded text).
impl PartialEq for Core {
    fn eq(&self, other: &Self) -> bool {
        let Core {
            cfg,
            threads,
            icache,
            dcache,
            cycle,
            unit_free_at,
            faults,
            rr_offset,
            record_windows,
            windows,
            open_windows,
            windows_dropped,
            order: _,
            state_changes,
            windows_synced,
            memo: _,
        } = self;
        (cfg, threads, icache, dcache, cycle, unit_free_at, faults)
            == (
                &other.cfg,
                &other.threads,
                &other.icache,
                &other.dcache,
                &other.cycle,
                &other.unit_free_at,
                &other.faults,
            )
            && (
                rr_offset,
                record_windows,
                windows,
                open_windows,
                windows_dropped,
                state_changes,
                windows_synced,
            ) == (
                &other.rr_offset,
                &other.record_windows,
                &other.windows,
                &other.open_windows,
                &other.windows_dropped,
                &other.state_changes,
                &other.windows_synced,
            )
    }
}

impl Core {
    /// Build a core with no threads.
    pub fn new(cfg: CoreConfig) -> Self {
        assert!(cfg.max_threads >= 1);
        assert!(cfg.issue_width >= 1);
        assert!(cfg.num_alu >= 1 && cfg.num_mul >= 1 && cfg.num_mem >= 1 && cfg.num_branch >= 1);
        let icache = Cache::new(cfg.icache);
        let dcache = Cache::new(cfg.dcache);
        let unit_free_at =
            [cfg.num_alu, cfg.num_mul, cfg.num_mem, cfg.num_branch].map(|n| vec![0; n]);
        Core {
            cfg,
            threads: Vec::new(),
            icache,
            dcache,
            cycle: 0,
            unit_free_at,
            faults: Vec::new(),
            rr_offset: 0,
            record_windows: false,
            windows: Vec::new(),
            open_windows: Vec::new(),
            windows_dropped: 0,
            order: Vec::new(),
            state_changes: 0,
            windows_synced: 0,
            memo: replay::Memo::default(),
        }
    }

    /// Enable or disable pipeline-window span recording (off by default;
    /// the windows feed [`Core::export_spans`]).
    pub fn set_window_recording(&mut self, on: bool) {
        self.record_windows = on;
        self.state_changes += 1;
    }

    /// Open a window for every thread that can issue and has none, and
    /// close the window of every thread that yielded, halted or trapped,
    /// in priority order `p`: what every cycle would do, done only in
    /// the cycles after a state change, since it is a no-op in the rest.
    fn sync_windows(&mut self, p: Priority) {
        for k in 0..self.threads.len() {
            let tid = self.nth_in_priority(p, k);
            match self.threads[tid].state {
                ThreadState::Yielded | ThreadState::Halted | ThreadState::Trapped(_) => {
                    self.close_window(tid);
                }
                ThreadState::Ready | ThreadState::StalledUntil(_) => self.open_window(tid),
            }
        }
        self.windows_synced = self.state_changes;
    }

    fn open_window(&mut self, tid: usize) {
        if self.open_windows[tid].is_none() {
            let c = &self.threads[tid].counters;
            self.open_windows[tid] = Some((self.cycle, c.issued_cycles, c.retired));
        }
    }

    fn close_window(&mut self, tid: usize) {
        let Some((start, issued0, retired0)) = self.open_windows[tid].take() else {
            return;
        };
        if self.windows.len() >= MAX_WINDOWS {
            self.windows_dropped += 1;
            return;
        }
        let c = &self.threads[tid].counters;
        self.windows.push(PipelineWindow {
            thread: tid,
            start_cycle: start,
            end_cycle: self.cycle,
            issued: c.issued_cycles - issued0,
            retired: c.retired - retired0,
        });
    }

    /// Configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Install a thread running `prog` with a `dmem_words`-word private
    /// address space. Returns its id.
    ///
    /// # Panics
    /// Panics if all hardware contexts are occupied.
    pub fn add_thread(&mut self, prog: &Program, dmem_words: usize) -> ThreadId {
        assert!(
            self.threads.len() < self.cfg.max_threads,
            "no free hardware context (max {})",
            self.cfg.max_threads
        );
        self.threads
            .push(Thread::new(prog, dmem_words, self.cfg.predictor));
        self.open_windows.push(None);
        self.state_changes += 1;
        ThreadId(self.threads.len() - 1)
    }

    /// Immutable access to a thread.
    pub fn thread(&self, id: ThreadId) -> &Thread {
        &self.threads[id.0]
    }

    /// Mutable access to a thread (fault injection, host fix-ups).
    pub fn thread_mut(&mut self, id: ThreadId) -> &mut Thread {
        self.state_changes += 1;
        &mut self.threads[id.0]
    }

    /// Number of installed threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Install a permanent functional-unit fault.
    pub fn inject_fu_fault(&mut self, fault: FuFault) {
        self.faults.push(fault);
    }

    /// Shared I-cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// Shared D-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Flush core state into a metrics registry: total cycles, per-thread
    /// counters under `smt.thread<i>.*`, and shared cache hit/miss/conflict
    /// counts under `smt.icache.*` / `smt.dcache.*`.
    pub fn export_metrics<R: vds_obs::Record>(&self, rec: &mut R) {
        rec.count("smt.cycles", self.cycle);
        for (i, t) in self.threads.iter().enumerate() {
            t.counters.export_metrics(rec, &format!("smt.thread{i}"));
        }
        for (cache, stats) in [
            ("smt.icache", self.icache.stats()),
            ("smt.dcache", self.dcache.stats()),
        ] {
            let mut key = vds_obs::KeyPrefix::new(cache);
            rec.count(key.with("hits"), stats.hits);
            rec.count(key.with("misses"), stats.misses);
            rec.count(key.with("thread_conflicts"), stats.thread_conflicts);
            rec.gauge(key.with("hit_rate"), stats.hit_rate());
        }
    }

    /// Export recorded pipeline windows as spans (component `"smt"`, one
    /// lane per hardware thread). Still-open windows are clamped to the
    /// current cycle without being consumed.
    pub fn export_spans<R: vds_obs::Record>(&self, rec: &mut R) {
        let keep_fields = rec.keeps_span_fields();
        let window_fields = |issued: u64, retired: u64| {
            if !keep_fields {
                return Vec::new();
            }
            vec![
                ("issued", vds_obs::Value::from(issued)),
                ("retired", vds_obs::Value::from(retired)),
            ]
        };
        for w in &self.windows {
            rec.record_span(vds_obs::SpanRecord {
                begin: w.start_cycle as f64,
                end: w.end_cycle as f64,
                component: "smt",
                name: "pipeline",
                tid: w.thread as u32,
                fields: window_fields(w.issued, w.retired),
            });
        }
        for (tid, open) in self.open_windows.iter().enumerate() {
            if let Some((start, issued0, retired0)) = open {
                let c = &self.threads[tid].counters;
                rec.record_span(vds_obs::SpanRecord {
                    begin: *start as f64,
                    end: self.cycle as f64,
                    component: "smt",
                    name: "pipeline",
                    tid: tid as u32,
                    fields: window_fields(c.issued_cycles - issued0, c.retired - retired0),
                });
            }
        }
        if self.windows_dropped > 0 {
            rec.count("smt.windows_dropped", self.windows_dropped);
        }
    }

    /// Park a thread for `cycles` cycles (the OS layer uses this to
    /// charge context-switch overhead to the hardware thread).
    ///
    /// # Panics
    /// Panics if the thread has halted or trapped.
    pub fn park_thread(&mut self, id: ThreadId, cycles: u32) {
        let t = &mut self.threads[id.0];
        assert!(
            matches!(
                t.state,
                ThreadState::Ready | ThreadState::StalledUntil(_) | ThreadState::Yielded
            ),
            "cannot park a thread in state {:?}",
            t.state
        );
        t.stall_until(self.cycle + u64::from(cycles), StallCause::Parked);
        self.state_changes += 1;
    }

    /// Resume a yielded thread.
    ///
    /// # Panics
    /// Panics if the thread is not in [`ThreadState::Yielded`].
    pub fn resume(&mut self, id: ThreadId) {
        let t = &mut self.threads[id.0];
        assert_eq!(
            t.state,
            ThreadState::Yielded,
            "resume() requires a yielded thread"
        );
        t.state = ThreadState::Ready;
        self.state_changes += 1;
    }

    /// Save a thread's architectural state and replace it with another
    /// (the OS context switch). Returns the previous context. The incoming
    /// context's `state` is restored as saved.
    pub fn swap_context(&mut self, id: ThreadId, incoming: SavedContext) -> SavedContext {
        if self.record_windows {
            self.close_window(id.0);
        }
        let t = &mut self.threads[id.0];
        let outgoing = SavedContext {
            regs: t.regs,
            pc: t.pc,
            prog: std::mem::take(&mut t.prog),
            dmem: std::mem::take(&mut t.dmem),
            state: t.state,
        };
        t.regs = incoming.regs;
        t.pc = incoming.pc;
        t.prog = incoming.prog;
        t.dmem = incoming.dmem;
        t.state = incoming.state;
        t.fetch_fill = None; // the fill buffer belongs to the old stream
        self.state_changes += 1;
        outgoing
    }

    /// This cycle's thread priority order, read with
    /// [`Core::nth_in_priority`]: `0..n` rotated left by the round-robin
    /// offset, or, under ICOUNT, ranked by retired instructions into
    /// `self.order`.
    fn priority(&mut self) -> Priority {
        let n = self.threads.len();
        match self.cfg.fetch_policy {
            FetchPolicy::RoundRobin => Priority::Rotated(self.rr_offset % n.max(1)),
            FetchPolicy::ICount => {
                let threads = &self.threads;
                self.order.clear();
                self.order.extend(0..n);
                self.order
                    .sort_by_key(|&i| (threads[i].counters.retired, i));
                Priority::Ranked
            }
        }
    }

    /// The `k`-th thread in priority order `p`.
    #[inline]
    fn nth_in_priority(&self, p: Priority, k: usize) -> usize {
        match p {
            Priority::Rotated(first) => {
                let i = first + k;
                let n = self.threads.len();
                if i < n {
                    i
                } else {
                    i - n
                }
            }
            Priority::Ranked => self.order[k],
        }
    }

    /// The first unit of `class` free this cycle.
    fn free_unit(&self, class: FuClass) -> Option<usize> {
        match fu_slot(class) {
            Some(slot) => self.unit_free_at[slot]
                .iter()
                .position(|&free_at| free_at <= self.cycle),
            None => Some(0),
        }
    }

    /// Advance one cycle. Returns `true` if any thread issued.
    pub fn step(&mut self) -> bool {
        self.cycle += 1;
        let cycle = self.cycle;
        let priority = self.priority();
        self.rr_offset = self.rr_offset.wrapping_add(1);
        // A thread's window opens or closes before its fetch, on its own
        // state and counters, which no other thread's turn touches; so
        // syncing every window up front gives the same windows in the
        // same order.
        if self.record_windows && self.windows_synced != self.state_changes {
            self.sync_windows(priority);
        }

        let mut issued = 0usize;
        for k in 0..self.threads.len() {
            let tid = self.nth_in_priority(priority, k);
            let Some(instr) = self.fetch(tid, issued) else {
                continue;
            };

            // functional unit
            let class = instr.fu_class();
            let Some(unit) = self.free_unit(class) else {
                self.threads[tid].counters.stall(StallCause::FuBusy);
                self.memo.mark(replay::BUSY);
                continue;
            };
            if let Some(slot) = fu_slot(class) {
                self.unit_free_at[slot][unit] = cycle + u64::from(instr.fu_latency());
            }

            issued += 1;
            self.threads[tid].counters.issued_cycles += 1;
            self.execute(tid, &instr, class, unit);
        }
        issued > 0
    }

    /// Book this cycle for thread `tid` and fetch the instruction it may
    /// issue, `issued` instructions having issued before it this cycle.
    /// `None` once the cycle is booked to whatever kept it from issuing:
    /// its stall, parking, issue width, an i-cache miss or a fetch trap.
    fn fetch(&mut self, tid: usize, issued: usize) -> Option<Instr> {
        let cycle = self.cycle;
        let t = &mut self.threads[tid];
        t.counters.cycles += 1;
        match t.state {
            ThreadState::StalledUntil(until) if cycle < until => {
                t.counters.stall(t.stall_cause);
                return None;
            }
            ThreadState::StalledUntil(_) => t.state = ThreadState::Ready,
            ThreadState::Yielded | ThreadState::Halted | ThreadState::Trapped(_) => {
                t.counters.stall(StallCause::Parked);
                return None;
            }
            ThreadState::Ready => {}
        }

        if issued >= self.cfg.issue_width {
            t.counters.stall(StallCause::Width);
            return None;
        }

        let pc = t.pc;
        let Some(&word) = t.prog.text.get(pc as usize) else {
            self.memo.fetched(tid, pc, false);
            t.state = ThreadState::Trapped(Trap::PcOutOfRange { pc });
            self.state_changes += 1;
            // The trap-transition cycle is neither an issue nor a
            // cause-specific stall; book it as parked so the
            // conservation invariant (issued + stalls + parked ==
            // cycles) holds on trapping runs too.
            t.counters.stall(StallCause::Parked);
            return None;
        };
        let fill_hit = t.fetch_fill.take() == Some(pc);
        if !fill_hit && !self.icache.access(tid as u8, pc) {
            // the line arrives after the memory latency and is held
            // in the fill buffer, immune to eviction by siblings
            t.fetch_fill = Some(pc);
            t.stall_until(cycle + u64::from(self.cfg.mem_latency), StallCause::ICache);
            // no issue happened this cycle, so count it as stalled
            t.counters.stall(StallCause::ICache);
            return None;
        }
        let instr = t.fetch_decoded(pc as usize, word);
        self.memo.fetched(tid, pc, true);
        if instr.is_none() {
            t.state = ThreadState::Trapped(Trap::IllegalInstruction { pc });
            self.state_changes += 1;
            // Same conservation bookkeeping as the fetch trap.
            t.counters.stall(StallCause::Parked);
        }
        instr
    }

    /// Advance at least one cycle and, past that, never beyond cycle
    /// `limit`.
    ///
    /// While some thread is [`ThreadState::Ready`] this is exactly one
    /// [`Core::step`]. Otherwise no thread can issue before the earliest
    /// `StalledUntil` wake-up: every cycle before it (up to `limit`) only
    /// books counters, so the whole stretch is booked at once, exactly as
    /// `step` would book it one cycle at a time.
    pub fn advance(&mut self, limit: u64) {
        if self.threads.iter().any(|t| t.state == ThreadState::Ready) {
            self.step();
            return;
        }
        let wake = self
            .threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::StalledUntil(until) => Some(until),
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX);
        // the idle stretch is cycles `self.cycle + 1 ..= last`
        let last = wake.saturating_sub(1).min(limit);
        if last <= self.cycle {
            self.step();
        } else {
            self.idle_until(last);
        }
    }

    /// Advance, [`Core::advance`] after [`Core::advance`], until the
    /// first cycle in which some thread yields, halts or traps, or until
    /// cycle `limit`, whichever comes first (at once if the core is
    /// already there).
    ///
    /// Those transitions are the only changes in scheduling state a host
    /// waits for: between them threads only move between ready and
    /// stalled. A host loop that checks its threads after each call
    /// therefore sees exactly what it would see checking after every
    /// cycle, a few times per round instead of once per cycle.
    ///
    /// A segment this core has simulated before from the same scheduling
    /// state is replayed instead of simulated cycle by cycle, with the
    /// same result (see the module doc, *Replayed repeats*).
    pub fn advance_until_block(&mut self, limit: u64) {
        if self.cycle >= limit || self.replay(limit) {
            return;
        }
        let changes = self.state_changes;
        while self.cycle < limit {
            self.advance(limit);
            if self.state_changes != changes {
                break;
            }
        }
        self.end_tape();
    }

    /// How many segments [`Core::advance_until_block`] has replayed
    /// rather than simulated: a host-side statistic that no simulated
    /// quantity depends on.
    pub fn replayed_segments(&self) -> u64 {
        self.memo.hits()
    }

    /// Book the idle cycles `self.cycle + 1 ..= last`, in which no thread
    /// is ready and none wakes: [`Core::step`]'s per-cycle bookkeeping,
    /// summed.
    fn idle_until(&mut self, last: u64) {
        let n = last - self.cycle;
        // Only the first idle cycle can open or close a pipeline window,
        // and it does so in that cycle's priority order.
        self.cycle += 1;
        if self.record_windows && self.windows_synced != self.state_changes {
            let priority = self.priority();
            self.sync_windows(priority);
        }
        self.cycle = last;
        self.rr_offset = self.rr_offset.wrapping_add(n as usize);
        for t in &mut self.threads {
            t.counters.cycles += n;
            let cause = match t.state {
                ThreadState::StalledUntil(_) => t.stall_cause,
                _ => StallCause::Parked,
            };
            t.counters.stall_n(cause, n);
        }
    }

    /// Issue `instr` for thread `tid` on unit `unit` of `class`: its
    /// architectural effect ([`Thread::apply`]), then what that effect
    /// costs the pipeline this cycle.
    fn execute(&mut self, tid: usize, instr: &Instr, class: FuClass, unit: usize) {
        let cycle = self.cycle;
        let cfg = &self.cfg;
        let faults = &self.faults;
        let t = &mut self.threads[tid];
        t.counters.retired += 1;
        let effect = t.apply(instr, |result| {
            faults
                .iter()
                .filter(|f| f.class == class && f.unit == unit)
                .fold(result, |v, f| f.corrupt(v))
        });
        match effect {
            Effect::Done => {}
            Effect::Wait => {
                // blocking in-order: the thread waits for its own result
                let wait = instr.fu_latency() - 1;
                t.stall_until(cycle + u64::from(wait), StallCause::FuBusy);
            }
            Effect::Load { addr } => {
                t.counters.loads += 1;
                if self.dcache.access(tid as u8, addr) {
                    if cfg.load_use_delay > 0 {
                        let until = cycle + u64::from(cfg.load_use_delay);
                        t.stall_until(until, StallCause::DCache);
                    }
                } else {
                    t.stall_until(cycle + u64::from(cfg.mem_latency), StallCause::DCache);
                }
            }
            Effect::Store { addr, .. } => {
                t.counters.stores += 1;
                let hit = self.dcache.access(tid as u8, addr);
                if !hit && cfg.store_miss_latency > 0 {
                    let until = cycle + u64::from(cfg.store_miss_latency);
                    t.stall_until(until, StallCause::DCache);
                }
            }
            Effect::Violation { store, addr } => {
                if store {
                    t.counters.stores += 1;
                } else {
                    t.counters.loads += 1;
                }
                t.state = ThreadState::Trapped(Trap::AccessViolation { addr });
                self.state_changes += 1;
                self.memo.mark(replay::VIOLATION);
            }
            Effect::Branch { pc, taken } => {
                t.counters.branches += 1;
                if t.predictor.update(pc, taken) {
                    self.memo.mark(replay::PREDICTED);
                } else {
                    t.counters.mispredicts += 1;
                    if cfg.mispredict_penalty > 0 {
                        let until = cycle + u64::from(cfg.mispredict_penalty);
                        t.stall_until(until, StallCause::BranchFlush);
                    }
                }
            }
            Effect::Yield => {
                t.state = ThreadState::Yielded;
                self.state_changes += 1;
            }
            Effect::Halt => {
                t.state = ThreadState::Halted;
                self.state_changes += 1;
            }
        }
    }

    /// Run until no thread can make progress or `max_cycles` elapse.
    pub fn run_until_all_blocked(&mut self, max_cycles: u64) -> RunOutcome {
        let deadline = self.cycle + max_cycles;
        loop {
            if let Some((i, t)) = self
                .threads
                .iter()
                .enumerate()
                .find(|(_, t)| matches!(t.state, ThreadState::Trapped(_)))
            {
                let ThreadState::Trapped(trap) = t.state else {
                    unreachable!()
                };
                return RunOutcome::Trapped(ThreadId(i), trap);
            }
            if !self.threads.iter().any(Thread::is_live) {
                return if self.threads.iter().any(|t| t.state == ThreadState::Yielded) {
                    RunOutcome::AllYielded
                } else {
                    RunOutcome::AllHalted
                };
            }
            if self.cycle >= deadline {
                return RunOutcome::CycleBudgetExhausted;
            }
            self.advance_until_block(deadline);
        }
    }

    /// Run until the *given* thread yields, halts or traps (other threads
    /// keep executing concurrently — this is how the VDS engine runs one
    /// round of one version on an SMT machine).
    pub fn run_until_thread_blocks(&mut self, id: ThreadId, max_cycles: u64) -> RunOutcome {
        let deadline = self.cycle + max_cycles;
        loop {
            match self.threads[id.0].state {
                ThreadState::Yielded => return RunOutcome::AllYielded,
                ThreadState::Halted => return RunOutcome::AllHalted,
                ThreadState::Trapped(trap) => return RunOutcome::Trapped(id, trap),
                _ => {}
            }
            if self.cycle >= deadline {
                return RunOutcome::CycleBudgetExhausted;
            }
            self.advance_until_block(deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_program(src: &str) -> Core {
        let prog = assemble(src).unwrap();
        let mut core = Core::new(CoreConfig::default());
        core.add_thread(&prog, 256);
        let out = core.run_until_all_blocked(1_000_000);
        assert_eq!(out, RunOutcome::AllHalted, "program did not halt");
        core
    }

    #[test]
    fn arithmetic_program() {
        let core = run_program(
            r#"
            addi r1, r0, 6
            addi r2, r0, 7
            mul  r3, r1, r2
            halt
            "#,
        );
        assert_eq!(core.thread(ThreadId(0)).regs[3], 42);
    }

    #[test]
    fn state_digest_reflects_architectural_state_only() {
        let a = run_program("addi r1, r0, 6\nhalt\n");
        let b = run_program("addi r1, r0, 6\nhalt\n");
        assert_eq!(
            a.thread(ThreadId(0)).state_digest(),
            b.thread(ThreadId(0)).state_digest()
        );
        let c = run_program("addi r1, r0, 7\nhalt\n");
        assert_ne!(
            a.thread(ThreadId(0)).state_digest(),
            c.thread(ThreadId(0)).state_digest()
        );
        // micro-architectural divergence (counters) must not affect it
        let mut d = run_program("addi r1, r0, 6\nhalt\n");
        let t = d.thread_mut(ThreadId(0));
        t.counters = ThreadCounters::default();
        assert_eq!(
            a.thread(ThreadId(0)).state_digest(),
            d.thread(ThreadId(0)).state_digest()
        );
    }

    #[test]
    fn loop_sums_correctly() {
        let core = run_program(
            r#"
                addi r1, r0, 100
                addi r2, r0, 0
            loop:
                add  r2, r2, r1
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
            "#,
        );
        assert_eq!(core.thread(ThreadId(0)).regs[2], 5050);
    }

    #[test]
    fn memory_roundtrip() {
        let core = run_program(
            r#"
            .data
            buf: .space 4
            .text
                li  r1, 123
                st  r1, buf(r0)
                ld  r2, buf(r0)
                halt
            "#,
        );
        assert_eq!(core.thread(ThreadId(0)).regs[2], 123);
    }

    #[test]
    fn jal_and_jalr_call_return() {
        let core = run_program(
            r#"
                jal  r15, func
                st   r3, 0(r0)
                halt
            func:
                addi r3, r0, 9
                jalr r0, r15, 0
            "#,
        );
        assert_eq!(core.thread(ThreadId(0)).dmem[0], 9);
    }

    #[test]
    fn metrics_export_flushes_counters() {
        let core = run_program(
            r#"
                addi r1, r0, 10
            loop:
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
            "#,
        );
        let mut rec = vds_obs::Recorder::new();
        core.export_metrics(&mut rec);
        let reg = rec.registry();
        assert_eq!(reg.counter("smt.cycles"), core.cycles());
        assert_eq!(
            reg.counter("smt.thread0.retired"),
            core.thread(ThreadId(0)).counters.retired
        );
        assert!(reg.counter("smt.thread0.branches") >= 10);
        assert!(reg.gauge_value("smt.thread0.ipc").unwrap() > 0.0);
        assert_eq!(
            reg.counter("smt.icache.hits") + reg.counter("smt.icache.misses"),
            core.icache_stats().accesses()
        );
    }

    #[test]
    fn pipeline_windows_are_recorded_and_exported() {
        let prog = assemble("addi r1, r0, 1\nyield\naddi r1, r1, 1\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        core.set_window_recording(true);
        let t = core.add_thread(&prog, 16);
        core.run_until_all_blocked(1000);
        core.step(); // parked cycle closes the yield window
        core.resume(t);
        core.run_until_all_blocked(1000);
        let mut rec = vds_obs::Recorder::new();
        core.export_spans(&mut rec);
        assert!(rec.spans().len() >= 2, "spans: {}", rec.spans().len());
        let total_retired: u64 = rec
            .spans()
            .records()
            .flat_map(|s| s.fields.iter())
            .filter(|(k, _)| *k == "retired")
            .map(|(_, v)| match v {
                vds_obs::Value::U64(n) => *n,
                _ => 0,
            })
            .sum();
        assert_eq!(total_retired, core.thread(t).counters.retired);
        for s in rec.spans().records() {
            assert!(s.end >= s.begin);
            assert_eq!(s.component, "smt");
        }
    }

    #[test]
    fn yield_parks_and_resume_continues() {
        let prog = assemble("addi r1, r0, 1\nyield\naddi r1, r1, 1\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllYielded);
        assert_eq!(core.thread(t).regs[1], 1);
        core.resume(t);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllHalted);
        assert_eq!(core.thread(t).regs[1], 2);
    }

    #[test]
    fn access_violation_traps_without_corrupting_others() {
        let bad = assemble("li r1, 9999\nld r2, 0(r1)\nhalt\n").unwrap();
        let good = assemble("addi r1, r0, 5\nst r1, 0(r0)\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let tb = core.add_thread(&bad, 16);
        let tg = core.add_thread(&good, 16);
        let out = core.run_until_all_blocked(10_000);
        match out {
            RunOutcome::Trapped(id, Trap::AccessViolation { addr }) => {
                assert_eq!(id, tb);
                assert_eq!(addr, 9999);
            }
            other => panic!("expected access violation, got {other:?}"),
        }
        // The good thread's memory is untouched by the bad access.
        let _ = tg;
    }

    #[test]
    fn illegal_instruction_traps() {
        let prog = assemble("nop\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        core.thread_mut(t).prog.text[0] = 63 << 26;
        match core.run_until_all_blocked(1000) {
            RunOutcome::Trapped(_, Trap::IllegalInstruction { pc }) => assert_eq!(pc, 0),
            other => panic!("{other:?}"),
        }
    }

    /// A loop whose first word (`addi r1, r1, 1`) runs once per round.
    const ROUND_LOOP: &str = "addi r1, r1, 1\nyield\njal r0, 0\n";

    #[test]
    fn text_turned_illegal_after_executing_traps() {
        let prog = assemble(ROUND_LOOP).unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllYielded);
        core.thread_mut(t).prog.text[0] = 63 << 26;
        core.resume(t);
        match core.run_until_all_blocked(1000) {
            RunOutcome::Trapped(_, Trap::IllegalInstruction { pc }) => assert_eq!(pc, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn text_rewritten_after_executing_runs_the_new_instruction() {
        let prog = assemble(ROUND_LOOP).unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllYielded);
        core.thread_mut(t).prog.text[0] = assemble("addi r1, r1, 10\n").unwrap().text[0];
        core.resume(t);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllYielded);
        assert_eq!(core.thread(t).regs[1], 11);
    }

    /// A recorded segment replays only where the cycle loop would run it
    /// whole and the same: ending before the limit, with every i-cache
    /// line it fetched still present, and from the same fill buffers and
    /// units' busy-until.
    #[test]
    fn replay_stands_aside_where_its_recording_does_not_hold() {
        let prog = assemble(ROUND_LOOP).unwrap();
        let mut fast = Core::new(CoreConfig::default());
        let t = fast.add_thread(&prog, 16);
        let mut scanned = fast.clone();
        // to the next yield, or `limit`; resumes a yielded thread first
        let run = |fast: &mut Core, scanned: &mut Core, limit: u64| {
            for core in [&mut *fast, &mut *scanned] {
                if core.thread(t).state == ThreadState::Yielded {
                    core.resume(t);
                }
            }
            fast.advance_until_block(limit);
            let changes = scanned.state_changes;
            while scanned.cycle < limit && scanned.state_changes == changes {
                scanned.advance(limit);
            }
            assert!(*fast == *scanned, "cycle {}", scanned.cycle);
        };
        type Disturbance = (&'static str, fn(&mut Core));
        let disturbances: [Disturbance; 4] = [
            ("no room before the limit", |_| {}),
            ("an evicted line", |core| core.icache.flush()),
            ("a pending fill", |core| {
                core.threads[0].fetch_fill = Some(core.threads[0].pc);
            }),
            ("a busy unit", |core| {
                let busy = core.cycle + 4;
                core.unit_free_at[0].fill(busy);
            }),
        ];
        for (what, disturb) in disturbances {
            let before = fast.replayed_segments();
            for _ in 0..4 {
                run(&mut fast, &mut scanned, u64::MAX);
            }
            let replayed = fast.replayed_segments();
            assert!(replayed > before, "{what}: steady rounds replay");
            disturb(&mut fast);
            disturb(&mut scanned);
            let limit = match what {
                "no room before the limit" => fast.cycles() + 1,
                _ => u64::MAX,
            };
            run(&mut fast, &mut scanned, limit);
            assert_eq!(fast.replayed_segments(), replayed, "{what}");
        }
    }

    /// A segment that ends in an access violation replays only to the
    /// address it recorded.
    #[test]
    fn a_replayed_trap_is_at_the_recorded_address() {
        let prog = assemble("ld r2, 0(r1)\nhalt\n").unwrap();
        let mut fast = Core::new(CoreConfig::default());
        let t = fast.add_thread(&prog, 16);
        let mut scanned = fast.clone();
        for (round, addr) in [100, 100, 100, 200].into_iter().enumerate() {
            for core in [&mut fast, &mut scanned] {
                let mut regs = [0; 16];
                regs[1] = addr;
                core.swap_context(
                    t,
                    SavedContext {
                        regs,
                        pc: 0,
                        prog: prog.clone(),
                        dmem: vec![0; 16],
                        state: ThreadState::Ready,
                    },
                );
            }
            fast.advance_until_block(u64::MAX);
            let changes = scanned.state_changes;
            while scanned.state_changes == changes {
                scanned.advance(u64::MAX);
            }
            assert!(fast == scanned, "round {round}");
            let trap = Trap::AccessViolation { addr };
            assert_eq!(fast.thread(t).state, ThreadState::Trapped(trap));
        }
        assert_eq!(fast.replayed_segments(), 1, "the third round replays");
    }

    #[test]
    fn advance_skips_an_idle_stretch_in_one_call() {
        let prog = assemble("ld r1, 0(r0)\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        core.step(); // i-cache miss parks the fetch for mem_latency
        let ThreadState::StalledUntil(wake) = core.thread(t).state else {
            panic!("{:?}", core.thread(t).state);
        };
        core.advance(1000);
        assert_eq!(core.cycles(), wake - 1, "every cycle before the wake-up");
        assert_eq!(core.thread(t).counters.stall_icache, wake - 1);
        core.advance(1000);
        assert_eq!(core.cycles(), wake, "the wake-up cycle is a real step");
        assert_eq!(core.thread(t).counters.issued_cycles, 1);
        // with nothing live, advance runs to the limit and no further
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllHalted);
        core.advance(core.cycles() + 50);
        let c = core.thread(t).counters;
        assert_eq!(c.issued_cycles + c.total_stalls() + c.parked, c.cycles);
        assert_eq!(c.cycles, core.cycles());
    }

    #[test]
    fn pc_out_of_range_traps() {
        let prog = assemble("jal r0, 100\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        core.add_thread(&prog, 16);
        match core.run_until_all_blocked(1000) {
            RunOutcome::Trapped(_, Trap::PcOutOfRange { pc }) => assert_eq!(pc, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn r0_stays_zero() {
        let core = run_program("addi r0, r0, 42\nhalt\n");
        assert_eq!(core.thread(ThreadId(0)).regs[0], 0);
    }

    #[test]
    fn two_threads_run_concurrently_and_finish_faster_than_serial() {
        let src = r#"
                addi r1, r0, 2000
            loop:
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
        "#;
        let prog = assemble(src).unwrap();

        let mut solo = Core::new(CoreConfig::default());
        solo.add_thread(&prog, 16);
        solo.run_until_all_blocked(10_000_000);
        let t_solo = solo.cycles();

        let mut pair = Core::new(CoreConfig::default());
        pair.add_thread(&prog, 16);
        pair.add_thread(&prog, 16);
        pair.run_until_all_blocked(10_000_000);
        let t_pair = pair.cycles();

        assert!(t_pair < 2 * t_solo, "co-run {t_pair} vs 2×solo {t_solo}");
        assert!(t_pair >= t_solo, "co-run cannot beat a single copy");
        let alpha = t_pair as f64 / (2.0 * t_solo as f64);
        assert!((0.5..=1.0).contains(&alpha), "alpha={alpha}");
    }

    #[test]
    fn mul_occupies_unit_and_stalls_owner() {
        // Two threads that both hammer the single multiplier: heavy
        // contention, alpha near 1.
        let src = r#"
                addi r1, r0, 300
                addi r2, r0, 3
            loop:
                mul  r3, r2, r2
                mul  r4, r3, r2
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
        "#;
        let prog = assemble(src).unwrap();
        let mut solo = Core::new(CoreConfig::default());
        solo.add_thread(&prog, 16);
        solo.run_until_all_blocked(10_000_000);
        let t_solo = solo.cycles();

        let mut pair = Core::new(CoreConfig::default());
        pair.add_thread(&prog, 16);
        pair.add_thread(&prog, 16);
        pair.run_until_all_blocked(10_000_000);
        let alpha = pair.cycles() as f64 / (2.0 * t_solo as f64);
        assert!(alpha > 0.75, "mul-bound pair should contend, alpha={alpha}");
    }

    #[test]
    fn permanent_fu_fault_corrupts_results() {
        let prog = assemble("addi r1, r0, 0\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        core.inject_fu_fault(FuFault {
            class: FuClass::Alu,
            unit: 0,
            bit: 3,
            value: true,
        });
        core.run_until_all_blocked(1000);
        assert_eq!(core.thread(t).regs[1], 8, "bit 3 stuck at 1");
    }

    #[test]
    fn fault_on_unit_1_spares_single_issue_stream() {
        // With one thread and RoundRobin priority, consecutive dependent
        // ALU ops all land on unit 0; a fault on unit 1 never fires.
        let prog = assemble("addi r1, r0, 1\naddi r1, r1, 1\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        core.inject_fu_fault(FuFault {
            class: FuClass::Alu,
            unit: 1,
            bit: 7,
            value: true,
        });
        core.run_until_all_blocked(1000);
        assert_eq!(core.thread(t).regs[1], 2);
    }

    #[test]
    fn counters_accumulate() {
        let core = run_program(
            r#"
                addi r1, r0, 10
            loop:
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
            "#,
        );
        let c = core.thread(ThreadId(0)).counters;
        assert_eq!(c.retired, 1 + 20 + 1);
        assert_eq!(c.branches, 10);
        assert!(c.cycles >= c.retired);
        assert!(c.ipc() > 0.0 && c.ipc() <= 1.0);
    }

    #[test]
    fn swap_context_roundtrip() {
        let p1 = assemble("addi r1, r0, 1\nyield\naddi r1, r1, 10\nhalt\n").unwrap();
        let p2 = assemble("addi r2, r0, 2\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&p1, 16);
        core.run_until_all_blocked(1000); // p1 yields
        let saved1 = SavedContext {
            regs: [0; 16],
            pc: 0,
            prog: p2,
            dmem: vec![0; 16],
            state: ThreadState::Ready,
        };
        let saved_p1 = core.swap_context(t, saved1);
        assert_eq!(saved_p1.regs[1], 1);
        core.run_until_all_blocked(1000); // p2 halts
        assert_eq!(core.thread(t).regs[2], 2);
        // switch back and finish p1
        let mut back = saved_p1;
        back.state = ThreadState::Ready; // host resumes after yield
        core.swap_context(t, back);
        core.run_until_all_blocked(1000);
        assert_eq!(core.thread(t).regs[1], 11);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = r#"
                addi r1, r0, 500
            loop:
                mul r2, r1, r1
                st  r2, 0(r0)
                ld  r3, 0(r0)
                subi r1, r1, 1
                bne r1, r0, loop
                halt
        "#;
        let prog = assemble(src).unwrap();
        let run = || {
            let mut core = Core::new(CoreConfig::default());
            core.add_thread(&prog, 64);
            core.add_thread(&prog, 64);
            core.run_until_all_blocked(10_000_000);
            (core.cycles(), core.thread(ThreadId(0)).regs[2])
        };
        assert_eq!(run(), run());
    }
}
