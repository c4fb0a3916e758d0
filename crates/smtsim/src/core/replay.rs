//! Replayed repeats: the segment memo behind [`Core::advance_until_block`]
//! (see the `core` module doc for what is keyed, verified and applied).

use super::{Core, Effect, FetchPolicy, ThreadState, Trap};
use crate::branch::Predictor;
use crate::cache::{Cache, LineAt};
use crate::isa::Reg;
use crate::perf::{StallCause, ThreadCounters};

/// Bytes of recorded segments one core keeps, oldest dropped first.
/// With the tape and the replay's saved d-cache and predictors, a memo
/// stays under 64 KiB.
const MEMO_BYTES: usize = 40 * 1024;
/// Longest segment taped, in events (4 KiB of tape): a micro round
/// tapes about 400, and taping a longer segment that never repeats
/// would only cost its host time.
const MAX_EVENTS: usize = 4 * 1024 / std::mem::size_of::<Event>();

/// The fetch found no text at its pc (and trapped).
const NO_TEXT: u32 = 1;
/// The fetched instruction found its unit busy and did not issue.
pub(super) const BUSY: u32 = 2;
/// The issued load or store fell outside the address space.
pub(super) const VIOLATION: u32 = 4;
/// The issued branch was predicted correctly.
pub(super) const PREDICTED: u32 = 8;

/// One fetch that reached the text, in cycle-loop order, with what
/// became of it: `pc << 8 | thread << 4 | flags`. A pc too large to
/// pack ends the tape, and the segment is not kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event(u32);

impl Event {
    fn pc(self) -> u32 {
        self.0 >> 8
    }

    fn tid(self) -> usize {
        (self.0 >> 4 & 0xF) as usize
    }

    fn has(self, flag: u32) -> bool {
        self.0 & flag != 0
    }
}

/// A thread's state at the end of a recorded segment.
#[derive(Debug, Clone)]
struct Exit {
    /// What the segment added to each counter.
    counters: ThreadCounters,
    /// `StalledUntil` counts from the segment's entry cycle.
    state: ThreadState,
    stall_cause: StallCause,
    fetch_fill: Option<u32>,
    /// The text from the least to the greatest pc the thread fetched:
    /// its first pc and its length in `Entry::text`.
    text: (u32, u32),
}

/// A recorded segment: from the scheduling state `key` to the first
/// yield, halt or trap, with no cache miss on the way.
#[derive(Debug, Clone)]
struct Entry {
    key: Box<[u64]>,
    events: Box<[Event]>,
    /// The threads' text ranges (`Exit::text`), one after the other.
    text: Box<[u32]>,
    /// The i-cache lines fetched from, each with its last access.
    lines: Box<[LineAt]>,
    icache_hits: u64,
    cycles: u64,
    state_changes: u64,
    threads: Box<[Exit]>,
    /// Per unit, in `unit_free_at` order: its busy-until counted from the
    /// entry cycle if the segment issued to it, else 0 (an issue holds
    /// its unit past the entry cycle).
    units: Box<[u64]>,
}

impl Entry {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Entry>()
            + std::mem::size_of_val(&*self.key)
            + std::mem::size_of_val(&*self.events)
            + std::mem::size_of_val(&*self.text)
            + std::mem::size_of_val(&*self.lines)
            + std::mem::size_of_val(&*self.threads)
            + std::mem::size_of_val(&*self.units)
    }
}

/// Where the segment being taped started.
#[derive(Debug, Clone, Default)]
struct Start {
    cycle: u64,
    state_changes: u64,
    icache_clock: u64,
    icache_misses: u64,
    dcache_misses: u64,
    counters: Vec<ThreadCounters>,
    units: Vec<u64>,
}

/// A thread's state a replay restores if it finds the recording does
/// not hold (its data memory comes back from `Memo::undo`).
#[derive(Debug, Clone)]
struct Saved {
    regs: [u32; Reg::COUNT],
    pc: u32,
    predictor: Predictor,
}

/// Recorded segments plus the scratch state of taping and replaying.
#[derive(Debug, Clone, Default)]
pub(super) struct Memo {
    /// Oldest first.
    entries: Vec<Entry>,
    bytes: usize,
    /// Segments replayed.
    hits: u64,
    /// The scheduling state `advance_until_block` was entered in.
    key: Vec<u64>,
    taping: bool,
    tape: Vec<Event>,
    start: Start,
    saved: Vec<Saved>,
    saved_dcache: Option<Cache>,
    /// Stores a replay made, as `(thread, addr, old word)`.
    undo: Vec<(u32, u32, u32)>,
}

impl Memo {
    /// Tape a fetch of thread `tid` at `pc`, inside the text or not.
    #[inline]
    pub(super) fn fetched(&mut self, tid: usize, pc: u32, in_text: bool) {
        if self.taping {
            if self.tape.len() == MAX_EVENTS || pc >= 1 << 24 {
                self.taping = false;
                return;
            }
            let flags = if in_text { 0 } else { NO_TEXT };
            self.tape.push(Event(pc << 8 | (tid as u32) << 4 | flags));
        }
    }

    /// Note `flag` on the last taped fetch.
    #[inline]
    pub(super) fn mark(&mut self, flag: u32) {
        if self.taping {
            if let Some(e) = self.tape.last_mut() {
                e.0 |= flag;
            }
        }
    }

    pub(super) fn hits(&self) -> u64 {
        self.hits
    }

    fn insert(&mut self, entry: Entry) {
        if let Some(i) = self.entries.iter().position(|e| e.key == entry.key) {
            self.bytes -= self.entries.remove(i).bytes();
        }
        self.bytes += entry.bytes();
        self.entries.push(entry);
        while self.bytes > MEMO_BYTES {
            self.bytes -= self.entries.remove(0).bytes();
        }
    }
}

fn state_code(state: ThreadState, now: u64) -> [u64; 2] {
    match state {
        ThreadState::Ready => [0, 0],
        ThreadState::StalledUntil(until) => [1, until.saturating_sub(now)],
        ThreadState::Yielded => [2, 0],
        ThreadState::Halted => [3, 0],
        ThreadState::Trapped(Trap::AccessViolation { addr }) => [4, addr.into()],
        ThreadState::Trapped(Trap::IllegalInstruction { pc }) => [5, pc.into()],
        ThreadState::Trapped(Trap::PcOutOfRange { pc }) => [6, pc.into()],
    }
}

/// `state` with a `StalledUntil` moved by `by` cycles.
fn shifted(state: ThreadState, by: impl Fn(u64) -> u64) -> ThreadState {
    match state {
        ThreadState::StalledUntil(until) => ThreadState::StalledUntil(by(until)),
        other => other,
    }
}

impl Core {
    /// Whether segments may be recorded and replayed: the replay holds
    /// the round-robin order, knows no functional-unit fault, and packs
    /// a thread into 4 bits.
    fn memo_applies(&self) -> bool {
        self.cfg.fetch_policy == FetchPolicy::RoundRobin
            && self.faults.is_empty()
            && self.threads.len() <= 16
    }

    /// The scheduling state the cycle loop's run from here depends on,
    /// other than the text, data and caches a replay verifies.
    fn fill_key(&mut self) {
        let now = self.cycle;
        let n = self.threads.len();
        let key = &mut self.memo.key;
        key.clear();
        key.extend([n as u64, (self.rr_offset % n.max(1)) as u64]);
        key.extend(
            self.unit_free_at
                .iter()
                .flatten()
                .map(|&free_at| free_at.saturating_sub(now)),
        );
        for t in &self.threads {
            key.push(t.pc.into());
            key.extend(state_code(t.state, now));
            key.push(t.stall_cause as u64);
            key.push(t.fetch_fill.map_or(0, |pc| u64::from(pc) + 1));
        }
    }

    /// Replay the segment recorded from this scheduling state, if there
    /// is one that fits before `limit` and holds here; `false` if the
    /// cycle loop must run instead, with the tape started when that run
    /// may be recorded.
    pub(super) fn replay(&mut self, limit: u64) -> bool {
        self.memo.taping = false;
        if !self.memo_applies() {
            return false;
        }
        self.fill_key();
        let found = self
            .memo
            .entries
            .iter()
            .position(|e| *e.key == *self.memo.key);
        if let Some(i) = found {
            let e = &self.memo.entries[i];
            let mut text = &e.text[..];
            let text_holds = self.threads.iter().zip(e.threads.iter()).all(|(t, x)| {
                let (first, len) = (x.text.0 as usize, x.text.1 as usize);
                let (words, rest) = text.split_at(len);
                text = rest;
                t.prog.text.get(first..first + len) == Some(words)
            });
            if self.cycle + e.cycles <= limit && text_holds && self.icache.holds(&e.lines) {
                self.save();
                if self.replay_events(i) {
                    self.apply_entry(i);
                    self.memo.hits += 1;
                    return true;
                }
                self.restore();
            }
        }
        self.start_tape();
        false
    }

    /// Save what a replay changes, into buffers kept across replays.
    fn save(&mut self) {
        let memo = &mut self.memo;
        memo.saved.truncate(self.threads.len());
        for (i, t) in self.threads.iter().enumerate() {
            match memo.saved.get_mut(i) {
                Some(s) => {
                    s.regs = t.regs;
                    s.pc = t.pc;
                    s.predictor.clone_from(&t.predictor);
                }
                None => memo.saved.push(Saved {
                    regs: t.regs,
                    pc: t.pc,
                    predictor: t.predictor.clone(),
                }),
            }
        }
        match &mut memo.saved_dcache {
            Some(d) => d.clone_from(&self.dcache),
            None => memo.saved_dcache = Some(self.dcache.clone()),
        }
        memo.undo.clear();
    }

    fn restore(&mut self) {
        let memo = &mut self.memo;
        for (t, s) in self.threads.iter_mut().zip(&memo.saved) {
            t.regs = s.regs;
            t.pc = s.pc;
            t.predictor.clone_from(&s.predictor);
        }
        for &(tid, addr, old) in memo.undo.iter().rev() {
            self.threads[tid as usize].dmem[addr as usize] = old;
        }
        if let Some(d) = &memo.saved_dcache {
            self.dcache.clone_from(d);
        }
    }

    /// Execute entry `i`'s events functionally, with the real d-cache
    /// accesses and predictor updates; `false` at the first event whose
    /// pc, address range, d-cache hit or prediction differs from the
    /// recording. The text was checked before.
    fn replay_events(&mut self, i: usize) -> bool {
        let Memo { entries, undo, .. } = &mut self.memo;
        for &ev in entries[i].events.iter() {
            let tid = ev.tid();
            let t = &mut self.threads[tid];
            if t.pc != ev.pc() {
                return false;
            }
            let word = t.prog.text.get(ev.pc() as usize);
            if word.is_none() != ev.has(NO_TEXT) {
                return false;
            }
            let Some(&word) = word else {
                continue;
            };
            // an illegal word traps, as recorded, since it is the same word
            let Some(instr) = t.fetch_decoded(ev.pc() as usize, word) else {
                continue;
            };
            if ev.has(BUSY) {
                continue;
            }
            let ok = match t.apply(&instr, |v| v) {
                Effect::Load { addr } => !ev.has(VIOLATION) && self.dcache.access(tid as u8, addr),
                Effect::Store { addr, old } => {
                    undo.push((tid as u32, addr, old));
                    !ev.has(VIOLATION) && self.dcache.access(tid as u8, addr)
                }
                // the recorded trap names the address
                Effect::Violation { addr, .. } => {
                    ev.has(VIOLATION)
                        && entries[i].threads[tid].state
                            == ThreadState::Trapped(Trap::AccessViolation { addr })
                }
                Effect::Branch { pc, taken } => t.predictor.update(pc, taken) == ev.has(PREDICTED),
                Effect::Done | Effect::Wait | Effect::Yield | Effect::Halt => true,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Book entry `i`'s recorded timing from the current cycle: what the
    /// cycle loop would have booked had it run the segment.
    fn apply_entry(&mut self, i: usize) {
        let now = self.cycle;
        // the windows the first cycle of the segment opens and closes
        if self.record_windows && self.windows_synced != self.state_changes {
            self.cycle = now + 1;
            let priority = self.priority();
            self.sync_windows(priority);
        }
        let e = &self.memo.entries[i];
        self.cycle = now + e.cycles;
        self.rr_offset = self.rr_offset.wrapping_add(e.cycles as usize);
        self.state_changes += e.state_changes;
        for (t, x) in self.threads.iter_mut().zip(e.threads.iter()) {
            t.counters.add(&x.counters);
            t.state = shifted(x.state, |until| now.wrapping_add(until));
            t.stall_cause = x.stall_cause;
            t.fetch_fill = x.fetch_fill;
        }
        for (free_at, &busy) in self.unit_free_at.iter_mut().flatten().zip(e.units.iter()) {
            if busy != 0 {
                *free_at = now + busy;
            }
        }
        self.icache.replay_hits(&e.lines, e.icache_hits);
    }

    fn start_tape(&mut self) {
        let memo = &mut self.memo;
        memo.taping = true;
        memo.tape.clear();
        let s = &mut memo.start;
        s.cycle = self.cycle;
        s.state_changes = self.state_changes;
        s.icache_clock = self.icache.clock();
        s.icache_misses = self.icache.stats().misses;
        s.dcache_misses = self.dcache.stats().misses;
        s.counters.clear();
        s.counters.extend(self.threads.iter().map(|t| t.counters));
        s.units.clear();
        s.units.extend(self.unit_free_at.iter().flatten());
    }

    /// Record the segment just run if it was taped whole, ended in a
    /// yield, halt or trap, and missed in neither cache.
    pub(super) fn end_tape(&mut self) {
        if !std::mem::take(&mut self.memo.taping) {
            return;
        }
        let s = &self.memo.start;
        if self.state_changes == s.state_changes
            || self.icache.stats().misses != s.icache_misses
            || self.dcache.stats().misses != s.dcache_misses
        {
            return;
        }
        let tape = &self.memo.tape;
        // per thread, the pcs it fetched from the text span `lo..hi`
        let mut spans = [(u32::MAX, 0); 16];
        for ev in tape.iter().filter(|ev| !ev.has(NO_TEXT)) {
            let (lo, hi) = &mut spans[ev.tid()];
            *lo = ev.pc().min(*lo);
            *hi = (ev.pc() + 1).max(*hi);
        }
        let ranges = self.threads.iter().zip(spans).map(|(t, (lo, hi))| {
            let lo = lo.min(hi);
            (t, lo, hi - lo)
        });
        // the host cannot write the text inside a segment
        let text = ranges
            .clone()
            .flat_map(|(t, lo, len)| &t.prog.text[lo as usize..(lo + len) as usize])
            .copied()
            .collect();
        let entry = Entry {
            key: self.memo.key.as_slice().into(),
            events: tape.as_slice().into(),
            text,
            lines: self.icache.touched_since(s.icache_clock).collect(),
            icache_hits: self.icache.clock() - s.icache_clock,
            cycles: self.cycle - s.cycle,
            state_changes: self.state_changes - s.state_changes,
            threads: ranges
                .zip(&s.counters)
                .map(|((t, lo, len), c0)| Exit {
                    counters: t.counters.since(c0),
                    state: shifted(t.state, |until| until.wrapping_sub(s.cycle)),
                    stall_cause: t.stall_cause,
                    fetch_fill: t.fetch_fill,
                    text: (lo, len),
                })
                .collect(),
            units: self
                .unit_free_at
                .iter()
                .flatten()
                .zip(&s.units)
                .map(|(&now, &then)| if now == then { 0 } else { now - s.cycle })
                .collect(),
        };
        self.memo.insert(entry);
    }
}
