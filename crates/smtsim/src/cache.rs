//! Set-associative cache model with LRU replacement.
//!
//! Caches are **shared between hardware threads** — exactly the resource
//! the paper's α abstracts over: co-scheduled versions evict each other's
//! lines (raising α) while memory-stall cycles of one thread can be hidden
//! by the other (lowering α). Tags carry the owning thread id because the
//! VDS system model mandates separate address spaces; two threads' equal
//! addresses are *different* memory.
//!
//! The model is timing-only: hit or miss, with the data held in the
//! thread's address space. Line size is in words; a miss costs the
//! configured memory latency.

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in 32-bit words (power of two).
    pub line_words: usize,
}

impl CacheConfig {
    /// A small default: 64 sets × 2 ways × 4-word lines = 2 KiB (512
    /// words) — deliberately modest so that realistic kernels contend.
    pub fn small() -> Self {
        CacheConfig {
            sets: 64,
            ways: 2,
            line_words: 4,
        }
    }

    /// A tiny cache for stress-testing conflict behaviour.
    pub fn tiny() -> Self {
        CacheConfig {
            sets: 8,
            ways: 1,
            line_words: 4,
        }
    }

    /// Capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.sets * self.ways * self.line_words
    }

    fn validate(&self) {
        assert!(self.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            self.line_words.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways >= 1, "need at least one way");
    }
}

/// Key of an empty way. Real keys are `(thread << 32) | tag` with an
/// 8-bit thread, so they never reach it.
const EMPTY: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    /// `(thread << 32) | tag` — thread id participates in the tag because
    /// address spaces are disjoint.
    key: u64,
    /// LRU stamp; larger = more recent.
    stamp: u64,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses caused by a *different* thread having evicted the line
    /// (inter-thread conflict; only counted when the line was previously
    /// present for this thread).
    pub thread_conflicts: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; 1 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A line and when it was accessed: `(key, set, offset)`.
pub(crate) type LineAt = (u64, u32, u32);

/// A shared, timing-only, set-associative LRU cache.
#[derive(Debug, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets × ways` lines, set-major: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    /// `log2(line_words)`: word address → line number.
    line_shift: u32,
    /// `log2(sets)`: line number → tag.
    set_shift: u32,
    clock: u64,
    stats: CacheStats,
    /// Keys evicted by a thread other than their owner, so that the
    /// owner's re-miss counts as an inter-thread conflict. Bounded by
    /// capacity.
    evicted_by_other: Vec<u64>,
}

impl Cache {
    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        Cache {
            cfg,
            lines: vec![
                Line {
                    key: EMPTY,
                    stamp: 0
                };
                cfg.sets * cfg.ways
            ],
            line_shift: cfg.line_words.trailing_zeros(),
            set_shift: cfg.sets.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
            evicted_by_other: Vec::new(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses so far: the LRU clock.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    fn find(&self, set_idx: usize, key: u64) -> Option<usize> {
        let ways = self.cfg.ways;
        (set_idx * ways..(set_idx + 1) * ways).find(|&i| self.lines[i].key == key)
    }

    /// The lines accessed since the clock read `since`, as `(key, set,
    /// last access − since)`. Stamps only grow, so these are the lines
    /// whose stamp passed `since`.
    pub(crate) fn touched_since(&self, since: u64) -> impl Iterator<Item = LineAt> + '_ {
        let ways = self.cfg.ways;
        self.lines
            .iter()
            .enumerate()
            .filter(move |(_, l)| l.key != EMPTY && l.stamp > since)
            .map(move |(i, l)| (l.key, (i / ways) as u32, (l.stamp - since) as u32))
    }

    /// Whether every line of `lines` is present.
    pub(crate) fn holds(&self, lines: &[LineAt]) -> bool {
        lines
            .iter()
            .all(|&(key, set, _)| self.find(set as usize, key).is_some())
    }

    /// The effect of `hits` accesses that all hit, on `lines`, which are
    /// present here, each last accessed at its offset from the first:
    /// each line's stamp is the clock of its last access, and nothing
    /// else moves but the clock and the hit count.
    pub(crate) fn replay_hits(&mut self, lines: &[LineAt], hits: u64) {
        for &(key, set, offset) in lines {
            let i = self
                .find(set as usize, key)
                .expect("replayed line is present");
            self.lines[i].stamp = self.clock + u64::from(offset);
        }
        self.clock += hits;
        self.stats.hits += hits;
    }

    /// Invalidate everything (e.g. at a simulated context switch if the
    /// host wants cold-cache semantics).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.key = EMPTY;
        }
        self.evicted_by_other.clear();
    }

    /// Access `addr` (word address) on behalf of `thread`. Returns `true`
    /// on hit. A miss allocates the line (for stores too: write-allocate).
    pub fn access(&mut self, thread: u8, addr: u32) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set_idx = (line as usize) & (self.cfg.sets - 1);
        let tag = line >> self.set_shift;
        let key = (u64::from(thread) << 32) | u64::from(tag);
        let ways = self.cfg.ways;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];

        if let Some(line) = set.iter_mut().find(|l| l.key == key) {
            line.stamp = self.clock;
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;
        if let Some(pos) = self.evicted_by_other.iter().position(|&k| k == key) {
            self.stats.thread_conflicts += 1;
            self.evicted_by_other.swap_remove(pos);
        }

        // choose victim: first empty way, else least recently used
        let victim = match set.iter().position(|l| l.key == EMPTY) {
            Some(i) => i,
            None => {
                let (i, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .expect("non-empty set");
                i
            }
        };
        let old = set[victim].key;
        if old != EMPTY && old >> 32 != u64::from(thread) {
            // remember cross-thread eviction so a re-miss by the owner
            // counts as an inter-thread conflict
            if self.evicted_by_other.len() < self.cfg.capacity_words() {
                self.evicted_by_other.push(old);
            }
        }
        set[victim] = Line {
            key,
            stamp: self.clock,
        };
        false
    }
}

// By hand so that `clone_from` reuses the buffers: a replaying core
// saves its d-cache into the same copy each time, without allocating.
impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            lines: self.lines.clone(),
            evicted_by_other: self.evicted_by_other.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cfg = source.cfg;
        self.lines.clone_from(&source.lines);
        self.line_shift = source.line_shift;
        self.set_shift = source.set_shift;
        self.clock = source.clock;
        self.stats = source.stats;
        self.evicted_by_other.clone_from(&source.evicted_by_other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = Cache::new(CacheConfig::small());
        assert!(!c.access(0, 100));
        assert!(c.access(0, 100));
        assert!(c.access(0, 101), "same line (4-word lines)");
        assert!(!c.access(0, 104), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn threads_do_not_share_lines() {
        let mut c = Cache::new(CacheConfig::small());
        c.access(0, 100);
        assert!(
            !c.access(1, 100),
            "same address, different thread: separate address spaces"
        );
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // tiny: 8 sets, direct-mapped, 4-word lines. Two addresses that
        // map to the same set: stride = sets * line_words = 32 words.
        let mut c = Cache::new(CacheConfig::tiny());
        assert!(!c.access(0, 0));
        assert!(!c.access(0, 32), "conflicting line evicts");
        assert!(!c.access(0, 0), "original line was evicted");
    }

    #[test]
    fn two_way_set_holds_two_conflicting_lines() {
        let cfg = CacheConfig {
            sets: 8,
            ways: 2,
            line_words: 4,
        };
        let mut c = Cache::new(cfg);
        c.access(0, 0);
        c.access(0, 32);
        assert!(c.access(0, 0));
        assert!(c.access(0, 32));
        // a third conflicting line evicts the LRU (addr 0 was touched
        // first in this round... order: 0 hit, 32 hit, so 0 is LRU)
        c.access(0, 64);
        assert!(!c.access(0, 0));
    }

    #[test]
    fn inter_thread_conflicts_are_attributed() {
        let mut c = Cache::new(CacheConfig::tiny());
        c.access(0, 0); // T0 owns line
        c.access(1, 0); // T1's same-set line evicts it (different key)
        c.access(0, 0); // T0 re-misses: inter-thread conflict
        assert_eq!(c.stats().thread_conflicts, 1);
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(CacheConfig::small());
        c.access(0, 0);
        c.flush();
        assert!(!c.access(0, 0));
    }

    #[test]
    fn hit_rate() {
        let mut c = Cache::new(CacheConfig::small());
        assert_eq!(c.stats().hit_rate(), 1.0);
        c.access(0, 0);
        c.access(0, 0);
        c.access(0, 0);
        c.access(0, 0);
        assert_eq!(c.stats().hit_rate(), 0.75);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_validated() {
        Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_words: 4,
        });
    }
}
