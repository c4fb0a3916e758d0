//! Per-thread performance counters.

/// Why a thread could not issue in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting on an instruction-cache miss.
    ICache,
    /// Waiting on a data-cache miss.
    DCache,
    /// Required functional unit busy (taken by another thread or a
    /// multi-cycle op).
    FuBusy,
    /// Issue width exhausted by higher-priority threads.
    Width,
    /// Recovering from a branch mispredict.
    BranchFlush,
    /// Thread is parked (yielded/halted) — not really a stall, counted
    /// separately for utilisation accounting.
    Parked,
}

/// Counters for one hardware thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles during which the thread existed (parked or not).
    pub cycles: u64,
    /// Cycles the thread issued an instruction.
    pub issued_cycles: u64,
    /// Stall cycles: instruction cache.
    pub stall_icache: u64,
    /// Stall cycles: data cache.
    pub stall_dcache: u64,
    /// Stall cycles: functional-unit contention.
    pub stall_fu: u64,
    /// Stall cycles: issue-width contention.
    pub stall_width: u64,
    /// Stall cycles: branch mispredict flush.
    pub stall_branch: u64,
    /// Cycles parked on `yield`/`halt`.
    pub parked: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

impl ThreadCounters {
    /// Record a stall of the given cause.
    pub fn stall(&mut self, cause: StallCause) {
        self.stall_n(cause, 1);
    }

    /// Record `n` stall cycles of the given cause at once (the core's
    /// idle fast-forward books a whole stretch in one call).
    pub fn stall_n(&mut self, cause: StallCause, n: u64) {
        match cause {
            StallCause::ICache => self.stall_icache += n,
            StallCause::DCache => self.stall_dcache += n,
            StallCause::FuBusy => self.stall_fu += n,
            StallCause::Width => self.stall_width += n,
            StallCause::BranchFlush => self.stall_branch += n,
            StallCause::Parked => self.parked += n,
        }
    }

    /// What each counter gained since `earlier`.
    pub(crate) fn since(&self, earlier: &Self) -> Self {
        let mut d = *self;
        for (x, e) in d.fields_mut().into_iter().zip(earlier.fields()) {
            *x -= e;
        }
        d
    }

    /// Add `delta` to each counter.
    pub(crate) fn add(&mut self, delta: &Self) {
        for (x, d) in self.fields_mut().into_iter().zip(delta.fields()) {
            *x += d;
        }
    }

    fn fields(&self) -> [u64; 13] {
        let mut copy = *self;
        copy.fields_mut().map(|x| *x)
    }

    fn fields_mut(&mut self) -> [&mut u64; 13] {
        let ThreadCounters {
            retired,
            cycles,
            issued_cycles,
            stall_icache,
            stall_dcache,
            stall_fu,
            stall_width,
            stall_branch,
            parked,
            branches,
            mispredicts,
            loads,
            stores,
        } = self;
        [
            retired,
            cycles,
            issued_cycles,
            stall_icache,
            stall_dcache,
            stall_fu,
            stall_width,
            stall_branch,
            parked,
            branches,
            mispredicts,
            loads,
            stores,
        ]
    }

    /// Instructions per (active, non-parked) cycle.
    pub fn ipc(&self) -> f64 {
        let active = self.cycles.saturating_sub(self.parked);
        if active == 0 {
            0.0
        } else {
            self.retired as f64 / active as f64
        }
    }

    /// Fraction of the thread's lifetime cycles it issued an instruction
    /// (0.0 before the first cycle). Unlike [`ThreadCounters::ipc`] this
    /// includes parked cycles, so it is the hardware-thread utilisation a
    /// live dashboard wants: how much of the core's time this thread
    /// actually used.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued_cycles as f64 / self.cycles as f64
        }
    }

    /// Branch prediction accuracy (1.0 when no branches ran).
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Total stall cycles across causes (excluding parked).
    pub fn total_stalls(&self) -> u64 {
        self.stall_icache + self.stall_dcache + self.stall_fu + self.stall_width + self.stall_branch
    }

    /// Copy the cycle-accounting fields into an obs-side
    /// [`vds_obs::alpha::CycleSnapshot`] for differential α attribution.
    ///
    /// The snapshot obeys the conservation invariant
    /// `issued_cycles + stall_* + parked == cycles` (proptested in
    /// `tests/conservation.rs`), which is what makes ledger attribution
    /// exact.
    pub fn snapshot(&self) -> vds_obs::alpha::CycleSnapshot {
        vds_obs::alpha::CycleSnapshot {
            cycles: self.cycles,
            issued_cycles: self.issued_cycles,
            stall_icache: self.stall_icache,
            stall_dcache: self.stall_dcache,
            stall_fu: self.stall_fu,
            stall_width: self.stall_width,
            stall_branch: self.stall_branch,
            parked: self.parked,
        }
    }

    /// Flush every counter into a metrics registry under
    /// `<prefix>.<counter>` (e.g. `smt.thread0.retired`), plus derived
    /// `ipc` and `branch_accuracy` gauges. End-of-run export: generic
    /// over the facade, never feature-gated.
    pub fn export_metrics<R: vds_obs::Record>(&self, rec: &mut R, prefix: &str) {
        let mut key = vds_obs::KeyPrefix::new(prefix);
        for (field, v) in [
            ("retired", self.retired),
            ("cycles", self.cycles),
            ("issued_cycles", self.issued_cycles),
            ("stall.icache", self.stall_icache),
            ("stall.dcache", self.stall_dcache),
            ("stall.fu", self.stall_fu),
            ("stall.width", self.stall_width),
            ("stall.branch", self.stall_branch),
            ("parked", self.parked),
            ("branches", self.branches),
            ("mispredicts", self.mispredicts),
            ("loads", self.loads),
            ("stores", self.stores),
        ] {
            rec.count(key.with(field), v);
        }
        rec.gauge(key.with("ipc"), self.ipc());
        rec.gauge(key.with("utilization"), self.utilization());
        rec.gauge(key.with("branch_accuracy"), self.branch_accuracy());
    }
}

impl std::fmt::Display for ThreadCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retired={} cycles={} ipc={:.3} stalls[i$={} d$={} fu={} width={} br={}] parked={} bacc={:.3}",
            self.retired,
            self.cycles,
            self.ipc(),
            self.stall_icache,
            self.stall_dcache,
            self.stall_fu,
            self.stall_width,
            self.stall_branch,
            self.parked,
            self.branch_accuracy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_ignores_parked_cycles() {
        let mut c = ThreadCounters {
            retired: 50,
            cycles: 200,
            ..Default::default()
        };
        c.parked = 100;
        assert!((c.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ipc_of_empty_thread_is_zero() {
        assert_eq!(ThreadCounters::default().ipc(), 0.0);
    }

    #[test]
    fn stall_routing() {
        let mut c = ThreadCounters::default();
        c.stall(StallCause::ICache);
        c.stall(StallCause::DCache);
        c.stall(StallCause::DCache);
        c.stall(StallCause::FuBusy);
        c.stall(StallCause::Width);
        c.stall(StallCause::BranchFlush);
        c.stall(StallCause::Parked);
        assert_eq!(c.stall_icache, 1);
        assert_eq!(c.stall_dcache, 2);
        assert_eq!(c.total_stalls(), 6);
        assert_eq!(c.parked, 1);
        let mut bulk = ThreadCounters::default();
        bulk.stall_n(StallCause::DCache, 2);
        bulk.stall_n(StallCause::Parked, 0);
        assert_eq!((bulk.stall_dcache, bulk.parked), (2, 0));
    }

    #[test]
    fn utilization_counts_parked_time_against_the_thread() {
        let c = ThreadCounters {
            cycles: 200,
            issued_cycles: 50,
            parked: 100,
            ..Default::default()
        };
        assert!((c.utilization() - 0.25).abs() < 1e-12);
        assert_eq!(ThreadCounters::default().utilization(), 0.0);
        let mut rec = vds_obs::Recorder::new();
        c.export_metrics(&mut rec, "smt.thread0");
        assert_eq!(
            rec.registry().gauge_value("smt.thread0.utilization"),
            Some(0.25)
        );
    }

    #[test]
    fn branch_accuracy() {
        let c = ThreadCounters {
            branches: 10,
            mispredicts: 2,
            ..Default::default()
        };
        assert!((c.branch_accuracy() - 0.8).abs() < 1e-12);
        assert_eq!(ThreadCounters::default().branch_accuracy(), 1.0);
    }
}
