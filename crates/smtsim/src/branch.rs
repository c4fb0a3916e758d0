//! Branch predictors.
//!
//! Prediction affects timing only (a mispredict costs a fixed flush
//! penalty); correctness never depends on it. Each hardware thread gets a
//! private predictor — the paper's §5 analogy between branch prediction
//! and *fault* prediction is implemented over in `vds-predictor`, reusing
//! the same two-level ideas.

/// Predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Always predict taken.
    StaticTaken,
    /// Always predict not-taken.
    StaticNotTaken,
    /// Per-PC 2-bit saturating counters.
    Bimodal {
        /// log2 of the table size.
        bits: u32,
    },
    /// Global-history XOR PC indexing into 2-bit counters.
    Gshare {
        /// log2 of the table size and history length.
        bits: u32,
    },
}

impl Default for PredictorKind {
    fn default() -> Self {
        PredictorKind::Bimodal { bits: 10 }
    }
}

/// A branch predictor instance.
#[derive(Debug, PartialEq, Eq)]
pub enum Predictor {
    /// See [`PredictorKind::StaticTaken`].
    StaticTaken,
    /// See [`PredictorKind::StaticNotTaken`].
    StaticNotTaken,
    /// See [`PredictorKind::Bimodal`].
    Bimodal {
        /// 2-bit counters, one per table slot.
        table: Vec<u8>,
    },
    /// See [`PredictorKind::Gshare`].
    Gshare {
        /// 2-bit counters.
        table: Vec<u8>,
        /// Global history register (low `bits` bits used).
        history: u32,
    },
}

impl Predictor {
    /// Instantiate a predictor of the given kind.
    pub fn new(kind: PredictorKind) -> Self {
        match kind {
            PredictorKind::StaticTaken => Predictor::StaticTaken,
            PredictorKind::StaticNotTaken => Predictor::StaticNotTaken,
            PredictorKind::Bimodal { bits } => Predictor::Bimodal {
                table: vec![1; 1 << bits], // weakly not-taken
            },
            PredictorKind::Gshare { bits } => Predictor::Gshare {
                table: vec![1; 1 << bits],
                history: 0,
            },
        }
    }

    /// Predict whether the branch at instruction index `pc` is taken.
    pub fn predict(&self, pc: u32) -> bool {
        match self {
            Predictor::StaticTaken => true,
            Predictor::StaticNotTaken => false,
            Predictor::Bimodal { table } => table[pc as usize & (table.len() - 1)] >= 2,
            Predictor::Gshare { table, history } => {
                let idx = (pc ^ history) as usize & (table.len() - 1);
                table[idx] >= 2
            }
        }
    }

    /// Update with the actual outcome; returns `true` if the prediction
    /// was correct.
    pub fn update(&mut self, pc: u32, taken: bool) -> bool {
        let predicted = self.predict(pc);
        match self {
            Predictor::StaticTaken | Predictor::StaticNotTaken => {}
            Predictor::Bimodal { table } => {
                let idx = pc as usize & (table.len() - 1);
                table[idx] = bump(table[idx], taken);
            }
            Predictor::Gshare { table, history } => {
                let mask = (table.len() - 1) as u32;
                let idx = ((pc ^ *history) & mask) as usize;
                table[idx] = bump(table[idx], taken);
                *history = ((*history << 1) | u32::from(taken)) & mask;
            }
        }
        predicted == taken
    }
}

// By hand so that `clone_from` reuses the table: a replaying core saves
// each thread's predictor into the same copy each time, without
// allocating.
impl Clone for Predictor {
    fn clone(&self) -> Self {
        match self {
            Predictor::StaticTaken => Predictor::StaticTaken,
            Predictor::StaticNotTaken => Predictor::StaticNotTaken,
            Predictor::Bimodal { table } => Predictor::Bimodal {
                table: table.clone(),
            },
            Predictor::Gshare { table, history } => Predictor::Gshare {
                table: table.clone(),
                history: *history,
            },
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Predictor::Bimodal { table }, Predictor::Bimodal { table: from }) => {
                table.clone_from(from);
            }
            (
                Predictor::Gshare { table, history },
                Predictor::Gshare {
                    table: from,
                    history: h,
                },
            ) => {
                table.clone_from(from);
                *history = *h;
            }
            (this, source) => *this = source.clone(),
        }
    }
}

#[inline]
fn bump(counter: u8, taken: bool) -> u8 {
    if taken {
        (counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_predictors() {
        let mut t = Predictor::new(PredictorKind::StaticTaken);
        assert!(t.predict(0));
        assert!(t.update(0, true));
        assert!(!t.update(0, false));
        let n = Predictor::new(PredictorKind::StaticNotTaken);
        assert!(!n.predict(0));
    }

    #[test]
    fn bimodal_learns_a_bias() {
        let mut p = Predictor::new(PredictorKind::Bimodal { bits: 4 });
        for _ in 0..4 {
            p.update(5, true);
        }
        assert!(p.predict(5));
        // saturation: two not-taken flips it back past the hysteresis
        p.update(5, false);
        assert!(p.predict(5), "2-bit hysteresis survives one miss");
        p.update(5, false);
        p.update(5, false);
        assert!(!p.predict(5));
    }

    #[test]
    fn bimodal_slots_are_independent_modulo_aliasing() {
        let mut p = Predictor::new(PredictorKind::Bimodal { bits: 4 });
        for _ in 0..4 {
            p.update(1, true);
            p.update(2, false);
        }
        assert!(p.predict(1));
        assert!(!p.predict(2));
        // aliasing: pc 1 and 17 share a slot in a 16-entry table
        assert_eq!(p.predict(17), p.predict(1));
    }

    #[test]
    fn gshare_learns_alternation_that_bimodal_cannot() {
        // A strictly alternating branch: bimodal hovers at ~50%, gshare
        // keys on history and converges to ~100% after warm-up.
        let run = |mut p: Predictor| -> usize {
            let mut correct = 0;
            for k in 0..400u32 {
                let taken = k % 2 == 0;
                // warm-up: only count the second half
                if p.update(7, taken) && k >= 200 {
                    correct += 1;
                }
            }
            correct
        };
        let g = run(Predictor::new(PredictorKind::Gshare { bits: 6 }));
        let b = run(Predictor::new(PredictorKind::Bimodal { bits: 6 }));
        assert!(g >= 195, "gshare should nail alternation, got {g}/200");
        assert!(b <= 150, "bimodal cannot learn alternation, got {b}/200");
    }

    #[test]
    fn loop_branch_accuracy() {
        // back-edge taken 9 times, then falls through, repeatedly
        let mut p = Predictor::new(PredictorKind::Bimodal { bits: 6 });
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..50 {
            for it in 0..10 {
                let taken = it != 9;
                if p.update(3, taken) {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "loop accuracy {acc}");
    }
}
