//! The predictor zoo.

use rand::rngs::SmallRng;
use rand::Rng as _;

/// Which of the two active versions is suspected/actually faulty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suspect {
    /// Version 1.
    V1,
    /// Version 2.
    V2,
}

impl Suspect {
    /// The other version.
    pub fn other(self) -> Suspect {
        match self {
            Suspect::V1 => Suspect::V2,
            Suspect::V2 => Suspect::V1,
        }
    }

    /// 0 for V1, 1 for V2.
    pub fn index(self) -> usize {
        match self {
            Suspect::V1 => 0,
            Suspect::V2 => 1,
        }
    }
}

/// A fault-version predictor. `predict` is consulted when a state
/// mismatch is detected; `update` is called after the majority vote
/// reveals the truth.
pub trait FaultPredictor {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Which version do we believe is faulty?
    fn predict(&mut self) -> Suspect;

    /// Learn the vote's verdict.
    fn update(&mut self, actual: Suspect);
}

/// Uniform random guessing — the paper's p = ½ baseline ("our choice can
/// be random, so that the probability to choose the correct version is
/// 0.5").
pub struct RandomGuess {
    rng: SmallRng,
}

impl RandomGuess {
    /// Seeded constructor (determinism everywhere).
    pub fn new(rng: SmallRng) -> Self {
        RandomGuess { rng }
    }
}

impl FaultPredictor for RandomGuess {
    fn name(&self) -> &'static str {
        "random"
    }

    fn predict(&mut self) -> Suspect {
        if self.rng.gen() {
            Suspect::V1
        } else {
            Suspect::V2
        }
    }

    fn update(&mut self, _actual: Suspect) {}
}

/// Predict whichever version was faulty last time.
#[derive(Debug, Clone)]
pub struct LastOutcome {
    last: Suspect,
}

impl Default for LastOutcome {
    fn default() -> Self {
        LastOutcome { last: Suspect::V1 }
    }
}

impl FaultPredictor for LastOutcome {
    fn name(&self) -> &'static str {
        "last-outcome"
    }

    fn predict(&mut self) -> Suspect {
        self.last
    }

    fn update(&mut self, actual: Suspect) {
        self.last = actual;
    }
}

/// A 2-bit saturating counter over {strongly V1, weakly V1, weakly V2,
/// strongly V2} — the bimodal branch predictor transplanted to faults.
#[derive(Debug, Clone)]
pub struct SaturatingCounter {
    /// 0,1 → predict V1; 2,3 → predict V2.
    state: u8,
}

impl Default for SaturatingCounter {
    fn default() -> Self {
        SaturatingCounter { state: 1 }
    }
}

impl FaultPredictor for SaturatingCounter {
    fn name(&self) -> &'static str {
        "saturating-counter"
    }

    fn predict(&mut self) -> Suspect {
        if self.state >= 2 {
            Suspect::V2
        } else {
            Suspect::V1
        }
    }

    fn update(&mut self, actual: Suspect) {
        match actual {
            Suspect::V2 => self.state = (self.state + 1).min(3),
            Suspect::V1 => self.state = self.state.saturating_sub(1),
        }
    }
}

/// Two-level adaptive: the last `bits` outcomes index a table of 2-bit
/// counters (a gshare with no PC — there is only one "branch": which
/// version fails). Learns periodic patterns that defeat the counter.
#[derive(Debug, Clone)]
pub struct TwoLevel {
    history: usize,
    mask: usize,
    table: Vec<u8>,
}

impl TwoLevel {
    /// `bits` history bits → a `2^bits`-entry counter table.
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits));
        TwoLevel {
            history: 0,
            mask: (1 << bits) - 1,
            table: vec![1; 1 << bits],
        }
    }
}

impl FaultPredictor for TwoLevel {
    fn name(&self) -> &'static str {
        "two-level"
    }

    fn predict(&mut self) -> Suspect {
        if self.table[self.history] >= 2 {
            Suspect::V2
        } else {
            Suspect::V1
        }
    }

    fn update(&mut self, actual: Suspect) {
        let e = &mut self.table[self.history];
        match actual {
            Suspect::V2 => *e = (*e + 1).min(3),
            Suspect::V1 => *e = e.saturating_sub(1),
        }
        self.history = ((self.history << 1) | actual.index()) & self.mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn suspect_other_and_index() {
        assert_eq!(Suspect::V1.other(), Suspect::V2);
        assert_eq!(Suspect::V2.other(), Suspect::V1);
        assert_eq!(Suspect::V1.index(), 0);
        assert_eq!(Suspect::V2.index(), 1);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut p = RandomGuess::new(SmallRng::seed_from_u64(1));
        let v1 = (0..10_000).filter(|_| p.predict() == Suspect::V1).count();
        assert!((4_700..5_300).contains(&v1), "v1={v1}");
    }

    #[test]
    fn last_outcome_tracks() {
        let mut p = LastOutcome::default();
        p.update(Suspect::V2);
        assert_eq!(p.predict(), Suspect::V2);
        p.update(Suspect::V1);
        assert_eq!(p.predict(), Suspect::V1);
    }

    #[test]
    fn counter_has_hysteresis() {
        let mut p = SaturatingCounter::default();
        p.update(Suspect::V2);
        p.update(Suspect::V2);
        p.update(Suspect::V2);
        assert_eq!(p.predict(), Suspect::V2);
        p.update(Suspect::V1); // one contrary outcome
        assert_eq!(p.predict(), Suspect::V2, "hysteresis holds");
        p.update(Suspect::V1);
        p.update(Suspect::V1);
        assert_eq!(p.predict(), Suspect::V1);
    }

    #[test]
    fn two_level_learns_alternation() {
        let mut p = TwoLevel::new(4);
        let mut correct = 0;
        for k in 0..200 {
            let actual = if k % 2 == 0 { Suspect::V1 } else { Suspect::V2 };
            if p.predict() == actual && k >= 100 {
                correct += 1;
            }
            p.update(actual);
        }
        assert!(
            correct >= 95,
            "two-level alternation accuracy {correct}/100"
        );
    }
}
