//! The abstract backend as it was before stretches, kept as the oracle
//! for a differential property: one round per call, with the clock, the
//! normal time and the RNG read and written through the backend and the
//! ledger on every round, driven by the per-round driver
//! ([`Duplex::run_per_round`]). The property below holds the stretch
//! driver and the stretch loop to it: report (floats by bits), timeline,
//! registry, span and journal bytes.

use super::*;

/// [`Abstract`] with the per-round `execute` it had before stretches.
struct PerRound<'a, 'p>(Abstract<'a, 'p>);

impl PerRound<'_, '_> {
    fn span(&mut self, lane: u32, dur: f64, kind: SpanKind, label: impl FnOnce() -> String) {
        let begin = self.0.clock;
        self.0.span(lane, begin, dur, kind, label);
    }

    fn draw_fault(&mut self, victim: Victim, round_1based: u32) -> bool {
        let a = &mut self.0;
        match a.fm {
            FaultModel::None => false,
            FaultModel::OneShot { round, victim: v } => {
                let fire = !a.oneshot_fired && round == round_1based && v == victim;
                a.oneshot_fired |= fire;
                fire
            }
            FaultModel::PerRound { q }
            | FaultModel::PerRoundWithCrashes { q, .. }
            | FaultModel::Mission { q, .. } => a.rng.gen::<f64>() < q,
        }
    }

    fn classify_corruption(&mut self, victim: Victim) -> bool {
        let a = &mut self.0;
        match a.fm {
            FaultModel::PerRoundWithCrashes { crash_fraction, .. } => {
                if a.rng.gen::<f64>() < crash_fraction {
                    a.crash = Some(victim);
                }
                false
            }
            FaultModel::Mission {
                crash_fraction,
                stop_fraction,
                ..
            } => {
                let r = a.rng.gen::<f64>();
                if r < stop_fraction {
                    true
                } else {
                    if r < stop_fraction + crash_fraction {
                        a.crash = Some(victim);
                    }
                    false
                }
            }
            _ => false,
        }
    }

    fn execute<R: Record>(&mut self, l: &mut Ledger<R>, i: u32) -> Round {
        let p = self.0.cfg.params;
        let start = self.0.clock;
        if self.0.is_smt() {
            let dur = 2.0 * p.alpha * p.t;
            self.span(0, dur, SpanKind::Round, || format!("V1 R{i}"));
            self.span(1, dur, SpanKind::Round, || format!("V2 R{i}"));
            self.0.clock += dur;
        } else {
            self.span(0, p.t, SpanKind::Round, || format!("V1 R{i}"));
            self.0.clock += p.t;
            self.span(0, p.c, SpanKind::ContextSwitch, String::new);
            self.0.clock += p.c;
            self.span(0, p.t, SpanKind::Round, || format!("V2 R{i}"));
            self.0.clock += p.t;
            self.span(0, p.c, SpanKind::ContextSwitch, String::new);
            self.0.clock += p.c;
        }
        let mut stopped = false;
        let mut hit = [false, false];
        for v in [Victim::V1, Victim::V2] {
            if self.draw_fault(v, i) {
                self.0.corrupt[v.index()] = true;
                stopped |= self.classify_corruption(v);
                hit[v.index()] = true;
            }
        }
        self.span(0, p.t_cmp, SpanKind::Compare, || "cmp".to_string());
        self.0.clock += p.t_cmp;
        l.report.time_normal += self.0.clock - start;

        let drawn = u64::from(hit[0]) + u64::from(hit[1]);
        if drawn > 0 {
            let crash = self.0.crash.is_some();
            l.inject(drawn, || {
                let kind = if stopped {
                    "stop"
                } else if crash {
                    "crash"
                } else {
                    "corrupt"
                };
                let victims = match hit {
                    [true, true] => "v1+v2",
                    [true, false] => "v1",
                    _ => "v2",
                };
                format!("{kind}@{victims}")
            });
            l.report.faults_detected += drawn;
        }

        let a = &self.0;
        let verdict = if stopped {
            Verdict::Hang
        } else if a.crash.is_some() {
            Verdict::Trap
        } else if a.corrupt[0] || a.corrupt[1] {
            Verdict::Mismatch
        } else {
            Verdict::Match
        };
        Round {
            verdict,
            time: a.clock,
            digests: None,
            stopped,
        }
    }
}

impl Backend for PerRound<'_, '_> {
    const COMPONENT: &'static str = Abstract::COMPONENT;
    const SPANS: bool = Abstract::SPANS;
    type State = ();

    fn interval(&self) -> u32 {
        self.0.interval()
    }

    fn stop_rule(&self) -> StopRule {
        self.0.stop_rule()
    }

    fn now(&self) -> f64 {
        self.0.now()
    }

    fn execute_until<R: Record>(&mut self, l: &mut Ledger<R>, i: u32, _: u32) -> (u32, Round) {
        (1, self.execute(l, i))
    }

    fn digests<R: Record>(&self, l: &Ledger<R>, i: u32) -> (Digest128, Digest128) {
        self.0.digests(l, i)
    }

    fn sched(&self) -> String {
        self.0.sched()
    }

    fn checkpoint<R: Record>(&mut self, l: &mut Ledger<R>) {
        self.0.checkpoint(l);
    }

    fn recover<R: Record>(&mut self, l: &mut Ledger<R>, i: u32) -> Recovery {
        self.0.recover(l, i)
    }

    fn restore(&mut self) {
        self.0.restore();
    }

    fn state(&self) {}

    fn output_correct(&self, state: &(), committed: u64) -> bool {
        self.0.output_correct(state, committed)
    }

    fn export<R: Record>(&mut self, report: &mut RunReport, rec: &mut R) {
        self.0.export(report, rec);
    }
}

mod tests {
    use super::*;
    use crate::recording::Recording;
    use proptest::prelude::*;
    use vds_obs::Recorder;
    use vds_predictor::predictors::LastOutcome;

    /// One generated run: configuration, fault model, target and seed.
    struct Case {
        cfg: AbstractConfig,
        fm: FaultModel,
        predictor: bool,
        target: u64,
        seed: u64,
    }

    fn unit(rng: &mut TestRng, scale: f64) -> f64 {
        rng.unit_f64() * scale
    }

    fn case(rng: &mut TestRng) -> Case {
        let s = 1 + rng.below(64) as u32;
        let alpha = 0.5 + unit(rng, 0.5);
        let beta = unit(rng, 0.3);
        let scheme = Scheme::ALL[rng.below(Scheme::ALL.len() as u64) as usize];
        let mut cfg = AbstractConfig::new(Params::with_beta(alpha, beta, s), scheme);
        cfg.p_correct = unit(rng, 1.0);
        if rng.below(2) == 0 {
            cfg.checkpoint_cost = unit(rng, 3.0);
            cfg.restore_cost = unit(rng, 3.0);
        }
        cfg.record_timeline = rng.below(2) == 0;
        cfg.max_consecutive_rollbacks = rng.below(6) as u32;
        // at most about two faults per interval: heavier pressure only
        // thrashes until the livelock guard, which the scripted backend in
        // `duplex` covers at a fraction of the cost
        let q = [0.001f64, 0.01, 0.05, 0.15, 0.3][rng.below(5) as usize].min(2.0 / f64::from(s));
        let victim = if rng.below(2) == 0 {
            Victim::V1
        } else {
            Victim::V2
        };
        let fm = match rng.below(5) {
            0 => FaultModel::None,
            1 => FaultModel::OneShot {
                round: 1 + rng.below(u64::from(s)) as u32,
                victim,
            },
            2 => FaultModel::PerRound { q },
            3 => FaultModel::PerRoundWithCrashes {
                q,
                crash_fraction: unit(rng, 1.0),
            },
            _ => FaultModel::Mission {
                q,
                crash_fraction: unit(rng, 0.5),
                stop_fraction: unit(rng, 0.5),
            },
        };
        Case {
            cfg,
            fm,
            predictor: rng.below(2) == 0,
            target: 1 + rng.below(400),
            seed: rng.next_u64(),
        }
    }

    /// Run `c` on the stretch driver (`per_round = false`) or on the
    /// oracle, each with its own fresh predictor when the case has one.
    fn drive<R: Record>(c: &Case, rec: R, per_round: bool) -> (RunReport, R) {
        let mut pred = LastOutcome::default();
        let pred = c.predictor.then_some(&mut pred as &mut dyn FaultPredictor);
        let backend = Abstract::new(&c.cfg, c.fm, c.seed, pred);
        let (report, (), rec) = if per_round {
            Duplex::new(PerRound(backend), rec).run_per_round(c.target)
        } else {
            Duplex::new(backend, rec).run(c.target)
        };
        (report, rec)
    }

    /// The report's floats by bits, then everything else (timeline
    /// included) through its `Debug` rendering.
    fn fingerprint(r: &RunReport) -> (Vec<u64>, String) {
        let floats = [
            r.total_time,
            r.detect_latency_time_sum,
            r.time_normal,
            r.time_recovery,
            r.time_checkpoint,
        ];
        (floats.map(f64::to_bits).to_vec(), format!("{r:?}"))
    }

    fn outputs(rec: &Recorder) -> [String; 3] {
        [
            rec.registry().to_csv(),
            rec.spans().to_chrome_json(),
            rec.journal().to_jsonl(),
        ]
    }

    /// A recorder journaling under the header of `c`'s run.
    fn journaled(c: &Case) -> Recorder {
        let run = Recording::abstract_run(&c.cfg, c.fm, c.seed, c.target).unwrap();
        let mut rec = Recorder::new();
        rec.enable_journal(run.header());
        rec
    }

    proptest! {
        #[test]
        fn stretches_agree_with_the_per_round_driver(seed in any::<u64>()) {
            let c = case(&mut TestRng::new(seed));
            let what = format!(
                "{:?} {:?} s={} target={} seed={} predictor={}",
                c.cfg.scheme, c.fm, c.cfg.params.s, c.target, c.seed, c.predictor
            );
            let (fast, _) = drive(&c, NoopRecorder, false);
            let (slow, _) = drive(&c, NoopRecorder, true);
            prop_assert_eq!(fingerprint(&fast), fingerprint(&slow), "noop: {}", what);

            let (fast_r, fast_rec) = drive(&c, Recorder::new(), false);
            let (slow_r, slow_rec) = drive(&c, Recorder::new(), true);
            prop_assert_eq!(fingerprint(&fast_r), fingerprint(&slow_r), "recorded: {}", what);
            prop_assert_eq!(outputs(&fast_rec), outputs(&slow_rec), "recorded: {}", what);
            prop_assert_eq!(fingerprint(&fast_r), fingerprint(&fast), "recorder changed the run: {}", what);

            // a journaled run takes one round per call, yet reports the same run
            let (jfast_r, jfast_rec) = drive(&c, journaled(&c), false);
            let (jslow_r, jslow_rec) = drive(&c, journaled(&c), true);
            prop_assert_eq!(fingerprint(&jfast_r), fingerprint(&fast), "journaled: {}", what);
            prop_assert_eq!(fingerprint(&jslow_r), fingerprint(&fast), "journaled: {}", what);
            prop_assert_eq!(outputs(&jfast_rec), outputs(&jslow_rec), "journaled: {}", what);
        }
    }

    /// The public entry points ride the stretch driver: `run` equals a
    /// journaled `run_with_recorder` on every scheme and fault class.
    #[test]
    fn run_equals_a_journaled_run() {
        let mission = FaultModel::Mission {
            q: 0.03,
            crash_fraction: 0.3,
            stop_fraction: 0.2,
        };
        for scheme in Scheme::ALL {
            for fm in [FaultModel::None, FaultModel::PerRound { q: 0.05 }, mission] {
                let c = Case {
                    cfg: AbstractConfig::new(Params::paper_default(), scheme),
                    fm,
                    predictor: false,
                    target: 500,
                    seed: 9,
                };
                let plain = run(&c.cfg, fm, c.target, c.seed);
                let (rec_r, _) = run_with_recorder(&c.cfg, fm, c.target, c.seed, journaled(&c));
                assert_eq!(
                    fingerprint(&plain),
                    fingerprint(&rec_r),
                    "{scheme:?} {fm:?}"
                );
            }
        }
    }
}
