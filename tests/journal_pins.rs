//! Byte pins for the flight-recorder journals of all three duplex
//! backends.
//!
//! Each case runs one engine with an enabled journal and pins three
//! Digest128 values: one over the full JSONL bytes of the journal
//! (header plus every round entry), one over the `Debug` rendering of the
//! run report, and one over the recorder's span set (Chrome trace bytes)
//! and metric registry (CSV bytes). Together they freeze the protocol's
//! observable behaviour — verdicts, actions, roll-forward rounds,
//! committed counts, simulated times, fault ids and fault outcomes, plus
//! every span and metric — so any refactor of the engines must reproduce
//! them exactly. Every case checks all three digests.
//!
//! The cases cover every protocol edge: recovery with and without
//! roll-forward progress, rollback, processor stop, fail-safe shutdown
//! (consecutive-rollback and stop-storm), trap and hang evidence, masked
//! and escaped end-of-run verdicts.
//!
//! Known quirk, pinned on purpose: the VM backend labels every journal
//! entry `coschedule[v1,v2]`, even under the conventional scheme where
//! the two variants run serially.
//!
//! On a deliberate behaviour change, the failure message lists every
//! case's current values in table form for regeneration.

use vds::analytic::Params;
use vds::core::abstract_vds::AbstractConfig;
use vds::core::micro_vds::MicroFault;
use vds::core::recording::{Outcome, Recording, RunParams};
use vds::core::vm_vds::{VmConfig, VmFault};
use vds::core::{FaultModel, RunReport, Scheme, Victim, DEFAULT_SEED};
use vds::fault::model::{FaultKind, FaultSite};
use vds::fault::vm::VmFaultSite;
use vds::obs::{Digester128, Journal, Recorder};

fn digest(text: &str) -> String {
    let mut d = Digester128::new();
    d.push_bytes(text.as_bytes());
    d.finish().to_string()
}

/// One pinned run, by name.
type Case = (String, Recording);

/// `[journal, report, obs]` digests of one run.
type Fingerprint = [String; 3];

/// Record `run` as `vds` does: journaled under its own header.
fn recorded(run: &Recording) -> (RunReport, Recorder) {
    match run.record(Recorder::new(), 1) {
        (Outcome::Run(report, _), rec) => (report, rec),
        (Outcome::Campaign(_), _) => unreachable!("every pinned case is a single run"),
    }
}

fn fingerprint(run: &Recording) -> Fingerprint {
    let (report, rec) = recorded(run);
    let obs = format!(
        "{}{}",
        rec.spans().to_chrome_json(),
        rec.registry().to_csv()
    );
    [
        digest(&rec.journal().to_jsonl()),
        digest(&format!("{report:?}")),
        digest(&obs),
    ]
}

const ABSTRACT_SCHEMES: [Scheme; 6] = [
    Scheme::Conventional,
    Scheme::SmtDeterministic,
    Scheme::SmtProbabilistic,
    Scheme::SmtPredictive,
    Scheme::SmtBoosted3,
    Scheme::SmtBoosted5,
];

const MISSION: FaultModel = FaultModel::Mission {
    q: 0.05,
    crash_fraction: 0.2,
    stop_fraction: 0.3,
};

fn abstract_case(cfg: &AbstractConfig, fm: FaultModel, rounds: u64, seed: u64) -> Recording {
    Recording::abstract_run(cfg, fm, seed, rounds).expect("paper-form params")
}

fn abstract_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for scheme in ABSTRACT_SCHEMES {
        let cfg = AbstractConfig::new(Params::paper_default(), scheme);
        out.push((
            format!("abstract/{}/per-round", scheme.name()),
            abstract_case(&cfg, FaultModel::PerRound { q: 0.05 }, 300, 11),
        ));
        out.push((
            format!("abstract/{}/mission", scheme.name()),
            abstract_case(&cfg, MISSION, 300, 11),
        ));
    }
    // the two fail-safe shutdown paths: a rollback storm and a stop storm
    let mut c = AbstractConfig::new(Params::paper_default(), Scheme::Conventional);
    c.max_consecutive_rollbacks = 3;
    out.push((
        "abstract/conventional/rollback-shutdown".to_string(),
        abstract_case(&c, FaultModel::PerRound { q: 0.9 }, 10_000, 23),
    ));
    c.max_consecutive_rollbacks = 4;
    let storm = FaultModel::Mission {
        q: 0.95,
        crash_fraction: 0.0,
        stop_fraction: 1.0,
    };
    out.push((
        "abstract/conventional/stop-shutdown".to_string(),
        abstract_case(&c, storm, 1_000, 37),
    ));
    out
}

const MICRO_SCHEMES: [Scheme; 5] = [
    Scheme::Conventional,
    Scheme::SmtDeterministic,
    Scheme::SmtProbabilistic,
    Scheme::SmtPredictive,
    Scheme::SmtBoosted3,
];

fn micro_cases() -> Vec<Case> {
    let faults = [
        (
            "mem",
            MicroFault {
                at_round: 6,
                victim: Victim::V2,
                kind: FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 7 }),
            },
        ),
        (
            "crash",
            MicroFault {
                at_round: 5,
                victim: Victim::V1,
                kind: FaultKind::CrashVersion,
            },
        ),
    ];
    let mut out = Vec::new();
    for scheme in MICRO_SCHEMES {
        for (tag, fault) in faults {
            let p = RunParams {
                scheme,
                seed: DEFAULT_SEED,
                s: 10,
                rounds: 24,
            };
            out.push((
                format!("micro/{}/{tag}", scheme.name()),
                Recording::Micro(p, Some(fault)),
            ));
        }
    }
    out
}

fn vm_cases() -> Vec<Case> {
    // one fault per seed program, covering every site class: a live
    // register (same-round detection), the pc, dead padding memory (an
    // escape stamped at end of run) and a literal-pool word
    let faults = [
        (
            "checksum",
            VmFault {
                at_round: 3,
                victim: Victim::V2,
                site: VmFaultSite::Reg { index: 1, bit: 5 },
            },
        ),
        (
            "sort",
            VmFault {
                at_round: 4,
                victim: Victim::V1,
                site: VmFaultSite::Pc { bit: 9 },
            },
        ),
        (
            "matmul",
            VmFault {
                at_round: 2,
                victim: Victim::V1,
                site: VmFaultSite::Mem {
                    addr: (vds_vm::DMEM_WORDS - 2) as u8,
                    bit: 3,
                },
            },
        ),
        (
            "strhash",
            VmFault {
                at_round: 5,
                victim: Victim::V1,
                site: VmFaultSite::Lit { index: 2, bit: 11 },
            },
        ),
    ];
    let mut out = Vec::new();
    for scheme in [Scheme::Conventional, Scheme::SmtDeterministic] {
        for (program, fault) in faults {
            let cfg = VmConfig::new(program);
            let p = RunParams {
                scheme,
                seed: cfg.seed,
                s: cfg.s,
                rounds: 20,
            };
            out.push((
                format!("vm/{}/{program}", scheme.name()),
                Recording::Vm(p, program.to_string(), Some(fault)),
            ));
        }
    }
    out
}

fn all_cases() -> Vec<Case> {
    [abstract_cases(), micro_cases(), vm_cases()].concat()
}

/// One case per line: name, then the journal, report and obs digests.
const PINS: &str = "\
abstract/conventional/per-round 71e21347f1c00f12095514d3a3d617d4 90a544870b5d372a3cf634930578443e db54ba4642add80cd0c318540637cc4a
abstract/conventional/mission 3f3797420c27de91c050c68389ac7c76 149b538b49d5b127106ada6bfe30298e 8687e2cbcf12125a2505015ddf98cd76
abstract/smt-det/per-round badba08453dd2bc3d6cccc4cb0347a22 2b935c971dc5b4afcd7ca302f61f8ff4 7f66e41cb0c3b2a9926ab42a2498497c
abstract/smt-det/mission 5e1903b850d419b02344ab8e6a759a31 b3f8535c1ab0b1feec96976ee01c0d65 24cd555e1e2b8ddd57b5bbd91c56f018
abstract/smt-prob/per-round 7bb1084af3e49d46b9ceaa031b7ad3c9 459487d9288ef8bad04e0a2cd9daa7e7 a424d127967507221b9f63ab4d578ead
abstract/smt-prob/mission 61791d816274915fd641900a4c20d9cc d4ef67ad2213ca1912654d14d053acf8 6ef6539e9b74cc86e2dc9614fbaf1171
abstract/smt-pred/per-round 38f659b2ad297dd19c32856d3ef72a05 1163b5f3ae31a3bb6af3e1ff6ce314e8 69b121c6be1f1b7410ef553fa2039db2
abstract/smt-pred/mission b47a9e7420de3affebb26fbbab8db77e 1bbfb6c20b1729409b174eb7a5da0703 24aeb68716d10441790873459c119088
abstract/smt-boost3/per-round ae9298f07bb63a54ee305644dd8e08bf bc69bebb19f6ef4fcb8112966b060aff a900b79080b72d4f69d6ce2d4cb3715b
abstract/smt-boost3/mission 5805d3bfaeb1157359a99ce132a4723c c95c8a3d8d1b2d6c5487f711fd4b909e 657ecf94c772e0bac3dfe8bd29ed71cf
abstract/smt-boost5/per-round d526db5d9f45a327a1806f514a932103 f87a6d934698c4fd4b460a856222f9ef f3f1c245f8f8abf8af29e3afc4d0f849
abstract/smt-boost5/mission e8929ad08e349c248042a8fad677691c c74db31feba9440af5aecd0bcbb380d8 c8ff4f17df79d87c2f28df368155e7e6
abstract/conventional/rollback-shutdown 70abbff7269ad77def0eccd793022228 8b88e2405b84c3b1dc4fa515d889696d 118340be73172b2f95096e35a631488f
abstract/conventional/stop-shutdown c0289648161fe0cad1a94c097e2ad2a0 9a7cb35c6c2cdcf9ba545e143ffaf8a6 4655825a080c808716d8165230a8d223
micro/conventional/mem 6b5e219c41cbcdc722fc9c0a8f2e4ef5 0a29cfe08ffb17e2b151586266880d3a 83ffcce115efa1c36509c99f567582ce
micro/conventional/crash ddbe58314b28483c20119cdf44f86f93 c1d8d03912cbf5c8c59b53e98c2b99d6 ca28f4a6db007bbe5096b1d5db457345
micro/smt-det/mem 4a6ce1d4c0ed6659ce565eba76e29f0f ecc72f42cca6a64a5d0e988e9b14671c 06eb838426c0c89248c6bc981fec192c
micro/smt-det/crash d2ebdf2883783b3ab53ceeb68d804e6d c1f7790c938ecf2ddc47e2c7a23e0e86 6045ff697b742c0f68c1be6872ec25d0
micro/smt-prob/mem d20f20b6ddf47e0e898399e4b905f8ff d9ac8fdc26d6efcce5c226e9874545a8 d2d452decc53f9a3b71a6bef830d9823
micro/smt-prob/crash cf01e472238193c5fdd47dd40a53ddc0 5ea279cac8b24bb22247a8b12719ecff 7559390b9369f184854cf8c21c78175c
micro/smt-pred/mem 7555ba0e2d1709e15ff43bbe8c01c119 6c32f3290e849206fb28b10b4d748601 a44ee0df6e8a02d64ff75995243aa065
micro/smt-pred/crash 8572b40a9c2681d4d04bf62c2657963c bc25e941aef39abfafe501a02917bdf2 411406add05776b1c85bbfec63daad3d
micro/smt-boost3/mem 9bdf5b8b202458d90330b17e85fdb7d8 a8cb4686ed30e0f91323b238bfa411cb ee247aeff36e9ccf7bd98c6d6bc06b5d
micro/smt-boost3/crash b9c5da0f4b1d5a757e95f376d775077a 26f207ba86fe4f7035a9f46f790ed6c1 25118e814d5c7dd7f6dfc3a60e2723c4
vm/conventional/checksum f9518d7cd80e74d73ea36537093849f0 2ffb27e36d3c1ee1c2dbc58e265ece9b dcee6eaf51f116e850c3bd46aab4ff75
vm/conventional/sort ed5dfcbda2fb201e55347e2b8ab94ba7 a7ae52d77890084f187633bddf8b424c 42ab4fe47d37bf198e299870c17884bf
vm/conventional/matmul 13f34584bdc46ae277c76809da8e6fff 83239df80c8ef8b17d1f901e297213e7 11a337fc5803306f5c89cf063c1d7047
vm/conventional/strhash bd379df56ee3be375355138260f1bf6c e207dd8a36256b6a611686e63f8a625c bc0b6afce6b4a601c567e79f3ed86e5b
vm/smt-det/checksum 77adf9da6deac5fe11412a9749d901b8 f730c4e4ed8e4d0f8a2721b1de5c4f8c 425c868a0406c394eeddda34d8c8691d
vm/smt-det/sort 7577ec4e418557910ff96c0dbb3a9fdf 571b4bcf7ce063033745c472c86abdbb e8ea91012e94e32ae6e1a77cf8c7b53d
vm/smt-det/matmul d53a8c59bd157f737238f0308bc9f634 e3da9a1c73bb4109523c1f181a1e0c08 f56ba3b9cd915886edf93b035b5fbc7e
vm/smt-det/strhash e4930ad3dd9f3cc90c14d2ec52865bb7 bba848b7cf42a946a71ba0647d7bbfa7 9bf62da72ad6a80bc669900c1bd7345a
";

fn line(name: &str, [j, r, o]: &Fingerprint) -> String {
    format!("{name} {j} {r} {o}")
}

fn check(cases: Vec<Case>) {
    let actual: Vec<(String, Fingerprint)> = cases
        .into_iter()
        .map(|(name, run)| (name, fingerprint(&run)))
        .collect();
    let pinned: Vec<Vec<&str>> = PINS.lines().map(|l| l.split(' ').collect()).collect();
    let bad: Vec<&str> = actual
        .iter()
        .filter(|(name, got)| {
            let got = line(name, got);
            let got: Vec<&str> = got.split(' ').collect();
            let want = pinned.iter().find(|w| w[0] == got[0]);
            want.is_none_or(|w| *w != got)
        })
        .map(|(name, _)| name.as_str())
        .collect();
    if !bad.is_empty() {
        let table: Vec<String> = actual.iter().map(|(n, f)| line(n, f)).collect();
        panic!(
            "journal pins drifted for {bad:?}; current values:\n{}",
            table.join("\n")
        );
    }
}

#[test]
fn abstract_journals_match_their_pins() {
    check(abstract_cases());
}

#[test]
fn micro_journals_match_their_pins() {
    check(micro_cases());
}

#[test]
fn vm_journals_match_their_pins() {
    check(vm_cases());
}

/// Every pinned journal replays: the run its header describes records
/// the same bytes, so a `vds replay` of any pinned journal re-runs it
/// with its fault model, its fault and its non-default config.
#[test]
fn every_pinned_journal_replays_from_its_header() {
    for (name, run) in all_cases() {
        let (_, rec) = recorded(&run);
        let journal = rec.journal();
        let replay = Recording::from_header(journal.header().expect("journaled"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (_, again) = recorded(&replay);
        assert_eq!(again.journal().to_jsonl(), journal.to_jsonl(), "{name}");
    }
}

/// The pinned cases really exercise the protocol edges they claim to.
#[test]
fn pinned_cases_cover_every_protocol_edge() {
    use vds::obs::{Action, Verdict};
    let mut actions = Vec::new();
    let mut verdicts = Vec::new();
    let mut outcomes = Vec::new();
    let mut collect = |j: &Journal| {
        for e in j.entries() {
            actions.push(e.action);
            verdicts.push(e.verdict);
            if let Some(o) = &e.fault_outcome {
                outcomes.push(o.clone());
            }
        }
    };
    let cases = all_cases();
    let run = |name: &str| recorded(&cases.iter().find(|(n, _)| n == name).unwrap().1);
    let (_, rec) = run("abstract/smt-prob/mission");
    collect(rec.journal());
    let (r, rec) = run("abstract/conventional/rollback-shutdown");
    assert!(r.shutdown);
    collect(rec.journal());
    let (_, rec) = run("vm/conventional/matmul");
    collect(rec.journal());
    // the conventional VM duplex still journals the co-schedule label
    assert!(rec
        .journal()
        .entries()
        .iter()
        .all(|e| e.sched == "coschedule[v1,v2]"));
    for a in [
        Action::Commit,
        Action::Checkpoint,
        Action::Recover,
        Action::Rollback,
        Action::Shutdown,
    ] {
        assert!(actions.contains(&a), "no {a:?} entry");
    }
    for v in [
        Verdict::Match,
        Verdict::Mismatch,
        Verdict::Trap,
        Verdict::Hang,
    ] {
        assert!(verdicts.contains(&v), "no {v:?} entry");
    }
    assert!(outcomes.iter().any(|o| o == "escaped"), "{outcomes:?}");
}
