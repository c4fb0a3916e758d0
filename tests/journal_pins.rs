//! Byte pins for the flight-recorder journals of all three duplex
//! backends.
//!
//! Each case runs one engine with an enabled journal and pins three
//! Digest128 values: one over the full JSONL bytes of the journal
//! (header plus every round entry), one over the `Debug` rendering of the
//! run report, and one over the recorder's event trace, span set and
//! metric registry. Together they freeze the protocol's observable
//! behaviour — verdicts, actions, roll-forward rounds, committed counts,
//! simulated times, fault ids and fault outcomes, plus every obs event
//! name, field and order — so any refactor of the engines must reproduce
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
use vds::core::abstract_vds::{self, AbstractConfig};
use vds::core::micro_vds::{run_micro_with_recorder, MicroConfig, MicroFault};
use vds::core::vm_vds::{run_vm_duplex_with_recorder, VmConfig, VmFault};
use vds::core::{FaultModel, RunReport, Scheme, Victim};
use vds::fault::model::{FaultKind, FaultSite};
use vds::fault::vm::VmFaultSite;
use vds::obs::{Digester128, Journal, JournalHeader, Recorder};

fn digest(text: &str) -> String {
    let mut d = Digester128::new();
    d.push_bytes(text.as_bytes());
    d.finish().to_string()
}

/// `[journal, report, obs]` digests of one run.
type Fingerprint = [String; 3];

fn fingerprint(report: &RunReport, rec: &Recorder) -> Fingerprint {
    let obs = format!(
        "{}{}{}",
        rec.trace().to_jsonl(),
        rec.spans().to_chrome_json(),
        rec.registry().to_csv()
    );
    [
        digest(&rec.journal().to_jsonl()),
        digest(&format!("{report:?}")),
        digest(&obs),
    ]
}

fn journaled(header: JournalHeader) -> Recorder {
    let mut rec = Recorder::new();
    rec.enable_journal(header);
    rec
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

fn abstract_case(cfg: &AbstractConfig, fm: FaultModel, rounds: u64, seed: u64) -> Fingerprint {
    let rec = journaled(JournalHeader::new(
        "abstract",
        cfg.scheme.name(),
        seed,
        cfg.params.s,
        rounds,
    ));
    let (r, rec) = abstract_vds::run_with_recorder(cfg, fm, rounds, seed, rec);
    fingerprint(&r, &rec)
}

fn abstract_cases() -> Vec<(String, Fingerprint)> {
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

fn micro_cases() -> Vec<(String, Fingerprint)> {
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
            let cfg = MicroConfig::new(scheme, 10);
            let rounds = 24;
            let rec = journaled(JournalHeader::new(
                "micro",
                scheme.name(),
                cfg.seed,
                cfg.s,
                rounds,
            ));
            let (r, _, rec) = run_micro_with_recorder(&cfg, Some(fault), rounds, rec);
            out.push((
                format!("micro/{}/{tag}", scheme.name()),
                fingerprint(&r, &rec),
            ));
        }
    }
    out
}

fn vm_cases() -> Vec<(String, Fingerprint)> {
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
            let mut cfg = VmConfig::new(program);
            cfg.scheme = scheme;
            let rounds = 20;
            let rec = journaled(
                JournalHeader::new("vm", scheme.name(), cfg.seed, cfg.s, rounds)
                    .with_meta("program", program),
            );
            let (r, _, rec) = run_vm_duplex_with_recorder(&cfg, Some(fault), rounds, rec);
            out.push((
                format!("vm/{}/{program}", scheme.name()),
                fingerprint(&r, &rec),
            ));
        }
    }
    out
}

/// One case per line: name, then the journal, report and obs digests.
const PINS: &str = "\
abstract/conventional/per-round 3451b0d2143dacdd8db9c3fd6ec86098 90a544870b5d372a3cf634930578443e 2a22ed85e2b34c3ad59e8b9237d6fec7
abstract/conventional/mission a680c0e998ab2549ea9dad9583728c3e 149b538b49d5b127106ada6bfe30298e 0b69260c95d817aeea0dc47307cf3f52
abstract/smt-det/per-round c6b7c662f46b2d08a2055973f33f2e34 2b935c971dc5b4afcd7ca302f61f8ff4 3096ebaf568e03b566867cc1ad151152
abstract/smt-det/mission 7f0c4acddc675e1f1c43be5fee2e06e2 b3f8535c1ab0b1feec96976ee01c0d65 2804f4556132330fbda3517c07281b93
abstract/smt-prob/per-round 5a69f7b27ede6591085a907129a9f1ca 459487d9288ef8bad04e0a2cd9daa7e7 4c1feb93e00bc19dbdd7b315b825d5a8
abstract/smt-prob/mission 2a84bb11fe49d0e763760248dc1d83eb d4ef67ad2213ca1912654d14d053acf8 349129e001cb2a92a55cb66e184329ed
abstract/smt-pred/per-round bccca784b78c6b3a54ccab2760d93e1e 1163b5f3ae31a3bb6af3e1ff6ce314e8 beb0a2a79739bc5809f550fa9d946ec1
abstract/smt-pred/mission fcfef19afd4f189f3e4cd0a62d4bc5f1 1bbfb6c20b1729409b174eb7a5da0703 9cd3f899165ed48f3c6555e1d156c2d0
abstract/smt-boost3/per-round 3b891f1a856daaefa04a151f81bb6595 bc69bebb19f6ef4fcb8112966b060aff fb700a04928facd31d21a7cb762f03d8
abstract/smt-boost3/mission 2d9c7a9db405014be15973153a00518e c95c8a3d8d1b2d6c5487f711fd4b909e 36b598d1b235f889e423b2081343e680
abstract/smt-boost5/per-round 370f6af6801c2ad473c4b712d4813392 f87a6d934698c4fd4b460a856222f9ef e9f65e9ceafe19408587fd6f049a5b9a
abstract/smt-boost5/mission ad57aab0065aed9cf1406e28c22e265d c74db31feba9440af5aecd0bcbb380d8 512441685ad31e99b0163127d4db0c8d
abstract/conventional/rollback-shutdown 2afd433d809db178ba5181e1d6f32759 8b88e2405b84c3b1dc4fa515d889696d b7b2893acf60a6d1e7610c58c43860a1
abstract/conventional/stop-shutdown 82b8781c41b0e864303dcdd10c891296 9a7cb35c6c2cdcf9ba545e143ffaf8a6 b6a05a4f9dfc187c7fbc23bc0e35904a
micro/conventional/mem 2f641ce9048c2c668bda0752b0984622 0a29cfe08ffb17e2b151586266880d3a 7e1a4a57b13bf7512bc3e44cae8d2502
micro/conventional/crash a8d836fc7091f4f2cfebe9c53746f94d c1d8d03912cbf5c8c59b53e98c2b99d6 37c1d998f273508dcb5b8b44d4e26a33
micro/smt-det/mem e184f564110dfabaec5d23113419e5ba ecc72f42cca6a64a5d0e988e9b14671c da655e1e96570a7672508b9b1c055ad0
micro/smt-det/crash 4402d0e5c6b7ec5682c69030dcb6d7ce c1f7790c938ecf2ddc47e2c7a23e0e86 d11b85ca5f6cb806618f6dea7ff8f211
micro/smt-prob/mem d6b3687e4cb0b37f5607c4d8530e46b9 d9ac8fdc26d6efcce5c226e9874545a8 ca6485c6ff2ee9552a64f71d2290d387
micro/smt-prob/crash fffee188cdc8ebab61b2fca263158648 5ea279cac8b24bb22247a8b12719ecff 462fe823ed940418ed7df05bcc6c33e9
micro/smt-pred/mem dca44f7bee9166787a3e924f2add6e21 6c32f3290e849206fb28b10b4d748601 d39cefdefd6844c14acba3b039bd67bd
micro/smt-pred/crash 7cb9925a4db01d43150e0777e7162521 bc25e941aef39abfafe501a02917bdf2 17b9c2b838a13565833da8463a0e1c28
micro/smt-boost3/mem 91b085e8392ada0e7a86bf55378b5a32 a8cb4686ed30e0f91323b238bfa411cb d0fb6d73e87be9f187e79defa14eff20
micro/smt-boost3/crash 8bd4f9de7d37d89214b147e56783e86e 26f207ba86fe4f7035a9f46f790ed6c1 5001be713a57f592c95c34cd24a0770f
vm/conventional/checksum cd3d50c95e40c6de734f8db5e32604a5 2ffb27e36d3c1ee1c2dbc58e265ece9b 4d98d0e8aa0276daea891c69f2e55cd2
vm/conventional/sort f86a06e77c6c0386a30f4d1477a6e374 a7ae52d77890084f187633bddf8b424c 4e76cc564a27a02c7a4cb63e0f4529d7
vm/conventional/matmul 7f8e6a80cb7ee84281ab4b9816bb6f8f 83239df80c8ef8b17d1f901e297213e7 4a59c6130dd11236fc5844cbb9a60a6c
vm/conventional/strhash 0fee397643ec6669fc7212edf1e465ec e207dd8a36256b6a611686e63f8a625c aba7dd89f16e23dea9c95c4dc55b02a4
vm/smt-det/checksum 3dc2f2a122843654fe3ed4a16386ecbe f730c4e4ed8e4d0f8a2721b1de5c4f8c c85aa1126f6a53a409be3abce354ce80
vm/smt-det/sort fe21d2cd99ccba486aa057dc03a10fbb 571b4bcf7ce063033745c472c86abdbb e03c538cdf38c6a56bb4e31b393d1107
vm/smt-det/matmul e44db10d1179c12bd2758d710fd5c6cd e3da9a1c73bb4109523c1f181a1e0c08 213d413ea386c3b495c2b29537a55170
vm/smt-det/strhash 95a6e277f1f93bda82a12b23ade04998 bba848b7cf42a946a71ba0647d7bbfa7 32bebb61d807f0c271f909f7e2c1fd42
";

fn line(name: &str, [j, r, o]: &Fingerprint) -> String {
    format!("{name} {j} {r} {o}")
}

fn check(actual: Vec<(String, Fingerprint)>) {
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
    let cfg = AbstractConfig::new(Params::paper_default(), Scheme::SmtProbabilistic);
    let header = || JournalHeader::new("abstract", "smt-prob", 11, 20, 300);
    let (_, rec) = abstract_vds::run_with_recorder(&cfg, MISSION, 300, 11, journaled(header()));
    collect(rec.journal());
    let mut c = AbstractConfig::new(Params::paper_default(), Scheme::Conventional);
    c.max_consecutive_rollbacks = 3;
    let (r, rec) = abstract_vds::run_with_recorder(
        &c,
        FaultModel::PerRound { q: 0.9 },
        10_000,
        23,
        journaled(header()),
    );
    assert!(r.shutdown);
    collect(rec.journal());
    let mut vm = VmConfig::new("matmul");
    vm.scheme = Scheme::Conventional;
    let pad = VmFault {
        at_round: 2,
        victim: Victim::V1,
        site: VmFaultSite::Mem {
            addr: (vds_vm::DMEM_WORDS - 2) as u8,
            bit: 3,
        },
    };
    let (_, _, rec) = run_vm_duplex_with_recorder(
        &vm,
        Some(pad),
        20,
        journaled(JournalHeader::new("vm", "conventional", vm.seed, vm.s, 20)),
    );
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
