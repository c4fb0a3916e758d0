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
abstract/conventional/per-round 3451b0d2143dacdd8db9c3fd6ec86098 90a544870b5d372a3cf634930578443e db54ba4642add80cd0c318540637cc4a
abstract/conventional/mission a680c0e998ab2549ea9dad9583728c3e 149b538b49d5b127106ada6bfe30298e 8687e2cbcf12125a2505015ddf98cd76
abstract/smt-det/per-round c6b7c662f46b2d08a2055973f33f2e34 2b935c971dc5b4afcd7ca302f61f8ff4 7f66e41cb0c3b2a9926ab42a2498497c
abstract/smt-det/mission 7f0c4acddc675e1f1c43be5fee2e06e2 b3f8535c1ab0b1feec96976ee01c0d65 24cd555e1e2b8ddd57b5bbd91c56f018
abstract/smt-prob/per-round 5a69f7b27ede6591085a907129a9f1ca 459487d9288ef8bad04e0a2cd9daa7e7 a424d127967507221b9f63ab4d578ead
abstract/smt-prob/mission 2a84bb11fe49d0e763760248dc1d83eb d4ef67ad2213ca1912654d14d053acf8 6ef6539e9b74cc86e2dc9614fbaf1171
abstract/smt-pred/per-round bccca784b78c6b3a54ccab2760d93e1e 1163b5f3ae31a3bb6af3e1ff6ce314e8 69b121c6be1f1b7410ef553fa2039db2
abstract/smt-pred/mission fcfef19afd4f189f3e4cd0a62d4bc5f1 1bbfb6c20b1729409b174eb7a5da0703 24aeb68716d10441790873459c119088
abstract/smt-boost3/per-round 3b891f1a856daaefa04a151f81bb6595 bc69bebb19f6ef4fcb8112966b060aff a900b79080b72d4f69d6ce2d4cb3715b
abstract/smt-boost3/mission 2d9c7a9db405014be15973153a00518e c95c8a3d8d1b2d6c5487f711fd4b909e 657ecf94c772e0bac3dfe8bd29ed71cf
abstract/smt-boost5/per-round 370f6af6801c2ad473c4b712d4813392 f87a6d934698c4fd4b460a856222f9ef f3f1c245f8f8abf8af29e3afc4d0f849
abstract/smt-boost5/mission ad57aab0065aed9cf1406e28c22e265d c74db31feba9440af5aecd0bcbb380d8 c8ff4f17df79d87c2f28df368155e7e6
abstract/conventional/rollback-shutdown 2afd433d809db178ba5181e1d6f32759 8b88e2405b84c3b1dc4fa515d889696d 118340be73172b2f95096e35a631488f
abstract/conventional/stop-shutdown 82b8781c41b0e864303dcdd10c891296 9a7cb35c6c2cdcf9ba545e143ffaf8a6 4655825a080c808716d8165230a8d223
micro/conventional/mem 2f641ce9048c2c668bda0752b0984622 0a29cfe08ffb17e2b151586266880d3a 83ffcce115efa1c36509c99f567582ce
micro/conventional/crash a8d836fc7091f4f2cfebe9c53746f94d c1d8d03912cbf5c8c59b53e98c2b99d6 ca28f4a6db007bbe5096b1d5db457345
micro/smt-det/mem e184f564110dfabaec5d23113419e5ba ecc72f42cca6a64a5d0e988e9b14671c 06eb838426c0c89248c6bc981fec192c
micro/smt-det/crash 4402d0e5c6b7ec5682c69030dcb6d7ce c1f7790c938ecf2ddc47e2c7a23e0e86 6045ff697b742c0f68c1be6872ec25d0
micro/smt-prob/mem d6b3687e4cb0b37f5607c4d8530e46b9 d9ac8fdc26d6efcce5c226e9874545a8 d2d452decc53f9a3b71a6bef830d9823
micro/smt-prob/crash fffee188cdc8ebab61b2fca263158648 5ea279cac8b24bb22247a8b12719ecff 7559390b9369f184854cf8c21c78175c
micro/smt-pred/mem dca44f7bee9166787a3e924f2add6e21 6c32f3290e849206fb28b10b4d748601 a44ee0df6e8a02d64ff75995243aa065
micro/smt-pred/crash 7cb9925a4db01d43150e0777e7162521 bc25e941aef39abfafe501a02917bdf2 411406add05776b1c85bbfec63daad3d
micro/smt-boost3/mem 91b085e8392ada0e7a86bf55378b5a32 a8cb4686ed30e0f91323b238bfa411cb ee247aeff36e9ccf7bd98c6d6bc06b5d
micro/smt-boost3/crash 8bd4f9de7d37d89214b147e56783e86e 26f207ba86fe4f7035a9f46f790ed6c1 25118e814d5c7dd7f6dfc3a60e2723c4
vm/conventional/checksum cd3d50c95e40c6de734f8db5e32604a5 2ffb27e36d3c1ee1c2dbc58e265ece9b dcee6eaf51f116e850c3bd46aab4ff75
vm/conventional/sort f86a06e77c6c0386a30f4d1477a6e374 a7ae52d77890084f187633bddf8b424c 42ab4fe47d37bf198e299870c17884bf
vm/conventional/matmul 7f8e6a80cb7ee84281ab4b9816bb6f8f 83239df80c8ef8b17d1f901e297213e7 11a337fc5803306f5c89cf063c1d7047
vm/conventional/strhash 0fee397643ec6669fc7212edf1e465ec e207dd8a36256b6a611686e63f8a625c bc0b6afce6b4a601c567e79f3ed86e5b
vm/smt-det/checksum 3dc2f2a122843654fe3ed4a16386ecbe f730c4e4ed8e4d0f8a2721b1de5c4f8c 425c868a0406c394eeddda34d8c8691d
vm/smt-det/sort fe21d2cd99ccba486aa057dc03a10fbb 571b4bcf7ce063033745c472c86abdbb e8ea91012e94e32ae6e1a77cf8c7b53d
vm/smt-det/matmul e44db10d1179c12bd2758d710fd5c6cd e3da9a1c73bb4109523c1f181a1e0c08 f56ba3b9cd915886edf93b035b5fbc7e
vm/smt-det/strhash 95a6e277f1f93bda82a12b23ade04998 bba848b7cf42a946a71ba0647d7bbfa7 9bf62da72ad6a80bc669900c1bd7345a
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
