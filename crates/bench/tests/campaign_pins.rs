//! Byte pins for the journaled campaign recording path: the one `vds
//! campaign --journal` and the `benchmark/` campaigns drive.
//!
//! `tests/journal_pins.rs` pins single engine runs. A campaign adds the
//! per-trial recorder, the registry merge, the lane adoption of every
//! trial journal, the shard merge, the span rollups and the journal
//! pricing (`journal.*`, conformance and `faults.*` forensics) on top.
//! Each case runs a 24-trial journaled campaign and pins three
//! Digest128 values: the journal JSONL bytes, the merged registry CSV
//! and the `Debug` rendering of the `CampaignReport`. Every case runs
//! at one and two workers, and both must match the same pins.
//!
//! On a deliberate behaviour change, the failure message lists every
//! case's current values in table form for regeneration.

use vds_core::recording::{
    campaign_journal_header_for, campaign_trial_for, vm_campaign_journal_header_for,
    vm_campaign_trial_for,
};
use vds_core::Scheme;
use vds_fault::campaign::run_campaign_journaled;
use vds_obs::Digester128;

const TRIALS: u64 = 24;
const SEED: u64 = 1;
const ROUNDS: u64 = 40;

fn digest(text: &str) -> String {
    let mut d = Digester128::new();
    d.push_bytes(text.as_bytes());
    d.finish().to_string()
}

/// `name journal registry report` for one campaign run.
fn pin_line(name: &str, report: &impl std::fmt::Debug, rec: &vds_obs::Recorder) -> String {
    format!(
        "{name} {} {} {}",
        digest(&rec.journal().to_jsonl()),
        digest(&rec.registry().to_csv()),
        digest(&format!("{report:?}")),
    )
}

fn micro_case(workers: usize) -> String {
    let scheme = Scheme::SmtProbabilistic;
    let header = campaign_journal_header_for(scheme, TRIALS, SEED, ROUNDS);
    let (report, rec) =
        run_campaign_journaled("serve", TRIALS, workers, None, &header, |i, rec| {
            campaign_trial_for(scheme, i, SEED, ROUNDS, rec)
        });
    pin_line("micro/smt-prob", &report, &rec)
}

fn vm_case(workers: usize) -> String {
    let scheme = Scheme::SmtDeterministic;
    let header = vm_campaign_journal_header_for("checksum", scheme, TRIALS, SEED, ROUNDS);
    let (report, rec) =
        run_campaign_journaled("serve", TRIALS, workers, None, &header, |i, rec| {
            vm_campaign_trial_for("checksum", scheme, i, SEED, ROUNDS, rec)
        });
    pin_line("vm/smt-det/checksum", &report, &rec)
}

/// One case per line: name, then the journal, registry and report
/// digests.
const PINS: &str = "\
micro/smt-prob c00a189af729f2077dcd0add84da212c 665b4d06bbe5273487a6c1d7de7a4e67 eb2c602d1350712509c555fabdc6ef45
vm/smt-det/checksum c5bee95e54d1cc5d5b97ebca35f988fd 1be4589d0a27617b64819d1833c3b265 fd567487418ef7943b0c371569e77724
";

fn check(run: fn(usize) -> String) {
    for workers in [1, 2] {
        let got = run(workers);
        let name = got.split(' ').next().unwrap_or_default();
        let want = PINS.lines().find(|l| l.split(' ').next() == Some(name));
        assert_eq!(
            want,
            Some(got.as_str()),
            "campaign pin drifted at {workers} worker(s); current value:\n{got}"
        );
    }
}

#[test]
fn micro_campaign_recording_matches_its_pins() {
    check(micro_case);
}

#[test]
fn vm_campaign_recording_matches_its_pins() {
    check(vm_case);
}
