//! The execution flight recorder: a deterministic, append-only journal of
//! per-round engine decisions.
//!
//! Every simulated round of a duplex run produces one [`RoundEntry`]:
//! round index, per-version 128-bit state digests, the comparator verdict,
//! the scheduler decision, the recovery action taken and any injected
//! fault. A [`Journal`] is a schema-versioned header plus the entry list,
//! serialised as JSON lines ([`Journal::to_jsonl`] /
//! [`Journal::from_jsonl`]) with the same determinism contract as every
//! other export in this crate: byte-identical for a fixed seed regardless
//! of worker count, provided parallel shards are merged in a fixed order.
//!
//! Two journals of the same run can be compared with
//! [`Journal::first_divergence`], which scans both entry lists once for
//! the first entry whose JSON line would differ and names the field that
//! differs — the primitive behind `vds audit diff`.
//!
//! Reading is one pass per line with no intermediate JSON tree: the
//! `decode` module scans each line straight into typed fields, through a
//! fast path when the line is in the writer's own layout.
//! [`Journal::read_jsonl_tolerant`] reads a file a line at a time, so its
//! text is never held whole.
//!
//! The digest type lives here (rather than in `vds-checkpoint`, which sits
//! higher in the dependency stack) so that every backend can stamp state
//! digests into journal entries; `vds-checkpoint` re-exports it as its
//! `StateDigest`.

use crate::registry::{fmt_f64, json_escaped_len, write_f64, write_json_escaped, Registry};
use std::fmt::{self, Write as _};
use std::io::{self, BufRead};

mod decode;
#[cfg(test)]
mod oracle;

/// Journal schema version; bump when the header or entry layout changes.
/// Readers reject journals with a schema they do not understand.
///
/// v2 added per-fault lifecycle fields (`fault_id`, `fault_outcome`) so
/// forensics reports can attribute detections to individual injections.
pub const JOURNAL_SCHEMA: u32 = 2;

// ---------------------------------------------------------------------------
// 128-bit state digests
// ---------------------------------------------------------------------------

/// A 128-bit state digest (two independent 64-bit halves).
///
/// The VDS state comparison must never report "equal" for different
/// outputs (a false negative masks a fault), so the digest combines FNV-1a
/// with a second, structurally different mix — a corruption would need to
/// collide both 64-bit functions simultaneously to slip through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest128 {
    /// FNV-1a half.
    pub fnv: u64,
    /// Mix half (splitmix-style avalanche over a running state).
    pub mix: u64,
}

impl Digest128 {
    /// Digest of an empty input.
    pub fn empty() -> Self {
        Digester128::new().finish()
    }

    /// Parse the 32-hex-character form produced by [`std::fmt::Display`].
    /// Each 16-character half reads as `u64::from_str_radix(half, 16)`
    /// would: hex digits of either case, optionally after one `+`.
    pub fn parse_hex(s: &str) -> Option<Digest128> {
        /// Nibble value of each byte; 0x80 marks a non-hex byte.
        const NIBBLE: [u8; 256] = {
            let mut t = [0x80u8; 256];
            let mut i = 0;
            while i < 16 {
                t[b"0123456789abcdef"[i] as usize] = i as u8;
                t[b"0123456789ABCDEF"[i] as usize] = i as u8;
                i += 1;
            }
            t
        };
        // eight digits at a time, so the two halves' four words decode
        // as independent chains
        let word = |w: &[u8]| {
            w.iter().fold((0u32, 0u8), |(n, bad), &c| {
                let d = NIBBLE[usize::from(c)];
                (n << 4 | u32::from(d), bad | d)
            })
        };
        let half = |h: &[u8]| match h {
            [b'+', ..] => u64::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok(),
            _ => {
                let ((hi, bad_hi), (lo, bad_lo)) = (word(&h[..8]), word(&h[8..]));
                ((bad_hi | bad_lo) & 0x80 == 0).then_some(u64::from(hi) << 32 | u64::from(lo))
            }
        };
        let b = s.as_bytes();
        if b.len() != 32 {
            return None;
        }
        Some(Digest128 {
            fnv: half(&b[..16])?,
            mix: half(&b[16..])?,
        })
    }
}

impl Digest128 {
    /// The 32 lower-case hex digits of the [`std::fmt::Display`] form:
    /// each half zero-padded to 16 digits, `fnv` first.
    fn hex(&self) -> [u8; 32] {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 32];
        for (i, half) in [self.fnv, self.mix].into_iter().enumerate() {
            for j in 0..16 {
                out[16 * i + j] = DIGITS[(half >> (60 - 4 * j) & 0xf) as usize];
            }
        }
        out
    }
}

impl std::fmt::Display for Digest128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(std::str::from_utf8(&self.hex()).expect("hex digits are ASCII"))
    }
}

/// Incremental [`Digest128`] builder over 32-bit words.
#[derive(Debug, Clone)]
pub struct Digester128 {
    fnv: u64,
    mix: u64,
    count: u64,
}

impl Default for Digester128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Digester128 {
    /// Fresh digester.
    pub fn new() -> Self {
        Digester128 {
            fnv: 0xcbf2_9ce4_8422_2325,
            mix: 0x9E37_79B9_7F4A_7C15,
            count: 0,
        }
    }

    /// Absorb one 32-bit word.
    #[inline]
    pub fn push_word(&mut self, w: u32) {
        self.fnv = Self::fnv_word(self.fnv, w);
        self.mix = Self::mix_word(self.mix, w);
        self.count += 1;
    }

    #[inline(always)]
    fn fnv_word(fnv: u64, w: u32) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let [b0, b1, b2, b3] = w.to_le_bytes();
        let fnv = (fnv ^ u64::from(b0)).wrapping_mul(FNV_PRIME);
        let fnv = (fnv ^ u64::from(b1)).wrapping_mul(FNV_PRIME);
        let fnv = (fnv ^ u64::from(b2)).wrapping_mul(FNV_PRIME);
        (fnv ^ u64::from(b3)).wrapping_mul(FNV_PRIME)
    }

    #[inline(always)]
    fn mix_word(mix: u64, w: u32) -> u64 {
        let mut z = mix ^ (u64::from(w)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z.rotate_left(17) ^ (z >> 31)
    }

    /// Absorb a word slice. Batched: the running state lives in locals
    /// for the whole slice (one load/store pair instead of one per word,
    /// with the per-byte FNV round unrolled), which is where the engines'
    /// per-round window digests spend their time at sweep scale. Digest
    /// values are bit-identical to repeated [`Self::push_word`].
    pub fn push_words(&mut self, ws: &[u32]) {
        let mut fnv = self.fnv;
        let mut mix = self.mix;
        for &w in ws {
            fnv = Self::fnv_word(fnv, w);
            mix = Self::mix_word(mix, w);
        }
        self.fnv = fnv;
        self.mix = mix;
        self.count += ws.len() as u64;
    }

    /// Absorb a byte string (each byte widened to one word, so byte
    /// streams and word streams cannot alias each other by accident).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.push_word(u32::from(b));
        }
    }

    /// Finalise (length-aware, so prefixes don't collide with wholes).
    pub fn finish(&self) -> Digest128 {
        let mut d = self.clone();
        d.push_word(self.count as u32);
        d.push_word((self.count >> 32) as u32);
        Digest128 {
            fnv: d.fnv,
            mix: d.mix,
        }
    }
}

/// One-shot digest of a word slice.
pub fn digest_words128(ws: &[u32]) -> Digest128 {
    let mut d = Digester128::new();
    d.push_words(ws);
    d.finish()
}

// ---------------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------------

/// The comparator's verdict for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Both versions produced identical state digests.
    Match,
    /// The state digests differ: a latent error became detectable.
    Mismatch,
    /// A version trapped (illegal instruction / access) during the round.
    Trap,
    /// A version exceeded its round budget (hang watchdog).
    Hang,
}

impl Verdict {
    /// Canonical lower-case spelling used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Match => "match",
            Verdict::Mismatch => "mismatch",
            Verdict::Trap => "trap",
            Verdict::Hang => "hang",
        }
    }

    /// Inverse of [`Verdict::as_str`].
    pub fn parse(s: &str) -> Option<Verdict> {
        Some(match s {
            "match" => Verdict::Match,
            "mismatch" => Verdict::Mismatch,
            "trap" => Verdict::Trap,
            "hang" => Verdict::Hang,
            _ => return None,
        })
    }
}

/// What the engine did with the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Round committed (digests matched).
    Commit,
    /// Round committed and a checkpoint was taken at the boundary.
    Checkpoint,
    /// Detection triggered recovery; the vote succeeded and the round
    /// (plus any roll-forward progress) was committed.
    Recover,
    /// Detection triggered recovery but the vote failed; state was rolled
    /// back to the last checkpoint.
    Rollback,
    /// The fail-safe stall watchdog shut the system down on this round.
    Shutdown,
}

impl Action {
    /// Canonical lower-case spelling used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Action::Commit => "commit",
            Action::Checkpoint => "checkpoint",
            Action::Recover => "recover",
            Action::Rollback => "rollback",
            Action::Shutdown => "shutdown",
        }
    }

    /// Inverse of [`Action::as_str`].
    pub fn parse(s: &str) -> Option<Action> {
        Some(match s {
            "commit" => Action::Commit,
            "checkpoint" => Action::Checkpoint,
            "recover" => Action::Recover,
            "rollback" => Action::Rollback,
            "shutdown" => Action::Shutdown,
            _ => return None,
        })
    }
}

/// The journal header: enough configuration to re-execute the run
/// (`vds replay`) and to refuse to diff journals of different runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalHeader {
    /// Schema version ([`JOURNAL_SCHEMA`] for journals written here).
    pub schema: u32,
    /// Producing backend: `micro`, `abstract`, `vm`, `campaign`.
    pub backend: String,
    /// Duplex scheme label (e.g. `smt-prob`).
    pub scheme: String,
    /// Root RNG seed of the run.
    pub seed: u64,
    /// Rounds per checkpoint interval (the paper's `s`).
    pub s: u32,
    /// Requested committed rounds (or trials for campaign journals).
    pub target_rounds: u64,
    /// Free-form key/value pairs (fault spec, trial count, …), kept in
    /// insertion order so serialisation is deterministic.
    pub meta: Vec<(String, String)>,
}

impl JournalHeader {
    /// Header for the current schema.
    pub fn new(backend: &str, scheme: &str, seed: u64, s: u32, target_rounds: u64) -> Self {
        JournalHeader {
            schema: JOURNAL_SCHEMA,
            backend: backend.to_string(),
            scheme: scheme.to_string(),
            seed,
            s,
            target_rounds,
            meta: Vec::new(),
        }
    }

    /// Attach a meta key/value pair (builder style).
    pub fn with_meta(mut self, key: &str, value: &str) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Look up a meta value by key.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json_line(&mut Text(&mut line));
        line
    }

    fn write_json_line(&self, out: &mut impl LineSink) {
        out.raw("{\"kind\":\"journal_header\",\"schema\":");
        out.uint(self.schema.into());
        out.raw(",\"backend\":\"");
        out.escaped(&self.backend);
        out.raw("\",\"scheme\":\"");
        out.escaped(&self.scheme);
        out.raw("\",\"seed\":");
        out.uint(self.seed);
        out.raw(",\"s\":");
        out.uint(self.s.into());
        out.raw(",\"target_rounds\":");
        out.uint(self.target_rounds);
        out.raw(",\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            out.raw(if i > 0 { ",\"" } else { "\"" });
            out.escaped(k);
            out.raw("\":\"");
            out.escaped(v);
            out.raw("\"");
        }
        out.raw("}}");
    }
}

/// What a journal line is made of. [`Text`] writes the pieces out;
/// [`Len`] only adds up their lengths, so [`Journal::jsonl_len`] prices
/// a journal without formatting it a second time.
trait LineSink {
    /// Literal text.
    fn raw(&mut self, s: &str);
    /// A decimal integer.
    fn uint(&mut self, n: u64);
    /// A time as [`fmt_f64`] spells it.
    fn time(&mut self, x: f64);
    /// The body of a JSON string literal.
    fn escaped(&mut self, s: &str);
    /// A digest as its 32 hex digits.
    fn digest(&mut self, d: Digest128);
}

/// A [`LineSink`] appending to a string, with no allocation of its own.
/// Integers and digests are spelled by hand: the formatting machinery
/// costs more than the digits.
struct Text<'a>(&'a mut String);

impl LineSink for Text<'_> {
    fn raw(&mut self, s: &str) {
        self.0.push_str(s);
    }
    fn uint(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.0
            .push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
    }
    fn time(&mut self, x: f64) {
        let _ = write_f64(self.0, x);
    }
    fn escaped(&mut self, s: &str) {
        let _ = write_json_escaped(self.0, s);
    }
    fn digest(&mut self, d: Digest128) {
        self.0
            .push_str(std::str::from_utf8(&d.hex()).expect("hex digits are ASCII"));
    }
}

/// A [`LineSink`] that counts bytes. Only times are formatted, into the
/// count; integers, digests and strings are measured.
struct Len(usize);

impl fmt::Write for Len {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl LineSink for Len {
    fn raw(&mut self, s: &str) {
        self.0 += s.len();
    }
    fn uint(&mut self, n: u64) {
        self.0 += n.checked_ilog10().map_or(1, |d| d as usize + 1);
    }
    fn time(&mut self, x: f64) {
        let _ = write_f64(self, x);
    }
    fn escaped(&mut self, s: &str) {
        self.0 += json_escaped_len(s);
    }
    fn digest(&mut self, _: Digest128) {
        self.0 += 32;
    }
}

/// One journal entry: everything the engine decided in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundEntry {
    /// Global sequence number, reassigned on merge so the merged journal
    /// is a single gap-free sequence.
    pub seq: u64,
    /// Lane: campaign trial index; 0 for single-run journals.
    pub lane: u64,
    /// Round index within the current checkpoint interval (1-based).
    pub round: u64,
    /// Total committed rounds after this entry's action.
    pub committed: u64,
    /// Simulated time at the round boundary (cycles or seconds,
    /// backend-dependent).
    pub sim_time: f64,
    /// State digest of version 1 at the comparison point.
    pub d1: Digest128,
    /// State digest of version 2 at the comparison point.
    pub d2: Digest128,
    /// Comparator verdict.
    pub verdict: Verdict,
    /// Scheduler decision for the round (e.g. `coschedule[v0,v1]`).
    pub sched: String,
    /// What the engine did with the round.
    pub action: Action,
    /// Roll-forward rounds salvaged by a successful recovery (0 unless
    /// `action` is `recover`).
    pub rollforward: u32,
    /// Fault injected at this round, canonical spec string, if any.
    pub fault: Option<String>,
    /// Stable per-lane fault ordinal assigned at injection (present iff
    /// `fault` is). The pair `(lane, fault_id)` names one injected fault
    /// for its whole lifecycle: injection → detection → resolution.
    pub fault_id: Option<u64>,
    /// Terminal outcome stamped at end of run for faults that were never
    /// detected: `masked` (corrupted state overwritten before any
    /// comparison saw it) or `escaped` (still latent at run end).
    /// Detected faults carry no outcome — detection is inferred from the
    /// first non-`match` verdict in the lane at or after the injection.
    pub fault_outcome: Option<String>,
}

/// Whether two times render alike under [`fmt_f64`]: equal bits, or
/// both NaN. Unlike IEEE `==`, `0` and `-0` differ and NaN equals NaN.
fn same_time(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

impl RoundEntry {
    fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json_line(&mut Text(&mut line));
        line
    }

    fn write_json_line(&self, out: &mut impl LineSink) {
        out.raw("{\"seq\":");
        out.uint(self.seq);
        out.raw(",\"lane\":");
        out.uint(self.lane);
        out.raw(",\"round\":");
        out.uint(self.round);
        out.raw(",\"committed\":");
        out.uint(self.committed);
        out.raw(",\"sim_time\":");
        out.time(self.sim_time);
        out.raw(",\"d1\":\"");
        out.digest(self.d1);
        out.raw("\",\"d2\":\"");
        out.digest(self.d2);
        out.raw("\",\"verdict\":\"");
        out.raw(self.verdict.as_str());
        out.raw("\",\"sched\":\"");
        out.escaped(&self.sched);
        out.raw("\",\"action\":\"");
        out.raw(self.action.as_str());
        out.raw("\",\"rollforward\":");
        out.uint(self.rollforward.into());
        if let Some(fault) = &self.fault {
            out.raw(",\"fault\":\"");
            out.escaped(fault);
            out.raw("\"");
        }
        if let Some(id) = self.fault_id {
            out.raw(",\"fault_id\":");
            out.uint(id);
        }
        if let Some(outcome) = &self.fault_outcome {
            out.raw(",\"fault_outcome\":\"");
            out.escaped(outcome);
            out.raw("\"");
        }
        out.raw("}");
    }

    /// Whether the two entries serialise to the same JSON line: every
    /// field equal, with `sim_time` compared by [`same_time`].
    fn same_line(&self, other: &RoundEntry) -> bool {
        let RoundEntry {
            seq,
            lane,
            round,
            committed,
            sim_time,
            d1,
            d2,
            verdict,
            sched,
            action,
            rollforward,
            fault,
            fault_id,
            fault_outcome,
        } = self;
        *seq == other.seq
            && *lane == other.lane
            && *round == other.round
            && *committed == other.committed
            && same_time(*sim_time, other.sim_time)
            && *d1 == other.d1
            && *d2 == other.d2
            && *verdict == other.verdict
            && *sched == other.sched
            && *action == other.action
            && *rollforward == other.rollforward
            && *fault == other.fault
            && *fault_id == other.fault_id
            && *fault_outcome == other.fault_outcome
    }

    /// Compare two entries field by field; the first differing field's
    /// name and both rendered values, if any.
    fn first_field_diff(&self, other: &RoundEntry) -> Option<(&'static str, String, String)> {
        if self.lane != other.lane {
            return Some(("lane", self.lane.to_string(), other.lane.to_string()));
        }
        if self.round != other.round {
            return Some(("round", self.round.to_string(), other.round.to_string()));
        }
        if self.committed != other.committed {
            return Some((
                "committed",
                self.committed.to_string(),
                other.committed.to_string(),
            ));
        }
        if !same_time(self.sim_time, other.sim_time) {
            return Some(("sim_time", fmt_f64(self.sim_time), fmt_f64(other.sim_time)));
        }
        if self.d1 != other.d1 {
            return Some((
                "d1 (version 1 digest)",
                self.d1.to_string(),
                other.d1.to_string(),
            ));
        }
        if self.d2 != other.d2 {
            return Some((
                "d2 (version 2 digest)",
                self.d2.to_string(),
                other.d2.to_string(),
            ));
        }
        if self.verdict != other.verdict {
            return Some((
                "verdict",
                self.verdict.as_str().to_string(),
                other.verdict.as_str().to_string(),
            ));
        }
        if self.sched != other.sched {
            return Some(("sched", self.sched.clone(), other.sched.clone()));
        }
        if self.action != other.action {
            return Some((
                "action",
                self.action.as_str().to_string(),
                other.action.as_str().to_string(),
            ));
        }
        if self.rollforward != other.rollforward {
            return Some((
                "rollforward",
                self.rollforward.to_string(),
                other.rollforward.to_string(),
            ));
        }
        if self.fault != other.fault {
            let show = |f: &Option<String>| f.clone().unwrap_or_else(|| "(none)".to_string());
            return Some(("fault", show(&self.fault), show(&other.fault)));
        }
        if self.fault_id != other.fault_id {
            let show = |f: &Option<u64>| {
                f.map(|v| v.to_string())
                    .unwrap_or_else(|| "(none)".to_string())
            };
            return Some(("fault_id", show(&self.fault_id), show(&other.fault_id)));
        }
        if self.fault_outcome != other.fault_outcome {
            let show = |f: &Option<String>| f.clone().unwrap_or_else(|| "(none)".to_string());
            return Some((
                "fault_outcome",
                show(&self.fault_outcome),
                show(&other.fault_outcome),
            ));
        }
        if self.seq != other.seq {
            return Some(("seq", self.seq.to_string(), other.seq.to_string()));
        }
        None
    }
}

/// A divergence report: where two journals first disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Entry index of the first divergent entry (0-based; `usize::MAX`
    /// never occurs — a header mismatch uses index 0 with field `header`).
    pub index: usize,
    /// Lane of the divergent entry (from whichever journal has it).
    pub lane: u64,
    /// Round of the divergent entry.
    pub round: u64,
    /// Name of the first differing field (`header`, `length`, or an entry
    /// field such as `d2 (version 2 digest)`).
    pub field: String,
    /// Rendered value in journal A.
    pub a: String,
    /// Rendered value in journal B.
    pub b: String,
    /// Up to two entries of surrounding context from journal A, rendered
    /// as JSON lines (the divergent entry, if present, is the last-or-
    /// middle line).
    pub context_a: Vec<String>,
    /// Surrounding context from journal B.
    pub context_b: Vec<String>,
}

impl Divergence {
    /// Human-readable multi-line report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "journals diverge at entry {} (lane {}, round {})",
            self.index, self.lane, self.round
        );
        let _ = writeln!(out, "  first differing field: {}", self.field);
        let _ = writeln!(out, "  a: {}", self.a);
        let _ = writeln!(out, "  b: {}", self.b);
        if !self.context_a.is_empty() {
            let _ = writeln!(out, "  context (a):");
            for line in &self.context_a {
                let _ = writeln!(out, "    {line}");
            }
        }
        if !self.context_b.is_empty() {
            let _ = writeln!(out, "  context (b):");
            for line in &self.context_b {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }
}

/// The flight recorder: a header plus an append-only entry list.
///
/// A journal is on exactly when it has a header. One without (the
/// default) ignores pushes, so engines can thread journal recording
/// unconditionally at the cost of one branch per round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    header: Option<JournalHeader>,
    entries: Vec<RoundEntry>,
}

impl Journal {
    /// An empty journal for the described run.
    pub fn enabled(header: JournalHeader) -> Self {
        Journal {
            header: Some(header),
            entries: Vec::new(),
        }
    }

    /// Whether this journal keeps what it is given: whether it has a
    /// header.
    pub fn is_enabled(&self) -> bool {
        self.header.is_some()
    }

    /// The header, if the journal has one.
    pub fn header(&self) -> Option<&JournalHeader> {
        self.header.as_ref()
    }

    /// Append an entry; its `seq` is assigned (entries are gap-free).
    pub fn push(&mut self, mut entry: RoundEntry) {
        if self.is_enabled() {
            entry.seq = self.entries.len() as u64;
            self.entries.push(entry);
        }
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[RoundEntry] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of rounds whose comparator verdict was not `match`.
    pub fn divergences(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.verdict != Verdict::Match)
            .count() as u64
    }

    /// Round index of the most recent non-`match` verdict, if any.
    pub fn last_divergence_round(&self) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.verdict != Verdict::Match)
            .map(|e| e.round)
    }

    /// Move another journal's entries over (lanes preserved, `seq`
    /// reassigned). Merge shards in a fixed order for bit-reproducibility.
    pub fn extend_from(&mut self, other: Journal) {
        for e in other.entries {
            self.push(e);
        }
    }

    /// Stamp the terminal outcome (`masked` / `escaped`) onto the
    /// fault-bearing entry with the given `fault_id`. Called by engines at
    /// end of run, before lane adoption, so the id is lane-agnostic.
    /// Returns whether a matching entry was found.
    pub fn resolve_fault(&mut self, fault_id: u64, outcome: &str) -> bool {
        let mut found = false;
        for e in &mut self.entries {
            if e.fault.is_some() && e.fault_id == Some(fault_id) {
                e.fault_outcome = Some(outcome.to_string());
                found = true;
            }
        }
        found
    }

    /// Move another journal's entries over with every lane overridden (a
    /// campaign adopting a single-run journal as trial `lane`).
    pub fn adopt(&mut self, other: Journal, lane: u64) {
        for mut e in other.entries {
            e.lane = lane;
            self.push(e);
        }
    }

    /// Serialise: one header line, then one line per entry.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut Text(&mut out));
        out
    }

    /// Length in bytes of [`Journal::to_jsonl`], measured without
    /// building the text.
    fn jsonl_len(&self) -> usize {
        let mut n = Len(0);
        self.write_jsonl(&mut n);
        n.0
    }

    fn write_jsonl(&self, out: &mut impl LineSink) {
        if let Some(h) = &self.header {
            h.write_json_line(out);
            out.raw("\n");
        }
        for e in &self.entries {
            e.write_json_line(out);
            out.raw("\n");
        }
    }

    /// Parse a journal back from its JSONL form.
    ///
    /// Blank lines are skipped and every other line is one JSON object:
    /// a header (`"kind":"journal_header"`) or an entry. A `sim_time` may
    /// be `nan`, `inf` or `-inf`, as [`Journal::to_jsonl`] writes
    /// non-finite times. Errors name the offending line, except a schema
    /// refusal, which concerns the whole journal.
    pub fn from_jsonl(text: &str) -> Result<Journal, String> {
        Journal::parse(text, false).map(|(j, _)| j)
    }

    /// [`Journal::from_jsonl`], tolerating a torn final line.
    ///
    /// A kill mid-append leaves exactly one incomplete line at the end
    /// of an otherwise valid JSONL file — the same failure mode the
    /// sweep resume journal truncates away. When the final non-empty
    /// line, and only that line, fails to parse *and* the retained
    /// prefix still carries a header, the tear is dropped and described
    /// in the returned warning; corruption anywhere else (including a
    /// torn header) still fails with the original error.
    pub fn from_jsonl_tolerant(text: &str) -> Result<(Journal, Option<String>), String> {
        Journal::parse(text, true)
    }

    /// [`Journal::from_jsonl_tolerant`] over the file at `path`, read one
    /// line at a time, so its text is never held whole next to the
    /// decoded entries. The journal, warning or parse error is the one
    /// `from_jsonl_tolerant` returns for the same bytes. An I/O error,
    /// including text that is not UTF-8, is the outer error wherever in
    /// the file it occurs, as it is for [`std::fs::read_to_string`].
    pub fn read_jsonl_tolerant(
        path: impl AsRef<std::path::Path>,
    ) -> io::Result<Result<(Journal, Option<String>), String>> {
        let file = std::fs::File::open(path)?;
        // no entry line is shorter than ENTRY_LINE_MIN bytes
        let len = file.metadata().map_or(0, |m| m.len());
        Journal::read_lines(io::BufReader::new(file), len / (ENTRY_LINE_MIN + 1) + 1)
    }

    /// [`Journal::read_jsonl_tolerant`] over any buffered reader, with
    /// room for `capacity` entries reserved up front.
    fn read_lines(
        mut reader: impl BufRead,
        capacity: u64,
    ) -> io::Result<Result<(Journal, Option<String>), String>> {
        let mut lines = LineReader::new(true, capacity);
        let mut line = String::new();
        let mut feeding = true;
        for i in 0.. {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            // past a settled outcome, lines are still read for I/O errors
            feeding = feeding && lines.feed(i, &line);
        }
        Ok(lines.finish())
    }

    fn parse(text: &str, tolerant: bool) -> Result<(Journal, Option<String>), String> {
        // at most one entry per line, so the list never reallocates
        let newlines = text.bytes().filter(|&b| b == b'\n').count();
        let mut lines = LineReader::new(tolerant, newlines as u64 + 1);
        for (i, line) in text.lines().enumerate() {
            if !lines.feed(i, line) {
                break;
            }
        }
        lines.finish()
    }

    /// Find the first entry where the two journals disagree.
    ///
    /// Headers are compared first (field `header`). Entries are then
    /// compared pairwise, field by field, up to the first pair whose JSON
    /// lines would differ: one linear pass that serialises nothing.
    /// Returns `None` when the journals are identical.
    pub fn first_divergence(&self, other: &Journal) -> Option<Divergence> {
        if self.header != other.header {
            let show = |h: &Option<JournalHeader>| match h {
                Some(h) => h.to_json_line(),
                None => "(no header)".to_string(),
            };
            return Some(Divergence {
                index: 0,
                lane: 0,
                round: 0,
                field: "header".to_string(),
                a: show(&self.header),
                b: show(&other.header),
                context_a: Vec::new(),
                context_b: Vec::new(),
            });
        }
        let common = self.entries.len().min(other.entries.len());
        let k = self.entries[..common]
            .iter()
            .zip(&other.entries[..common])
            .position(|(a, b)| !a.same_line(b))
            .unwrap_or(common);
        if k == common {
            if self.entries.len() == other.entries.len() {
                return None;
            }
            // One journal is a strict prefix of the other.
            let (longer, which) = if self.entries.len() > other.entries.len() {
                (&self.entries, "a")
            } else {
                (&other.entries, "b")
            };
            let extra = &longer[common];
            return Some(Divergence {
                index: common,
                lane: extra.lane,
                round: extra.round,
                field: "length".to_string(),
                a: format!(
                    "{} entries (journal {which} has extra entries)",
                    self.entries.len()
                ),
                b: format!("{} entries", other.entries.len()),
                context_a: context_lines(&self.entries, common),
                context_b: context_lines(&other.entries, common),
            });
        }
        let (ea, eb) = (&self.entries[k], &other.entries[k]);
        let (field, a, b) = ea
            .first_field_diff(eb)
            .map(|(f, a, b)| (f.to_string(), a, b))
            .unwrap_or_else(|| ("entry".to_string(), ea.to_json_line(), eb.to_json_line()));
        Some(Divergence {
            index: k,
            lane: ea.lane,
            round: ea.round,
            field,
            a,
            b,
            context_a: context_lines(&self.entries, k),
            context_b: context_lines(&other.entries, k),
        })
    }

    /// Compact summary for `vds stats --json`:
    /// `{"rounds":…,"bytes":…,"divergences":…,"last_divergence":…}`.
    pub fn summary_json(&self) -> String {
        let last = match self.last_divergence_round() {
            Some(r) => r.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"rounds\":{},\"bytes\":{},\"divergences\":{},\"last_divergence\":{last}}}",
            self.len(),
            self.jsonl_len(),
            self.divergences(),
        )
    }

    /// Export journal health into a metrics registry. Call once at the
    /// top level (after shard merging) so counters are not double counted.
    pub fn export_metrics(&self, reg: &mut Registry) {
        if !self.is_enabled() {
            return;
        }
        reg.count("journal.rounds", self.len() as u64);
        reg.count("journal.bytes", self.jsonl_len() as u64);
        reg.count("journal.divergences", self.divergences());
        if let Some(r) = self.last_divergence_round() {
            reg.gauge("journal.last_divergence_round", r as f64);
        }
    }
}

/// Bytes in the shortest entry line any reader accepts: every required
/// key once, both digests at their 32 digits, single-digit numbers, the
/// shortest verdict and action, an empty `sched`. A file of `len` bytes
/// holds at most `len / (ENTRY_LINE_MIN + 1) + 1` entries.
const ENTRY_LINE_MIN: u64 = 197;

/// The journal lines of one text, fed in order: decodes each, keeps the
/// header and entries, and applies the torn-tail rule of
/// [`Journal::from_jsonl_tolerant`] when `tolerant`.
struct LineReader {
    tolerant: bool,
    header: Option<JournalHeader>,
    entries: Vec<RoundEntry>,
    /// The first refused line: its error, its 1-based number, and
    /// whether the refusal fails the journal (so far it is a torn tail
    /// that a later non-empty line would make fatal).
    refused: Option<(String, usize, bool)>,
}

impl LineReader {
    /// A reader with room for `capacity` entries, so the entry list does
    /// not reallocate while no more come; if that much cannot be had, it
    /// grows as entries come.
    fn new(tolerant: bool, capacity: u64) -> LineReader {
        let mut entries = Vec::new();
        let _ = entries.try_reserve_exact(usize::try_from(capacity).unwrap_or(usize::MAX));
        LineReader {
            tolerant,
            header: None,
            entries,
            refused: None,
        }
    }

    /// Feed line `i` (0-based), with or without its line break. `false`
    /// once the outcome is settled and later lines no longer matter.
    fn feed(&mut self, i: usize, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        if let Some((_, _, fatal)) = &mut self.refused {
            // the refused line was not the last one
            *fatal = true;
            return false;
        }
        match decode::line(line, self.header.is_some()) {
            Ok(decode::Line::Header(h)) => self.header = Some(h),
            Ok(decode::Line::Entry(e)) => self.entries.push(e),
            Err(decode::LineError::Journal(err)) => {
                self.refused = Some((err, i + 1, true));
                return false;
            }
            Err(decode::LineError::At(err)) => {
                let fatal = !self.tolerant || self.header.is_none();
                self.refused = Some((format!("line {}: {err}", i + 1), i + 1, fatal));
                return !fatal;
            }
        }
        true
    }

    fn finish(self) -> Result<(Journal, Option<String>), String> {
        let warn = match self.refused {
            Some((err, _, true)) => return Err(err),
            Some((_, line, false)) => Some(format!(
                "dropped torn final journal line {line} ({} entries retained)",
                self.entries.len()
            )),
            None => None,
        };
        let j = Journal {
            header: self.header,
            entries: self.entries,
        };
        Ok((j, warn))
    }
}

/// Up to two rendered entries around index `at` (the entry before, and the
/// entry at `at` when present).
fn context_lines(entries: &[RoundEntry], at: usize) -> Vec<String> {
    let lo = at.saturating_sub(1);
    let hi = (at + 1).min(entries.len());
    entries[lo..hi].iter().map(|e| e.to_json_line()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(round: u64, verdict: Verdict, action: Action) -> RoundEntry {
        RoundEntry {
            seq: 0,
            lane: 0,
            round,
            committed: round,
            sim_time: round as f64 * 10.0,
            d1: digest_words128(&[round as u32, 1]),
            d2: digest_words128(&[round as u32, if verdict == Verdict::Match { 1 } else { 2 }]),
            verdict,
            sched: "coschedule[v0,v1]".to_string(),
            action,
            rollforward: 0,
            fault: None,
            fault_id: None,
            fault_outcome: None,
        }
    }

    fn sample_journal() -> Journal {
        let header = JournalHeader::new("micro", "smt-prob", 2024, 8, 16)
            .with_meta("fault", "transient:mem:4:9@v2");
        let mut j = Journal::enabled(header);
        j.push(entry(1, Verdict::Match, Action::Commit));
        j.push(entry(2, Verdict::Match, Action::Checkpoint));
        let mut e = entry(3, Verdict::Mismatch, Action::Recover);
        e.rollforward = 2;
        e.fault = Some("transient:mem:4:9@v2".to_string());
        e.fault_id = Some(0);
        j.push(e);
        j.push(entry(4, Verdict::Match, Action::Commit));
        j
    }

    #[test]
    fn digester_matches_reference_values() {
        // Pin the algorithm: these values must match vds-checkpoint's
        // historical digests (it now delegates here).
        let d = digest_words128(&[1, 2, 3]);
        let mut inc = Digester128::new();
        inc.push_words(&[1, 2]);
        inc.push_word(3);
        assert_eq!(inc.finish(), d);
        assert_ne!(digest_words128(&[]), digest_words128(&[0]));
        assert_ne!(digest_words128(&[0]), digest_words128(&[0, 0]));
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = digest_words128(&[7, 8, 9]);
        let hex = d.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(Digest128::parse_hex(&hex), Some(d));
        assert_eq!(Digest128::parse_hex("xyz"), None);
        assert_eq!(Digest128::parse_hex(&hex[..31]), None);
    }

    #[test]
    fn parse_hex_reads_each_half_as_from_str_radix_does() {
        let reference = |s: &str| {
            if s.len() != 32 || !s.is_ascii() {
                return None;
            }
            let fnv = u64::from_str_radix(&s[..16], 16).ok()?;
            let mix = u64::from_str_radix(&s[16..], 16).ok()?;
            Some(Digest128 { fnv, mix })
        };
        let hex = digest_words128(&[1, 2, 3]).to_string();
        let mut cases = vec![
            hex.clone(),
            hex.to_uppercase(),
            format!("+{}", &hex[1..]),
            format!("{}+{}", &hex[..16], &hex[17..]),
            format!("-{}", &hex[1..]),
            format!("++{}", &hex[2..]),
            format!("{}é", &hex[..30]),
            hex[..31].to_string(),
            format!("{hex}0"),
            " ".repeat(32),
        ];
        for (i, c) in "gG/:@`+ -é\u{0}".chars().enumerate() {
            let mut t: Vec<char> = hex.chars().collect();
            t[(i * 7) % 32] = c;
            cases.push(t.into_iter().collect());
        }
        for s in &cases {
            assert_eq!(Digest128::parse_hex(s), reference(s), "{s:?}");
        }
    }

    #[test]
    fn a_journal_without_header_ignores_pushes() {
        let mut j = Journal::default();
        j.push(entry(1, Verdict::Match, Action::Commit));
        assert!(j.is_empty());
        assert!(!j.is_enabled());
        assert_eq!(j.to_jsonl(), "");
    }

    #[test]
    fn jsonl_round_trips_losslessly() {
        let j = sample_journal();
        let text = j.to_jsonl();
        let back = Journal::from_jsonl(&text).expect("parse");
        assert_eq!(back.header(), j.header());
        assert_eq!(back.entries(), j.entries());
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn seq_is_gap_free_after_merge() {
        let mut a = sample_journal();
        let b = sample_journal();
        a.adopt(b, 7);
        let seqs: Vec<u64> = a.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
        assert!(a.entries()[4..].iter().all(|e| e.lane == 7));
        assert!(a.entries()[..4].iter().all(|e| e.lane == 0));
    }

    #[test]
    fn divergence_counters() {
        let j = sample_journal();
        assert_eq!(j.divergences(), 1);
        assert_eq!(j.last_divergence_round(), Some(3));
        assert_eq!(
            j.summary_json(),
            format!(
                "{{\"rounds\":4,\"bytes\":{},\"divergences\":1,\"last_divergence\":3}}",
                j.to_jsonl().len()
            )
        );
    }

    #[test]
    fn identical_journals_do_not_diverge() {
        let j = sample_journal();
        assert_eq!(j.first_divergence(&j.clone()), None);
    }

    #[test]
    fn first_divergence_pinpoints_entry_and_field() {
        let a = sample_journal();
        let mut b = sample_journal();
        b.entries[2].d2 = digest_words128(&[999]);
        b.entries[2].verdict = Verdict::Match;
        let d = a.first_divergence(&b).expect("diverges");
        assert_eq!(d.index, 2);
        assert_eq!(d.round, 3);
        assert_eq!(d.field, "d2 (version 2 digest)");
        assert!(!d.context_a.is_empty());
        let report = d.report();
        assert!(report.contains("entry 2"));
        assert!(report.contains("d2"));
    }

    #[test]
    fn strict_prefix_reports_length_divergence() {
        let a = sample_journal();
        let mut b = sample_journal();
        b.entries.pop();
        let d = a.first_divergence(&b).expect("diverges");
        assert_eq!(d.index, 3);
        assert_eq!(d.field, "length");
        assert!(d.a.contains("4 entries"));
        assert!(d.b.contains("3 entries"));
    }

    #[test]
    fn header_mismatch_reported_first() {
        let a = sample_journal();
        let mut b = sample_journal();
        b.header.as_mut().unwrap().seed = 9999;
        b.entries[0].round = 42; // masked by the header divergence
        let d = a.first_divergence(&b).expect("diverges");
        assert_eq!(d.field, "header");
    }

    #[test]
    fn unsupported_schema_rejected() {
        let j = sample_journal();
        let text = j.to_jsonl().replace("\"schema\":2", "\"schema\":99");
        let err = Journal::from_jsonl(&text).unwrap_err();
        assert!(err.contains("schema 99"), "{err}");
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        assert!(Journal::from_jsonl("{\"seq\":0}")
            .unwrap_err()
            .contains("line 1"));
        assert!(Journal::from_jsonl("not json")
            .unwrap_err()
            .contains("line 1"));
    }

    #[test]
    fn tolerant_parse_recovers_only_a_torn_final_line() {
        let j = sample_journal();
        let text = j.to_jsonl();

        // Intact input: no warning, identical journal.
        let (back, warn) = Journal::from_jsonl_tolerant(&text).expect("intact");
        assert!(warn.is_none());
        assert_eq!(back.entries(), j.entries());

        // Torn final line (kill mid-append): drop it, warn, keep the rest.
        let torn = format!("{text}{{\"kind\":\"round\",\"seq\":9");
        let (back, warn) = Journal::from_jsonl_tolerant(&torn).expect("torn tail");
        let warn = warn.expect("warns about the drop");
        assert!(warn.contains("torn final journal line"), "{warn}");
        assert_eq!(back.len(), j.len());
        assert_eq!(back.entries(), j.entries());

        // Corruption before the end is not a tear — original error.
        let lines: Vec<&str> = text.lines().collect();
        let mut mid = lines.clone();
        mid[1] = "not json";
        let err = Journal::from_jsonl_tolerant(&mid.join("\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");

        // A torn header alone is not recoverable either: there is no
        // valid prefix to keep, so the original error surfaces.
        let half_header = &lines[0][..lines[0].len() / 2];
        let err = Journal::from_jsonl_tolerant(half_header).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn entries_before_header_are_refused() {
        // A v1 (or hand-edited) journal whose entries precede any header
        // is unversioned — refuse it rather than guess at its layout.
        let j = sample_journal();
        let text = j.to_jsonl();
        let headerless: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        let err = Journal::from_jsonl(&headerless).unwrap_err();
        assert!(err.contains("entry before header"), "{err}");
        // An empty input still parses (to a headerless, entry-free
        // journal) so callers keep their own "no journal header" wording.
        let empty = Journal::from_jsonl("").expect("empty parses");
        assert!(empty.header().is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn resolve_fault_stamps_outcome_on_the_injecting_entry() {
        let mut j = sample_journal();
        assert!(j.resolve_fault(0, "escaped"));
        assert!(!j.resolve_fault(7, "masked"));
        let e = &j.entries()[2];
        assert_eq!(e.fault_outcome.as_deref(), Some("escaped"));
        assert!(j.entries()[0].fault_outcome.is_none());
        // The stamped outcome survives a serialisation round trip.
        let back = Journal::from_jsonl(&j.to_jsonl()).expect("parse");
        assert_eq!(back.entries(), j.entries());
    }

    #[test]
    fn export_metrics_counts_rounds_bytes_divergences() {
        let j = sample_journal();
        let mut reg = Registry::new();
        j.export_metrics(&mut reg);
        assert_eq!(reg.counter("journal.rounds"), 4);
        assert_eq!(reg.counter("journal.bytes"), j.to_jsonl().len() as u64);
        assert_eq!(reg.counter("journal.divergences"), 1);
        assert_eq!(reg.gauge_value("journal.last_divergence_round"), Some(3.0));
        // a journal without header exports nothing
        let mut reg2 = Registry::new();
        Journal::default().export_metrics(&mut reg2);
        assert!(reg2.is_empty());
    }

    #[test]
    fn meta_lookup_and_builder() {
        let h = JournalHeader::new("micro", "smt-prob", 1, 8, 10)
            .with_meta("fault", "none")
            .with_meta("trials", "5");
        assert_eq!(h.meta("fault"), Some("none"));
        assert_eq!(h.meta("trials"), Some("5"));
        assert_eq!(h.meta("missing"), None);
    }

    #[test]
    fn edge_sim_times_round_trip_and_never_diverge_from_themselves() {
        let times = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324, // the smallest subnormal
            1e300,
        ];
        let mut j = sample_journal();
        for (i, &t) in times.iter().enumerate() {
            let mut e = entry(5 + i as u64, Verdict::Match, Action::Commit);
            e.sim_time = t;
            j.push(e);
        }
        let text = j.to_jsonl();
        assert!(text.contains("\"sim_time\":nan,"), "{text}");
        assert!(text.contains("\"sim_time\":-inf,"), "{text}");
        assert!(text.contains("\"sim_time\":-0,"), "{text}");
        let back = Journal::from_jsonl(&text).expect("the writer's output reads back");
        assert_eq!(back.to_jsonl(), text);
        for (a, b) in j.entries().iter().zip(back.entries()) {
            assert!(
                a.sim_time.to_bits() == b.sim_time.to_bits()
                    || (a.sim_time.is_nan() && b.sim_time.is_nan()),
                "{} read back as {}",
                a.sim_time,
                b.sim_time
            );
        }
        assert_eq!(j.first_divergence(&back), None);
        assert_eq!(back.first_divergence(&j), None);
        // every NaN renders as `nan`, whatever its sign or payload
        let mut negated = back.clone();
        negated.entries[4].sim_time = -f64::NAN;
        assert_eq!(j.first_divergence(&negated), None);
        // -0 and 0 render differently, so they diverge
        let mut zero = back.clone();
        zero.entries[7].sim_time = 0.0;
        assert_eq!(j.first_divergence(&zero).expect("-0 vs 0").index, 7);
        // a NaN time does not hide a later difference
        let mut later = back.clone();
        later.entries[9].d2.fnv ^= 1;
        assert_eq!(j.first_divergence(&later).expect("d2 differs").index, 9);
    }

    #[test]
    fn field_report_compares_times_as_rendered() {
        // NaN on both sides is no difference: the digest that differs is named
        let (mut a, mut b) = (sample_journal(), sample_journal());
        a.entries[1].sim_time = f64::NAN;
        b.entries[1].sim_time = -f64::NAN;
        b.entries[1].d2.mix ^= 1;
        let d = a.first_divergence(&b).expect("d2 differs");
        assert_eq!((d.index, d.field.as_str()), (1, "d2 (version 2 digest)"));
        // 0 and -0 render differently: the time is the field
        let (mut a, mut b) = (sample_journal(), sample_journal());
        a.entries[2].sim_time = 0.0;
        b.entries[2].sim_time = -0.0;
        let d = a.first_divergence(&b).expect("sign differs");
        assert_eq!(
            (d.index, d.field.as_str(), d.a.as_str(), d.b.as_str()),
            (2, "sim_time", "0", "-0")
        );
    }

    #[test]
    fn escaped_strings_round_trip() {
        let header = JournalHeader::new("micro", "smt\"prob\\x", 1, 2, 3)
            .with_meta("note", "line\nbreak\tand \"quotes\"");
        let mut j = Journal::enabled(header);
        let mut e = entry(1, Verdict::Match, Action::Commit);
        e.sched = "alt\\er\"nate".to_string();
        j.push(e);
        let back = Journal::from_jsonl(&j.to_jsonl()).expect("parse");
        assert_eq!(back, j);
    }

    #[test]
    fn entry_line_min_is_the_shortest_entry_line() {
        let mut e = entry(0, Verdict::Hang, Action::Commit);
        e.sim_time = 0.0;
        e.sched.clear();
        let line = e.to_json_line();
        assert_eq!(line.len() as u64, ENTRY_LINE_MIN, "{line}");
        // one character less anywhere is no entry
        for cut in 0..line.len() {
            let short = format!("{}{}", &line[..cut], &line[cut + 1..]);
            let text = format!("{}\n{short}\n", sample_journal().to_jsonl());
            assert!(Journal::from_jsonl(&text).is_err(), "{short}");
        }
    }
}
