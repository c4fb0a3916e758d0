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
//! [`Journal::first_divergence`], which binary-searches cumulative line
//! digests to the first differing entry and names the field that differs —
//! the primitive behind `vds audit diff`.
//!
//! The digest type lives here (rather than in `vds-checkpoint`, which sits
//! higher in the dependency stack) so that every backend can stamp state
//! digests into journal entries; `vds-checkpoint` re-exports it as its
//! `StateDigest`.

use crate::registry::{fmt_f64, json_escape, Registry};
use std::fmt::Write as _;

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
    pub fn parse_hex(s: &str) -> Option<Digest128> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let fnv = u64::from_str_radix(&s[..16], 16).ok()?;
        let mix = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Digest128 { fnv, mix })
    }
}

impl std::fmt::Display for Digest128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.fnv, self.mix)
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
        let mut line = format!(
            "{{\"kind\":\"journal_header\",\"schema\":{},\"backend\":\"{}\",\"scheme\":\"{}\",\"seed\":{},\"s\":{},\"target_rounds\":{},\"meta\":{{",
            self.schema,
            json_escape(&self.backend),
            json_escape(&self.scheme),
            self.seed,
            self.s,
            self.target_rounds,
        );
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        line.push_str("}}");
        line
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

impl RoundEntry {
    fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"seq\":{},\"lane\":{},\"round\":{},\"committed\":{},\"sim_time\":{},\"d1\":\"{}\",\"d2\":\"{}\",\"verdict\":\"{}\",\"sched\":\"{}\",\"action\":\"{}\",\"rollforward\":{}",
            self.seq,
            self.lane,
            self.round,
            self.committed,
            fmt_f64(self.sim_time),
            self.d1,
            self.d2,
            self.verdict.as_str(),
            json_escape(&self.sched),
            self.action.as_str(),
            self.rollforward,
        );
        if let Some(fault) = &self.fault {
            let _ = write!(line, ",\"fault\":\"{}\"", json_escape(fault));
        }
        if let Some(id) = self.fault_id {
            let _ = write!(line, ",\"fault_id\":{id}");
        }
        if let Some(outcome) = &self.fault_outcome {
            let _ = write!(line, ",\"fault_outcome\":\"{}\"", json_escape(outcome));
        }
        line.push('}');
        line
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
        if self.sim_time != other.sim_time {
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
/// A disabled journal (the default) ignores pushes, so engines can thread
/// journal recording unconditionally at the cost of one branch per round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    enabled: bool,
    header: Option<JournalHeader>,
    entries: Vec<RoundEntry>,
}

impl Journal {
    /// A journal that ignores everything.
    pub fn disabled() -> Self {
        Journal::default()
    }

    /// An enabled, empty journal for the described run.
    pub fn enabled(header: JournalHeader) -> Self {
        Journal {
            enabled: true,
            header: Some(header),
            entries: Vec::new(),
        }
    }

    /// Whether this journal keeps what it is given.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The header, if the journal was enabled with one.
    pub fn header(&self) -> Option<&JournalHeader> {
        self.header.as_ref()
    }

    /// Append an entry; its `seq` is assigned (entries are gap-free).
    pub fn push(&mut self, mut entry: RoundEntry) {
        if self.enabled {
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

    /// Append another journal's entries (lanes preserved, `seq`
    /// reassigned). Merge shards in a fixed order for bit-reproducibility.
    pub fn extend_from(&mut self, other: &Journal) {
        if self.enabled {
            for e in &other.entries {
                self.push(e.clone());
            }
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

    /// Append another journal's entries with every lane overridden (a
    /// campaign adopting a single-run journal as trial `lane`).
    pub fn adopt(&mut self, other: &Journal, lane: u64) {
        if self.enabled {
            for e in &other.entries {
                let mut e = e.clone();
                e.lane = lane;
                self.push(e);
            }
        }
    }

    /// Serialise: one header line, then one line per entry.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(h) = &self.header {
            out.push_str(&h.to_json_line());
            out.push('\n');
        }
        for e in &self.entries {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Parse a journal back from its JSONL form.
    pub fn from_jsonl(text: &str) -> Result<Journal, String> {
        let mut header = None;
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let obj = v
                .as_object()
                .ok_or_else(|| format!("line {}: not a JSON object", lineno + 1))?;
            if json::get_str(obj, "kind") == Some("journal_header") {
                let schema = json::get_u64(obj, "schema")
                    .ok_or_else(|| format!("line {}: header missing schema", lineno + 1))?
                    as u32;
                if schema != JOURNAL_SCHEMA {
                    return Err(format!(
                        "unsupported journal schema {schema} (reader supports {JOURNAL_SCHEMA})"
                    ));
                }
                let mut h = JournalHeader::new(
                    json::get_str(obj, "backend").unwrap_or(""),
                    json::get_str(obj, "scheme").unwrap_or(""),
                    json::get_u64(obj, "seed").unwrap_or(0),
                    json::get_u64(obj, "s").unwrap_or(0) as u32,
                    json::get_u64(obj, "target_rounds").unwrap_or(0),
                );
                if let Some(json::Json::Obj(meta)) = json::get(obj, "meta") {
                    for (k, v) in meta {
                        if let json::Json::Str(s) = v {
                            h.meta.push((k.clone(), s.clone()));
                        }
                    }
                }
                header = Some(h);
                continue;
            }
            if header.is_none() {
                return Err(format!(
                    "line {}: journal entry before header (unversioned journals are refused; re-record with schema {JOURNAL_SCHEMA})",
                    lineno + 1
                ));
            }
            let field_err =
                |name: &str| format!("line {}: missing or malformed `{name}`", lineno + 1);
            let digest = |name: &str| -> Result<Digest128, String> {
                json::get_str(obj, name)
                    .and_then(Digest128::parse_hex)
                    .ok_or_else(|| field_err(name))
            };
            entries.push(RoundEntry {
                seq: json::get_u64(obj, "seq").ok_or_else(|| field_err("seq"))?,
                lane: json::get_u64(obj, "lane").ok_or_else(|| field_err("lane"))?,
                round: json::get_u64(obj, "round").ok_or_else(|| field_err("round"))?,
                committed: json::get_u64(obj, "committed").ok_or_else(|| field_err("committed"))?,
                sim_time: json::get_f64(obj, "sim_time").ok_or_else(|| field_err("sim_time"))?,
                d1: digest("d1")?,
                d2: digest("d2")?,
                verdict: json::get_str(obj, "verdict")
                    .and_then(Verdict::parse)
                    .ok_or_else(|| field_err("verdict"))?,
                sched: json::get_str(obj, "sched")
                    .ok_or_else(|| field_err("sched"))?
                    .to_string(),
                action: json::get_str(obj, "action")
                    .and_then(Action::parse)
                    .ok_or_else(|| field_err("action"))?,
                rollforward: json::get_u64(obj, "rollforward")
                    .ok_or_else(|| field_err("rollforward"))? as u32,
                fault: json::get_str(obj, "fault").map(str::to_string),
                fault_id: json::get_u64(obj, "fault_id"),
                fault_outcome: json::get_str(obj, "fault_outcome").map(str::to_string),
            });
        }
        Ok(Journal {
            enabled: true,
            header,
            entries,
        })
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
        let err = match Journal::from_jsonl(text) {
            Ok(j) => return Ok((j, None)),
            Err(e) => e,
        };
        let lines: Vec<&str> = text.lines().collect();
        let Some(last) = lines.iter().rposition(|l| !l.trim().is_empty()) else {
            return Err(err);
        };
        if !err.starts_with(&format!("line {}:", last + 1)) {
            return Err(err);
        }
        let retained = lines[..last].join("\n");
        let j = Journal::from_jsonl(&retained).map_err(|_| err.clone())?;
        if j.header.is_none() {
            return Err(err);
        }
        let warn = format!(
            "dropped torn final journal line {} ({} entries retained)",
            last + 1,
            j.len()
        );
        Ok((j, Some(warn)))
    }

    /// Find the first entry where the two journals disagree.
    ///
    /// Headers are compared first (field `header`). Entry comparison
    /// binary-searches over cumulative per-line digests — `O(n)` digest
    /// precomputation, then `O(log n)` probes — so the search cost is
    /// dominated by one pass over each journal, not by repeated prefix
    /// comparisons. Returns `None` when the journals are identical.
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
        // Cumulative digests: cum[k] covers the first k serialised lines,
        // making "prefixes of length k agree" an O(1) probe.
        let cumulative = |j: &Journal| -> Vec<Digest128> {
            let mut cum = Vec::with_capacity(common + 1);
            let mut d = Digester128::new();
            cum.push(d.finish());
            for e in &j.entries[..common] {
                d.push_bytes(e.to_json_line().as_bytes());
                cum.push(d.finish());
            }
            cum
        };
        let (ca, cb) = (cumulative(self), cumulative(other));
        // Largest k in [0, common] with equal prefixes.
        let (mut lo, mut hi) = (0usize, common);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if ca[mid] == cb[mid] {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let k = lo;
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

    /// Compact summary for `/journal`, `/progress` and `vds stats --json`:
    /// `{"rounds":…,"bytes":…,"divergences":…,"last_divergence":…}`.
    pub fn summary_json(&self) -> String {
        let last = match self.last_divergence_round() {
            Some(r) => r.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"rounds\":{},\"bytes\":{},\"divergences\":{},\"last_divergence\":{last}}}",
            self.len(),
            self.to_jsonl().len(),
            self.divergences(),
        )
    }

    /// Export journal health into a metrics registry. Call once at the
    /// top level (after shard merging) so counters are not double counted.
    pub fn export_metrics(&self, reg: &mut Registry) {
        if !self.enabled {
            return;
        }
        reg.count("journal.rounds", self.len() as u64);
        reg.count("journal.bytes", self.to_jsonl().len() as u64);
        reg.count("journal.divergences", self.divergences());
        if let Some(r) = self.last_divergence_round() {
            reg.gauge("journal.last_divergence_round", r as f64);
        }
    }
}

/// Up to two rendered entries around index `at` (the entry before, and the
/// entry at `at` when present).
fn context_lines(entries: &[RoundEntry], at: usize) -> Vec<String> {
    let lo = at.saturating_sub(1);
    let hi = (at + 1).min(entries.len());
    entries[lo..hi].iter().map(|e| e.to_json_line()).collect()
}

/// A minimal JSON reader for the journal's own output: objects, strings,
/// numbers, booleans and null (arrays are not produced by the writer and
/// are rejected). Numbers keep their raw spelling so 64-bit integers
/// round-trip exactly.
mod json {
    /// Parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number, raw token preserved.
        Num(String),
        /// A string, unescaped.
        Str(String),
        /// An object, insertion order preserved.
        Obj(Vec<(String, Json)>),
    }

    pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn get_str<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a str> {
        match get(obj, key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    pub fn get_u64(obj: &[(String, Json)], key: &str) -> Option<u64> {
        match get(obj, key) {
            Some(Json::Num(raw)) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn get_f64(obj: &[(String, Json)], key: &str) -> Option<f64> {
        match get(obj, key) {
            Some(Json::Num(raw)) => raw.parse().ok(),
            _ => None,
        }
    }

    impl Json {
        pub fn as_object(&self) -> Option<&[(String, Json)]> {
            match self {
                Json::Obj(fields) => Some(fields),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => parse_object(b, pos),
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b'n') => parse_lit(b, pos, "null", Json::Null),
            Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
            Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf8".to_string())?;
        if raw.parse::<f64>().is_err() {
            return Err(format!("bad number `{raw}` at byte {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        debug_assert_eq!(b[*pos], b'"');
        *pos += 1;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint \\u{hex}"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad utf8".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        debug_assert_eq!(b[*pos], b'{');
        *pos += 1;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {}", *pos));
            }
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected `:` at byte {}", *pos));
            }
            *pos += 1;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => {
                    *pos += 1;
                }
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
            }
        }
    }
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
    fn disabled_journal_ignores_pushes() {
        let mut j = Journal::disabled();
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
        a.adopt(&b, 7);
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
        // disabled journals export nothing
        let mut reg2 = Registry::new();
        Journal::disabled().export_metrics(&mut reg2);
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
}
