//! The journal line decoder: one pass over a JSON line straight into a
//! typed [`JournalHeader`] or [`RoundEntry`].
//!
//! It has two tiers. The first, [`canonical_entry`], reads an entry line
//! laid out byte for byte as the writer lays it out: the eleven required
//! keys in writer order with no whitespace, then `fault`, `fault_id` and
//! `fault_outcome` in that order if present, then `}` at the end of the
//! line. It matches the keys as literals and converts each value in
//! place. At the first byte that deviates from that layout it gives up
//! and returns `None`: a `\` in a string, whitespace, a reordered,
//! duplicated or unknown key, an empty or overflowing integer, a
//! non-finite time, trailing bytes. The line then goes to the second
//! tier, the general scanner. The contract between the two is *same
//! result or no result*: every entry the first tier returns equals the
//! general scanner's entry for that line, so the first tier never
//! produces an error, and every error message and byte offset is the
//! general scanner's. Entries before any header always take the general
//! path.
//!
//! The general scanner walks each line once and builds no tree. Keys are
//! matched against the journal's field names and the first occurrence of
//! each key fills its slot, as a first-match lookup over a parsed object
//! would. Unknown keys and their values, nested objects included, are
//! validated and skipped. Strings borrow from the line unless they
//! contain a `\` escape, numbers stay raw slices until a slot reads them
//! as `u64` or `f64`, and digests, verdicts and actions decode from the
//! borrowed slice. Error messages and byte offsets are those of a
//! conventional recursive-descent JSON parser, so every malformed line is
//! reported the same way it always was.

use super::{Action, Digest128, JournalHeader, RoundEntry, Verdict, JOURNAL_SCHEMA};
use std::borrow::Cow;

/// One decoded journal line.
pub(super) enum Line {
    Header(JournalHeader),
    Entry(RoundEntry),
}

/// Why a line was refused.
pub(super) enum LineError {
    /// A defect of this line; the caller prefixes `line N: `.
    At(String),
    /// The whole journal is unreadable (an unsupported schema).
    Journal(String),
}

/// Decode one trimmed, non-empty line. `have_header` says whether an
/// earlier line was a header: entries before any header are refused.
pub(super) fn line(text: &str, have_header: bool) -> Result<Line, LineError> {
    if have_header {
        if let Some(e) = canonical_entry(text) {
            return Ok(Line::Entry(e));
        }
    }
    scan(text, have_header)
}

/// The entry on a line in the writer's own layout, or `None` at the
/// first deviation from it. When it returns an entry, [`scan`] returns
/// the same one.
pub(super) fn canonical_entry(text: &str) -> Option<RoundEntry> {
    let mut c = Canon { s: text, pos: 0 };
    c.lit(b"{\"seq\":")?;
    let seq = c.uint()?;
    c.lit(b",\"lane\":")?;
    let lane = c.uint()?;
    c.lit(b",\"round\":")?;
    let round = c.uint()?;
    c.lit(b",\"committed\":")?;
    let committed = c.uint()?;
    c.lit(b",\"sim_time\":")?;
    let sim_time = c.time()?;
    c.lit(b",\"d1\":\"")?;
    let d1 = Digest128::parse_hex(c.str()?)?;
    c.lit(b",\"d2\":\"")?;
    let d2 = Digest128::parse_hex(c.str()?)?;
    c.lit(b",\"verdict\":\"")?;
    let verdict = Verdict::parse(c.str()?)?;
    c.lit(b",\"sched\":\"")?;
    let sched = c.str()?;
    c.lit(b",\"action\":\"")?;
    let action = Action::parse(c.str()?)?;
    c.lit(b",\"rollforward\":")?;
    let rollforward = c.uint()? as u32;
    let fault = match c.lit(b",\"fault\":\"") {
        Some(()) => Some(c.str()?.to_string()),
        None => None,
    };
    let fault_id = match c.lit(b",\"fault_id\":") {
        Some(()) => Some(c.uint()?),
        None => None,
    };
    let fault_outcome = match c.lit(b",\"fault_outcome\":\"") {
        Some(()) => Some(c.str()?.to_string()),
        None => None,
    };
    c.lit(b"}")?;
    (c.pos == text.len()).then(|| RoundEntry {
        seq,
        lane,
        round,
        committed,
        sim_time,
        d1,
        d2,
        verdict,
        sched: sched.to_string(),
        action,
        rollforward,
        fault,
        fault_id,
        fault_outcome,
    })
}

/// A cursor for [`canonical_entry`]. Each read returns `None` where the
/// line leaves the writer's layout; only an optional field's
/// [`Canon::lit`] is tried again after that, and it has not moved then.
struct Canon<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Canon<'a> {
    /// The literal `lit`, consumed only if it is all there.
    #[inline(always)]
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        let end = self.pos + lit.len();
        (self.s.as_bytes().get(self.pos..end)? == lit).then(|| self.pos = end)
    }

    /// Plain digits, read as [`u64_of`] reads a number token. The byte
    /// after them is the next literal's, so it is never part of the
    /// token the general scanner would see.
    #[inline(always)]
    fn uint(&mut self) -> Option<u64> {
        let b = self.s.as_bytes();
        let start = self.pos;
        while b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        digits_u64(&b[start..self.pos])
    }

    /// A number token as the general scanner delimits it, read as
    /// [`f64_of`] reads it: up to 15 plain digits are below 2^53 and
    /// convert exactly, anything else goes through `str::parse`. The
    /// token must start as the scanner's numbers do, which also leaves
    /// out the non-finite spellings.
    #[inline(always)]
    fn time(&mut self) -> Option<f64> {
        let b = self.s.as_bytes();
        let start = self.pos;
        let mut digits_only = true;
        while let Some(&c @ (b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) = b.get(self.pos) {
            digits_only &= c.is_ascii_digit();
            self.pos += 1;
        }
        let raw = &b[start..self.pos];
        if !matches!(raw.first(), Some(b'0'..=b'9' | b'-')) {
            return None;
        }
        if digits_only && raw.len() <= 15 {
            return digits_u64(raw).map(|n| n as f64);
        }
        self.s[start..self.pos].parse().ok()
    }

    /// The body of a string whose opening `"` was matched, up to its
    /// closing `"`; `None` if a `\` comes first.
    #[inline(always)]
    fn str(&mut self) -> Option<&'a str> {
        let rest = &self.s.as_bytes()[self.pos..];
        let n = find_quote_or_backslash(rest).filter(|&n| rest[n] == b'"')?;
        let body = &self.s[self.pos..self.pos + n];
        self.pos += n + 1;
        Some(body)
    }
}

/// The general scanner: any key order, whitespace, escapes, duplicate
/// and unknown keys, and the error of a malformed line.
pub(super) fn scan(text: &str, have_header: bool) -> Result<Line, LineError> {
    let mut sc = Scanner {
        s: text,
        b: text.as_bytes(),
        pos: 0,
        unescaped: Vec::new(),
        metas: Vec::new(),
    };
    let mut f = Fields::default();
    sc.ws();
    let is_object = sc.peek() == Some(b'{');
    let scanned = if is_object {
        sc.object(|sc, key| {
            let tok = sc.value(&key)?;
            if let Some(slot) = f.slot(&key) {
                slot.get_or_insert(tok);
            }
            Ok(())
        })
    } else {
        sc.skip_value()
    };
    scanned.map_err(LineError::At)?;
    sc.ws();
    if sc.pos != sc.b.len() {
        return Err(LineError::At(format!(
            "trailing garbage at byte {}",
            sc.pos
        )));
    }
    if !is_object {
        return Err(LineError::At("not a JSON object".to_string()));
    }
    if sc.str_of(f.kind) == Some("journal_header") {
        return f.header(&mut sc).map(Line::Header);
    }
    if !have_header {
        return Err(LineError::At(format!(
            "journal entry before header (unversioned journals are refused; re-record with schema {JOURNAL_SCHEMA})"
        )));
    }
    f.entry(&mut sc).map(Line::Entry)
}

/// A scanned value. It borrows from the line or indexes what the
/// [`Scanner`] decoded, so slots are plain copies with nothing to drop.
#[derive(Clone, Copy)]
enum Tok<'a> {
    /// A string without escapes.
    Str(&'a str),
    /// A string with escapes, decoded into `Scanner::unescaped`.
    Unescaped(usize),
    /// A number token, already validated as an `f64` spelling.
    Num(&'a str),
    /// `nan`, `inf` or `-inf` as the value of `sim_time`: the spellings
    /// the writer uses for non-finite times.
    NonFinite(f64),
    /// The string-valued pairs of a `meta` object, in `Scanner::metas`.
    Meta(usize),
    /// `null`, a boolean, or an object nobody reads.
    Other,
}

/// A number token read as `u64`: plain digits that fit, which is what
/// `raw.parse::<u64>()` accepts of a non-empty token not starting `+`.
fn u64_of(t: Option<Tok<'_>>) -> Option<u64> {
    match t {
        Some(Tok::Num(raw)) => digits_u64(raw.as_bytes()),
        _ => None,
    }
}

/// Non-empty plain digits that fit a `u64`, leading zeros allowed.
#[inline(always)]
fn digits_u64(raw: &[u8]) -> Option<u64> {
    if raw.is_empty() {
        return None;
    }
    raw.iter().try_fold(0u64, |n, &c| {
        let d = c.checked_sub(b'0').filter(|d| *d < 10)?;
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

fn f64_of(t: Option<Tok<'_>>) -> Option<f64> {
    match t {
        Some(Tok::Num(raw)) => raw.parse().ok(),
        Some(Tok::NonFinite(x)) => Some(x),
        _ => None,
    }
}

/// One slot per key a header or an entry reads; the first occurrence of
/// a key fills it.
#[derive(Default)]
struct Fields<'a> {
    kind: Option<Tok<'a>>,
    schema: Option<Tok<'a>>,
    backend: Option<Tok<'a>>,
    scheme: Option<Tok<'a>>,
    seed: Option<Tok<'a>>,
    s: Option<Tok<'a>>,
    target_rounds: Option<Tok<'a>>,
    meta: Option<Tok<'a>>,
    seq: Option<Tok<'a>>,
    lane: Option<Tok<'a>>,
    round: Option<Tok<'a>>,
    committed: Option<Tok<'a>>,
    sim_time: Option<Tok<'a>>,
    d1: Option<Tok<'a>>,
    d2: Option<Tok<'a>>,
    verdict: Option<Tok<'a>>,
    sched: Option<Tok<'a>>,
    action: Option<Tok<'a>>,
    rollforward: Option<Tok<'a>>,
    fault: Option<Tok<'a>>,
    fault_id: Option<Tok<'a>>,
    fault_outcome: Option<Tok<'a>>,
}

impl<'a> Fields<'a> {
    fn slot(&mut self, key: &str) -> Option<&mut Option<Tok<'a>>> {
        // byte-string patterns compile to a decision tree on length and
        // bytes rather than one comparison per arm
        Some(match key.as_bytes() {
            b"seq" => &mut self.seq,
            b"lane" => &mut self.lane,
            b"round" => &mut self.round,
            b"committed" => &mut self.committed,
            b"sim_time" => &mut self.sim_time,
            b"d1" => &mut self.d1,
            b"d2" => &mut self.d2,
            b"verdict" => &mut self.verdict,
            b"sched" => &mut self.sched,
            b"action" => &mut self.action,
            b"rollforward" => &mut self.rollforward,
            b"fault" => &mut self.fault,
            b"fault_id" => &mut self.fault_id,
            b"fault_outcome" => &mut self.fault_outcome,
            b"kind" => &mut self.kind,
            b"schema" => &mut self.schema,
            b"backend" => &mut self.backend,
            b"scheme" => &mut self.scheme,
            b"seed" => &mut self.seed,
            b"s" => &mut self.s,
            b"target_rounds" => &mut self.target_rounds,
            b"meta" => &mut self.meta,
            _ => return None,
        })
    }

    fn header(self, sc: &mut Scanner<'a>) -> Result<JournalHeader, LineError> {
        let schema = u64_of(self.schema)
            .ok_or_else(|| LineError::At("header missing schema".to_string()))?
            as u32;
        if schema != JOURNAL_SCHEMA {
            return Err(LineError::Journal(format!(
                "unsupported journal schema {schema} (reader supports {JOURNAL_SCHEMA})"
            )));
        }
        let mut h = JournalHeader::new(
            sc.str_of(self.backend).unwrap_or(""),
            sc.str_of(self.scheme).unwrap_or(""),
            u64_of(self.seed).unwrap_or(0),
            u64_of(self.s).unwrap_or(0) as u32,
            u64_of(self.target_rounds).unwrap_or(0),
        );
        if let Some(Tok::Meta(i)) = self.meta {
            h.meta = std::mem::take(&mut sc.metas[i]);
        }
        Ok(h)
    }

    /// The entry, or the first required field (in layout order) that is
    /// missing or malformed.
    fn entry(self, sc: &mut Scanner<'a>) -> Result<RoundEntry, LineError> {
        let bad = |name: &str| LineError::At(format!("missing or malformed `{name}`"));
        let digest = |sc: &Scanner<'a>, t, name| {
            sc.str_of(t)
                .and_then(Digest128::parse_hex)
                .ok_or_else(|| bad(name))
        };
        Ok(RoundEntry {
            seq: u64_of(self.seq).ok_or_else(|| bad("seq"))?,
            lane: u64_of(self.lane).ok_or_else(|| bad("lane"))?,
            round: u64_of(self.round).ok_or_else(|| bad("round"))?,
            committed: u64_of(self.committed).ok_or_else(|| bad("committed"))?,
            sim_time: f64_of(self.sim_time).ok_or_else(|| bad("sim_time"))?,
            d1: digest(sc, self.d1, "d1")?,
            d2: digest(sc, self.d2, "d2")?,
            verdict: sc
                .str_of(self.verdict)
                .and_then(Verdict::parse)
                .ok_or_else(|| bad("verdict"))?,
            sched: sc.string_of(self.sched).ok_or_else(|| bad("sched"))?,
            action: sc
                .str_of(self.action)
                .and_then(Action::parse)
                .ok_or_else(|| bad("action"))?,
            rollforward: u64_of(self.rollforward).ok_or_else(|| bad("rollforward"))? as u32,
            fault: sc.string_of(self.fault),
            fault_id: u64_of(self.fault_id),
            fault_outcome: sc.string_of(self.fault_outcome),
        })
    }
}

/// A cursor over one line, and the strings it had to decode. `s` and `b`
/// are the same text; every position the scanner stops at is a character
/// boundary.
struct Scanner<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
    unescaped: Vec<String>,
    metas: Vec<Vec<(String, String)>>,
}

// The per-byte and per-member helpers are forced inline: every member of
// every line goes through them, and the calls showed up in profiles.
impl<'a> Scanner<'a> {
    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    #[inline(always)]
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The text of a string token.
    fn str_of(&self, t: Option<Tok<'a>>) -> Option<&str> {
        match t {
            Some(Tok::Str(s)) => Some(s),
            Some(Tok::Unescaped(i)) => Some(&self.unescaped[i]),
            _ => None,
        }
    }

    /// A string token as an owned `String`.
    fn string_of(&mut self, t: Option<Tok<'a>>) -> Option<String> {
        match t {
            Some(Tok::Str(s)) => Some(s.to_string()),
            Some(Tok::Unescaped(i)) => Some(std::mem::take(&mut self.unescaped[i])),
            _ => None,
        }
    }

    /// The value of key `key`: typed for the keys that need it, validated
    /// and skipped otherwise.
    fn value(&mut self, key: &str) -> Result<Tok<'a>, String> {
        self.ws();
        let rest = &self.b[self.pos..];
        if key == "sim_time" {
            for (token, x) in [
                ("nan", f64::NAN),
                ("inf", f64::INFINITY),
                ("-inf", f64::NEG_INFINITY),
            ] {
                if rest.starts_with(token.as_bytes()) {
                    self.pos += token.len();
                    return Ok(Tok::NonFinite(x));
                }
            }
        }
        match rest.first() {
            Some(b'"') => Ok(match self.string()? {
                Cow::Borrowed(s) => Tok::Str(s),
                Cow::Owned(s) => {
                    self.unescaped.push(s);
                    Tok::Unescaped(self.unescaped.len() - 1)
                }
            }),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(b'{') if key == "meta" => {
                let pairs = self.meta()?;
                self.metas.push(pairs);
                Ok(Tok::Meta(self.metas.len() - 1))
            }
            _ => self.skip_value().map(|()| Tok::Other),
        }
    }

    /// An object's string-valued pairs; other values are skipped.
    fn meta(&mut self) -> Result<Vec<(String, String)>, String> {
        let mut pairs = Vec::new();
        self.object(|sc, key| {
            sc.ws();
            if sc.peek() == Some(b'"') {
                let v = sc.string()?;
                pairs.push((key.into_owned(), v.into_owned()));
                Ok(())
            } else {
                sc.skip_value()
            }
        })?;
        Ok(pairs)
    }

    /// Walk an object at `{`, handing each key to `field`, which must
    /// consume the key's value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.key()?;
            field(self, key)?;
            if self.close()? {
                return Ok(());
            }
        }
    }

    /// A key and its `:`.
    #[inline(always)]
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        self.ws();
        if self.peek() != Some(b'"') {
            return Err(format!("expected object key at byte {}", self.pos));
        }
        let key = self.string()?;
        self.ws();
        if self.peek() != Some(b':') {
            return Err(format!("expected `:` at byte {}", self.pos));
        }
        self.pos += 1;
        Ok(key)
    }

    /// After a member: `true` at the closing `}`, `false` at a `,`.
    #[inline(always)]
    fn close(&mut self) -> Result<bool, String> {
        self.ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!("expected `,` or `}}` at byte {}", self.pos)),
        }
    }

    /// Validate and skip one value of any type. Nested objects are
    /// tracked with a depth count rather than recursion, so no nesting
    /// depth can exhaust the stack.
    fn skip_value(&mut self) -> Result<(), String> {
        let mut depth = 0usize;
        loop {
            self.ws();
            match self.peek() {
                None => return Err("unexpected end of input".to_string()),
                Some(b'{') => {
                    self.pos += 1;
                    self.ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                    } else {
                        depth += 1;
                        self.key()?;
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'n') => self.literal("null")?,
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(c) if c.is_ascii_digit() || c == b'-' => {
                    self.number()?;
                }
                Some(c) => return Err(format!("unexpected byte `{}` at {}", c as char, self.pos)),
            }
            // A value ended: close every object it completes, or move on
            // to the next member's value.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                if !self.close()? {
                    self.key()?;
                    break;
                }
                depth -= 1;
            }
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// A number token. It must read as an `f64`.
    #[inline(always)]
    fn number(&mut self) -> Result<Tok<'a>, String> {
        let start = self.pos;
        let mut digits_only = true;
        while let Some(c @ (b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) = self.peek() {
            digits_only &= c.is_ascii_digit();
            self.pos += 1;
        }
        let raw = &self.s[start..self.pos];
        if digits_only || raw.parse::<f64>().is_ok() {
            Ok(Tok::Num(raw))
        } else {
            Err(format!("bad number `{raw}` at byte {start}"))
        }
    }

    /// A string at `"`: borrowed from the line unless it holds an escape.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let start = self.pos + 1;
        match find_quote_or_backslash(&self.b[start..]) {
            Some(n) if self.b[start + n] == b'"' => {
                self.pos = start + n + 1;
                Ok(Cow::Borrowed(&self.s[start..start + n]))
            }
            Some(n) => {
                self.pos = start + n;
                self.unescape(start).map(Cow::Owned)
            }
            None => Err("unterminated string".to_string()),
        }
    }

    /// The slow path of [`Scanner::string`], entered at the first `\` of
    /// the string whose text starts at `start`.
    fn unescape(&mut self, start: usize) -> Result<String, String> {
        let b = self.b;
        let mut out = self.s[start..self.pos].to_string();
        loop {
            match b.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // at a backslash
                    self.pos += 1;
                    match b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint \\u{hex}"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
            let run = find_quote_or_backslash(&b[self.pos..]).unwrap_or(b.len() - self.pos);
            out.push_str(&self.s[self.pos..self.pos + run]);
            self.pos += run;
        }
    }
}

/// Index of the first `"` or `\` in `b`, eight bytes at a time.
#[inline(always)]
fn find_quote_or_backslash(b: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut chunks = b.chunks_exact(8);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // a byte of `x` is zero iff its bit is set in `zero(x)`; bits above
        // the lowest true zero may be spurious, so only the lowest is read
        let zero = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
        let hits = zero(w ^ (ONES * u64::from(b'"'))) | zero(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return Some(8 * i + hits.trailing_zeros() as usize / 8);
        }
    }
    let rest = chunks.remainder();
    let tail = b.len() - rest.len();
    rest.iter()
        .position(|&c| c == b'"' || c == b'\\')
        .map(|p| tail + p)
}
