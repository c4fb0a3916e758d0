//! The journal reader as it was before the typed decoder, kept as the
//! oracle for differential tests: a JSON tree parser with linear key
//! lookup, the two-pass torn-tail recovery, and the first-divergence
//! search that binary-searches cumulative digests of the serialised
//! lines. The properties below hold the production reader to it. The
//! writer as it was before the piecewise encoder, one `format!` per line
//! with an allocating `fmt_f64` / `json_escape` per field, holds the
//! production writer and the byte pricing of `journal.bytes`.
//!
//! The one intended difference: the production reader accepts `nan`,
//! `inf` and `-inf` as a `sim_time` (the writer's spelling of non-finite
//! times), which this reader refuses.

use super::*;

/// JSON string escaping as the writer used to do it, one `String` per
/// call.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The journal's JSONL text, written the way the writer used to write it.
pub(super) fn to_jsonl(j: &Journal) -> String {
    let mut out = String::new();
    if let Some(h) = &j.header {
        let _ = write!(
            out,
            "{{\"kind\":\"journal_header\",\"schema\":{},\"backend\":\"{}\",\"scheme\":\"{}\",\"seed\":{},\"s\":{},\"target_rounds\":{},\"meta\":{{",
            h.schema,
            json_escape(&h.backend),
            json_escape(&h.scheme),
            h.seed,
            h.s,
            h.target_rounds,
        );
        for (i, (k, v)) in h.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}\n");
    }
    for e in &j.entries {
        let _ = write!(
            out,
            "{{\"seq\":{},\"lane\":{},\"round\":{},\"committed\":{},\"sim_time\":{},\"d1\":\"{}\",\"d2\":\"{}\",\"verdict\":\"{}\",\"sched\":\"{}\",\"action\":\"{}\",\"rollforward\":{}",
            e.seq,
            e.lane,
            e.round,
            e.committed,
            fmt_f64(e.sim_time),
            e.d1,
            e.d2,
            e.verdict.as_str(),
            json_escape(&e.sched),
            e.action.as_str(),
            e.rollforward,
        );
        if let Some(fault) = &e.fault {
            let _ = write!(out, ",\"fault\":\"{}\"", json_escape(fault));
        }
        if let Some(id) = e.fault_id {
            let _ = write!(out, ",\"fault_id\":{id}");
        }
        if let Some(outcome) = &e.fault_outcome {
            let _ = write!(out, ",\"fault_outcome\":\"{}\"", json_escape(outcome));
        }
        out.push_str("}\n");
    }
    out
}

pub(super) fn from_jsonl(text: &str) -> Result<Journal, String> {
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
        let field_err = |name: &str| format!("line {}: missing or malformed `{name}`", lineno + 1);
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
    Ok(Journal { header, entries })
}

pub(super) fn from_jsonl_tolerant(text: &str) -> Result<(Journal, Option<String>), String> {
    let err = match from_jsonl(text) {
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
    let j = from_jsonl(&retained).map_err(|_| err.clone())?;
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

pub(super) fn first_divergence(ja: &Journal, jb: &Journal) -> Option<Divergence> {
    if ja.header != jb.header {
        let show = |h: &Option<JournalHeader>| match h {
            Some(h) => h.to_json_line(),
            None => "(no header)".to_string(),
        };
        return Some(Divergence {
            index: 0,
            lane: 0,
            round: 0,
            field: "header".to_string(),
            a: show(&ja.header),
            b: show(&jb.header),
            context_a: Vec::new(),
            context_b: Vec::new(),
        });
    }
    let common = ja.entries.len().min(jb.entries.len());
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
    let (ca, cb) = (cumulative(ja), cumulative(jb));
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
        if ja.entries.len() == jb.entries.len() {
            return None;
        }
        // One journal is a strict prefix of the other.
        let (longer, which) = if ja.entries.len() > jb.entries.len() {
            (&ja.entries, "a")
        } else {
            (&jb.entries, "b")
        };
        let extra = &longer[common];
        return Some(Divergence {
            index: common,
            lane: extra.lane,
            round: extra.round,
            field: "length".to_string(),
            a: format!(
                "{} entries (journal {which} has extra entries)",
                ja.entries.len()
            ),
            b: format!("{} entries", jb.entries.len()),
            context_a: context_lines(&ja.entries, common),
            context_b: context_lines(&jb.entries, common),
        });
    }
    let (ea, eb) = (&ja.entries[k], &jb.entries[k]);
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
        context_a: context_lines(&ja.entries, k),
        context_b: context_lines(&jb.entries, k),
    })
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

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Characters that stress string escaping and multi-byte UTF-8.
    const TEXT: &[char] = &[
        'a', 'z', 'Q', '0', '9', ' ', '"', '\\', '/', 'u', '\n', '\r', '\t', '\u{1}', '\u{1f}',
        '\u{7f}', 'é', '€', '😀', '{', '}', ':', ',',
    ];
    /// Characters a byte mutation writes: JSON structure, number and
    /// literal spellings, whitespace and multi-byte UTF-8.
    const MUTANTS: &[char] = &[
        '{', '}', '[', '"', '\\', ':', ',', ' ', '\t', '\r', '\n', '0', '7', '-', '+', '.', 'e',
        'E', 'n', 't', 'f', 'u', 'x', 'é', '😀', '\u{a0}',
    ];
    /// Finite times, including the edge spellings of `fmt_f64` and
    /// integers on both sides of 2^53 and of the 15-digit boundary.
    const TIMES: &[f64] = &[
        0.0,
        -0.0,
        1.5,
        40.0,
        1e300,
        5e-324,
        2.2250738585072014e-308,
        -7.25,
        999_999_999_999_999.0,
        1e15,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        1.8446744073709552e19,
        -9_007_199_254_740_992.0,
    ];
    /// `sim_time` spellings the writer never produces. A reader must read
    /// the JSON ones as `str::parse::<f64>` does: leading zeros, integers
    /// at and above 2^53 and past `u64`, `-0`, exponents, dots. The last
    /// few are not JSON numbers, and some of them `str::parse` accepts.
    const TIME_SPELLINGS: &[&str] = &[
        "007",
        "000000000000001",
        "0000000000000000001",
        "9007199254740992",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901234567890",
        "-0",
        "-0.0",
        "-12",
        "1e3",
        "1E3",
        "2.5e-3",
        "1e+2",
        "1.",
        "0.5",
        "-.5",
        "+5",
        ".5",
        "e5",
        "1e",
        "-",
        "1.2.3",
        "0x10",
    ];

    fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
        xs[rng.below(xs.len() as u64) as usize]
    }

    fn chance(rng: &mut TestRng, one_in: u64) -> bool {
        rng.below(one_in) == 0
    }

    fn text(rng: &mut TestRng) -> String {
        (0..rng.below(8)).map(|_| pick(rng, TEXT)).collect()
    }

    /// Text the writer puts out unescaped.
    fn plain_text(rng: &mut TestRng) -> String {
        text(rng)
            .chars()
            .filter(|&c| c >= ' ' && c != '"' && c != '\\')
            .collect()
    }

    /// A `u64` over its whole range, small values half the time.
    fn wide(rng: &mut TestRng) -> u64 {
        if chance(rng, 2) {
            rng.below(100)
        } else {
            rng.next_u64() >> rng.below(64)
        }
    }

    fn entry(rng: &mut TestRng) -> RoundEntry {
        let fault = chance(rng, 3).then(|| text(rng));
        RoundEntry {
            seq: wide(rng),
            lane: wide(rng),
            round: wide(rng),
            committed: rng.next_u64() >> rng.below(64),
            sim_time: match rng.below(4) {
                0 | 1 => pick(rng, TIMES),
                2 => (rng.next_u64() >> rng.below(64)) as f64,
                _ => rng.unit_f64() * 1e6,
            },
            d1: Digest128 {
                fnv: rng.next_u64(),
                mix: rng.next_u64(),
            },
            d2: Digest128 {
                fnv: rng.next_u64(),
                mix: rng.next_u64(),
            },
            verdict: pick(
                rng,
                &[
                    Verdict::Match,
                    Verdict::Mismatch,
                    Verdict::Trap,
                    Verdict::Hang,
                ],
            ),
            sched: text(rng),
            action: pick(
                rng,
                &[
                    Action::Commit,
                    Action::Checkpoint,
                    Action::Recover,
                    Action::Rollback,
                    Action::Shutdown,
                ],
            ),
            rollforward: wide(rng) as u32,
            fault_id: (fault.is_some() || chance(rng, 8)).then(|| wide(rng)),
            fault_outcome: chance(rng, 4).then(|| text(rng)),
            fault,
        }
    }

    fn journal(rng: &mut TestRng) -> Journal {
        let mut header = JournalHeader::new(&text(rng), &text(rng), rng.next_u64(), 8, 40);
        for _ in 0..rng.below(4) {
            header = header.with_meta(&text(rng), &text(rng));
        }
        let mut j = Journal::enabled(header);
        for _ in 0..rng.below(7) {
            j.entries.push(entry(rng));
        }
        j
    }

    /// A JSON string literal for `s`, escaped in one of the legal ways
    /// chosen at random (short escapes, `\u` escapes, escaped `/`).
    fn string(rng: &mut TestRng, s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' | '\\' if chance(rng, 4) => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' if chance(rng, 2) => out.push_str("\\n"),
                '\r' if chance(rng, 2) => out.push_str("\\r"),
                '\t' if chance(rng, 2) => out.push_str("\\t"),
                '/' if chance(rng, 2) => out.push_str("\\/"),
                c if (c as u32) < 0x20 || (c as u32 <= 0xffff && chance(rng, 8)) => {
                    let _ = write!(out, "\\u{:04X}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A random JSON value of any type, objects nested up to `depth`.
    fn any_value(rng: &mut TestRng, depth: u32) -> String {
        match rng.below(if depth == 0 { 5 } else { 6 }) {
            0 => pick(
                rng,
                &[
                    "0",
                    "-1",
                    "007",
                    "1.5e3",
                    "1e400",
                    "-0",
                    "18446744073709551616",
                ],
            )
            .to_string(),
            1 => {
                let s = text(rng);
                string(rng, &s)
            }
            2 => pick(rng, &["null", "true", "false"]).to_string(),
            3 => rng.below(1000).to_string(),
            4 => "{}".to_string(),
            _ => {
                let fields: Vec<(String, String)> = (0..1 + rng.below(3))
                    .map(|_| (text(rng), any_value(rng, depth - 1)))
                    .collect();
                object(rng, fields)
            }
        }
    }

    fn ws(rng: &mut TestRng) -> &'static str {
        pick(rng, &["", "", "", " ", "\t", " \r "])
    }

    fn object(rng: &mut TestRng, fields: Vec<(String, String)>) -> String {
        let mut out = format!("{{{}", ws(rng));
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, "{},{}", ws(rng), ws(rng));
            }
            let key = string(rng, k);
            let _ = write!(out, "{key}{}:{}{v}", ws(rng), ws(rng));
        }
        let _ = write!(out, "{}}}", ws(rng));
        out
    }

    /// One journal line as a random writer might produce it: fields in
    /// random order, some duplicated or dropped, unknown keys mixed in.
    fn line(rng: &mut TestRng, mut fields: Vec<(String, String)>) -> String {
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.below(i as u64 + 1) as usize);
        }
        if chance(rng, 12) && !fields.is_empty() {
            fields.remove(rng.below(fields.len() as u64) as usize);
        }
        for _ in 0..rng.below(3) {
            let key = if chance(rng, 2) && !fields.is_empty() {
                fields[rng.below(fields.len() as u64) as usize].0.clone()
            } else {
                pick(rng, &["x", "Seq", "kind2", "é", "meta", "sim_time"]).to_string()
            };
            let at = rng.below(fields.len() as u64 + 1) as usize;
            fields.insert(at, (key, any_value(rng, 3)));
        }
        object(rng, fields)
    }

    fn header_line(rng: &mut TestRng, h: &JournalHeader) -> String {
        // meta values that are not strings are skipped by both readers
        let meta = h
            .meta
            .iter()
            .map(|(k, v)| {
                let v = if chance(rng, 2) {
                    any_value(rng, 2)
                } else {
                    string(rng, v)
                };
                (k.clone(), v)
            })
            .collect();
        let fields = vec![
            ("kind".to_string(), string(rng, "journal_header")),
            ("schema".to_string(), h.schema.to_string()),
            ("backend".to_string(), string(rng, &h.backend)),
            ("scheme".to_string(), string(rng, &h.scheme)),
            ("seed".to_string(), h.seed.to_string()),
            ("s".to_string(), h.s.to_string()),
            ("target_rounds".to_string(), h.target_rounds.to_string()),
            ("meta".to_string(), object(rng, meta)),
        ];
        line(rng, fields)
    }

    fn entry_line(rng: &mut TestRng, e: &RoundEntry) -> String {
        let mut fields = vec![
            ("seq".to_string(), e.seq.to_string()),
            ("lane".to_string(), e.lane.to_string()),
            ("round".to_string(), e.round.to_string()),
            ("committed".to_string(), e.committed.to_string()),
            ("sim_time".to_string(), fmt_f64(e.sim_time)),
            ("d1".to_string(), string(rng, &e.d1.to_string())),
            ("d2".to_string(), string(rng, &e.d2.to_string())),
            ("verdict".to_string(), string(rng, e.verdict.as_str())),
            ("sched".to_string(), string(rng, &e.sched)),
            ("action".to_string(), string(rng, e.action.as_str())),
            ("rollforward".to_string(), e.rollforward.to_string()),
        ];
        if let Some(f) = &e.fault {
            fields.push(("fault".to_string(), string(rng, f)));
        }
        if let Some(id) = e.fault_id {
            fields.push(("fault_id".to_string(), id.to_string()));
        }
        if let Some(o) = &e.fault_outcome {
            fields.push(("fault_outcome".to_string(), string(rng, o)));
        }
        line(rng, fields)
    }

    /// An integer token in the writer's spelling, or after leading zeros.
    fn uint_token(rng: &mut TestRng, n: u64) -> String {
        let zeros = if chance(rng, 4) { rng.below(3) + 1 } else { 0 };
        format!("{}{n}", "0".repeat(zeros as usize))
    }

    /// `e` in the writer's layout with its numbers respelled: leading
    /// zeros, a `rollforward` token at or above 2^32 (read back
    /// truncated), and `sim_time` in spellings the writer never uses.
    fn respelled_line(rng: &mut TestRng, e: &RoundEntry) -> String {
        let mut e = e.clone();
        let (fault, fault_id, outcome) =
            (e.fault.take(), e.fault_id.take(), e.fault_outcome.take());
        let line = e.to_json_line();
        let (Some(from), Some(to)) = (line.find(",\"d1\":"), line.rfind(",\"rollforward\":"))
        else {
            unreachable!("the writer's layout: {line}")
        };
        let middle = &line[from..to];
        let time = if chance(rng, 2) {
            pick(rng, TIME_SPELLINGS).to_string()
        } else {
            fmt_f64(e.sim_time)
        };
        let rollforward = if chance(rng, 2) {
            let high = 1 + (rng.next_u64() >> (33 + rng.below(31)));
            high << 32 | u64::from(e.rollforward)
        } else {
            e.rollforward.into()
        };
        let mut out = format!(
            "{{\"seq\":{},\"lane\":{},\"round\":{},\"committed\":{},\"sim_time\":{time}{middle},\"rollforward\":{}",
            uint_token(rng, e.seq),
            uint_token(rng, e.lane),
            uint_token(rng, e.round),
            uint_token(rng, e.committed),
            uint_token(rng, rollforward),
        );
        if let Some(f) = fault {
            let _ = write!(out, ",\"fault\":\"{}\"", json_escape(&f));
        }
        if let Some(id) = fault_id {
            let _ = write!(out, ",\"fault_id\":{}", uint_token(rng, id));
        }
        if let Some(o) = outcome {
            let _ = write!(out, ",\"fault_outcome\":\"{}\"", json_escape(&o));
        }
        out.push('}');
        out
    }

    /// `j`'s header as the writer writes it, then its entries respelled.
    fn respelled_jsonl(rng: &mut TestRng, j: &Journal) -> String {
        let mut out = j
            .header
            .as_ref()
            .map(|h| h.to_json_line() + "\n")
            .unwrap_or_default();
        for e in &j.entries {
            out.push_str(&respelled_line(rng, e));
            out.push('\n');
        }
        out
    }

    /// `j` as JSONL from a random writer: the header may come late or
    /// not at all, blank lines and `\r\n` endings are mixed in.
    fn jsonl(rng: &mut TestRng, j: &Journal) -> String {
        let mut lines: Vec<String> = j.entries.iter().map(|e| entry_line(rng, e)).collect();
        if let Some(h) = &j.header {
            if !chance(rng, 10) {
                let at = if chance(rng, 6) {
                    rng.below(lines.len() as u64 + 1) as usize
                } else {
                    0
                };
                lines.insert(at, header_line(rng, h));
            }
        }
        let mut out = String::new();
        for l in lines {
            out.push_str(&l);
            out.push_str(pick(rng, &["\n", "\n", "\n", "\r\n", "\n\n", "\n \t\n"]));
        }
        if chance(rng, 4) {
            out.pop();
        }
        out
    }

    /// Apply a few random character-level edits (the input stays UTF-8).
    fn mutate(rng: &mut TestRng, text: &str) -> String {
        let mut cs: Vec<char> = text.chars().collect();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(cs.len() as u64 + 1) as usize;
            match rng.below(6) {
                0 if at < cs.len() => cs[at] = pick(rng, MUTANTS),
                1 => cs.insert(at, pick(rng, MUTANTS)),
                2 if at < cs.len() => {
                    cs.remove(at);
                }
                3 => cs.truncate(at),
                4 => {
                    // tear the final line
                    let last = cs.iter().rposition(|&c| c == '\n').map_or(0, |i| i + 1);
                    let cut = last + rng.below((cs.len() - last) as u64 + 1) as usize;
                    cs.truncate(cut);
                }
                _ => {
                    cs = cs
                        .iter()
                        .flat_map(|&c| if c == '\n' { vec!['\r', '\n'] } else { vec![c] })
                        .collect()
                }
            }
        }
        cs.into_iter().collect()
    }

    /// The fast path's contract on one line: it decodes the general
    /// scanner's entry, `sim_time` bits included, or nothing.
    fn same_or_none(line: &str) {
        let Some(fast) = decode::canonical_entry(line) else {
            return;
        };
        match decode::scan(line, true) {
            Ok(decode::Line::Entry(e)) => {
                assert_eq!(fast, e, "{line:?}");
                assert_eq!(fast.sim_time.to_bits(), e.sim_time.to_bits(), "{line:?}");
            }
            Ok(decode::Line::Header(_)) => panic!("the fast path read a header: {line:?}"),
            Err(_) => panic!("the fast path read a line the scanner refuses: {line:?}"),
        }
    }

    /// The streaming reader, through a buffer of `cap` bytes and with
    /// room for `room` entries reserved, returns what the tolerant reader
    /// returns for `bytes`; bytes that are not UTF-8 fail as reading them
    /// whole fails. Compared as `Debug` text, so a NaN time equals itself.
    fn stream_agrees(bytes: &[u8], cap: usize, room: u64) {
        let streamed = Journal::read_lines(io::BufReader::with_capacity(cap, bytes), room);
        match std::str::from_utf8(bytes) {
            Ok(text) => {
                let whole = Journal::from_jsonl_tolerant(text);
                let streamed = streamed.expect("no I/O error on UTF-8 text");
                assert_eq!(format!("{streamed:?}"), format!("{whole:?}"), "{text:?}");
            }
            Err(_) => {
                let whole = io::Read::read_to_string(&mut &bytes[..], &mut String::new())
                    .expect_err("not UTF-8");
                let streamed = streamed.expect_err("not UTF-8");
                assert_eq!(streamed.kind(), whole.kind(), "{bytes:?}");
                assert_eq!(streamed.to_string(), whole.to_string(), "{bytes:?}");
            }
        }
    }

    /// Both readers, strict and tolerant, agree on `text` — values,
    /// serialised bytes and error strings —, the streaming reader agrees
    /// with them, and every line keeps the fast path's contract.
    fn agree(text: &str) {
        for line in text.lines() {
            same_or_none(line.trim());
        }
        stream_agrees(text.as_bytes(), 3, 0);
        stream_agrees(text.as_bytes(), 8192, text.lines().count() as u64);
        let (new, old) = (Journal::from_jsonl(text), from_jsonl(text));
        assert_eq!(new, old, "from_jsonl on {text:?}");
        if let (Ok(n), Ok(o)) = (&new, &old) {
            assert_eq!(n.to_jsonl(), o.to_jsonl(), "{text:?}");
        }
        let (new, old) = (
            Journal::from_jsonl_tolerant(text),
            from_jsonl_tolerant(text),
        );
        assert_eq!(new, old, "from_jsonl_tolerant on {text:?}");
        if let (Ok((n, _)), Ok((o, _))) = (&new, &old) {
            assert_eq!(n.to_jsonl(), o.to_jsonl(), "{text:?}");
        }
    }

    /// A different (or, rarely, equal) text: edited, replaced or dropped.
    fn changed_text(rng: &mut TestRng, t: &Option<String>) -> Option<String> {
        match (t, rng.below(3)) {
            (Some(t), 0) => Some(format!("{t}{}", pick(rng, TEXT))),
            (Some(_), 1) => None,
            _ => Some(text(rng)),
        }
    }

    /// Change one random field of `e`. One time in eight the integer
    /// fields keep their value, so an edit that changes nothing still
    /// comes up now that `entry` draws them over the whole range.
    fn changed(rng: &mut TestRng, e: &mut RoundEntry) {
        let mut other = entry(rng);
        if chance(rng, 8) {
            (other.seq, other.lane, other.round) = (e.seq, e.lane, e.round);
            (other.rollforward, other.fault_id) = (e.rollforward, e.fault_id);
        }
        match rng.below(15) {
            0 => e.seq = other.seq,
            1 => e.lane = other.lane,
            2 => e.round = other.round,
            3 => e.committed = other.committed,
            4 => e.sim_time = pick(rng, TIMES),
            5 => e.sim_time = -e.sim_time,
            6 => e.d1 = other.d1,
            7 => e.d2.mix ^= 1 << rng.below(64),
            8 => e.verdict = other.verdict,
            9 => e.sched = changed_text(rng, &Some(e.sched.clone())).unwrap_or_default(),
            10 => e.action = other.action,
            11 => e.rollforward = other.rollforward,
            12 => e.fault = changed_text(rng, &e.fault),
            13 => e.fault_id = other.fault_id,
            _ => e.fault_outcome = changed_text(rng, &e.fault_outcome),
        }
    }

    proptest! {
        #[test]
        fn writer_and_pricer_agree_with_the_format_encoder(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut j = journal(&mut rng);
            if chance(&mut rng, 4) {
                j.header = None;
            }
            for e in &mut j.entries {
                if chance(&mut rng, 3) {
                    e.sim_time = pick(&mut rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
                }
                if chance(&mut rng, 3) {
                    e.seq = rng.next_u64() >> rng.below(64);
                    e.lane = rng.next_u64();
                }
            }
            let text = j.to_jsonl();
            prop_assert_eq!(&text, &to_jsonl(&j));
            prop_assert_eq!(j.jsonl_len(), text.len());
        }

        #[test]
        fn decoder_agrees_with_the_tree_parser(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let j = journal(&mut rng);
            let canonical = j.to_jsonl();
            agree(&canonical);
            let respelled = respelled_jsonl(&mut rng, &j);
            agree(&respelled);
            let text = jsonl(&mut rng, &j);
            agree(&text);
            for _ in 0..16 {
                agree(&mutate(&mut rng, &text));
            }
            // near-canonical lines reach every bail-out of the fast path
            for _ in 0..8 {
                agree(&mutate(&mut rng, &canonical));
                agree(&mutate(&mut rng, &respelled));
            }
        }

        #[test]
        fn streaming_reader_agrees_on_any_bytes(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let j = journal(&mut rng);
            let text = if chance(&mut rng, 2) { j.to_jsonl() } else { jsonl(&mut rng, &j) };
            let mut bytes = text.into_bytes();
            // byte edits: stray continuation and lead bytes, an encoded
            // surrogate, a line break, a tear
            for _ in 0..rng.below(4) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                let edit: &[u8] = pick(&mut rng, &[&[0x80u8][..], &[0xc3], &[0xff], &[0xed, 0xa0, 0x80], b"\n"]);
                match rng.below(3) {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => bytes[at] = edit[0],
                    _ => {
                        bytes.splice(at..at, edit.iter().copied());
                    }
                }
            }
            let cap = 1 + rng.below(64) as usize;
            let room = rng.below(2 * bytes.len() as u64 / 100 + 2);
            stream_agrees(&bytes, cap, room);
        }

        // Drift guard: the writer's own lines take the fast path. A
        // writer layout change that the fast path does not follow fails
        // here instead of quietly sending every line to the scanner.
        #[test]
        fn writer_lines_take_the_fast_path(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut j = journal(&mut rng);
            for e in &mut j.entries {
                e.sched = plain_text(&mut rng);
                if e.fault.is_some() {
                    e.fault = Some(plain_text(&mut rng));
                }
                if e.fault_outcome.is_some() {
                    e.fault_outcome = Some(plain_text(&mut rng));
                }
            }
            let text = j.to_jsonl();
            for line in text.lines().skip(1) {
                prop_assert!(
                    decode::canonical_entry(line).is_some(),
                    "a writer line left the fast path: {}",
                    line
                );
                same_or_none(line);
            }
        }

        #[test]
        fn torn_tails_and_early_entries_agree(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let text = journal(&mut rng).to_jsonl();
            // every cut through the final line, and a few anywhere
            let last = text.trim_end().rfind('\n').map_or(0, |i| i + 1);
            let anywhere = (0..8).map(|_| rng.below(text.len() as u64 + 1) as usize);
            for cut in (last..=text.len()).chain(anywhere) {
                if text.is_char_boundary(cut) {
                    agree(&text[..cut]);
                }
            }
            let lines: Vec<&str> = text.lines().collect();
            if lines.len() > 1 {
                let headerless = lines[1..].join("\n");
                agree(&headerless);
                agree(&format!("{headerless}\n{}", lines[0]));
            }
        }

        #[test]
        fn scan_finds_the_divergence_the_digest_search_finds(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut a = journal(&mut rng);
            let mut b = a.clone();
            match rng.below(5) {
                0 => {}
                1 | 2 if !b.entries.is_empty() => {
                    let at = rng.below(b.entries.len() as u64) as usize;
                    if chance(&mut rng, 3) {
                        // NaNs of different bits render alike: no divergence,
                        // also when the changed entry is the NaN one
                        let nan = if chance(&mut rng, 2) {
                            at
                        } else {
                            rng.below(at as u64 + 1) as usize
                        };
                        a.entries[nan].sim_time = f64::NAN;
                        b.entries[nan].sim_time = -f64::NAN;
                    }
                    changed(&mut rng, &mut b.entries[at]);
                }
                3 => b.entries.truncate(rng.below(b.entries.len() as u64 + 1) as usize),
                _ => {
                    for _ in 0..1 + rng.below(3) {
                        b.entries.push(entry(&mut rng));
                    }
                }
            }
            if chance(&mut rng, 8) {
                b.header.as_mut().expect("enabled").seed ^= 1;
            }
            let d = a.first_divergence(&b);
            prop_assert_eq!(&d, &first_divergence(&a, &b));
            prop_assert_eq!(b.first_divergence(&a), first_divergence(&b, &a));
            prop_assert_eq!(b.first_divergence(&b), None);
            // the report names the field that renders differently, with
            // two different values: never `sim_time: nan` vs `nan`, and
            // never the whole-line `entry` for `0` vs `-0`
            if let Some(d) = d.filter(|d| d.field != "header" && d.field != "length") {
                prop_assert_ne!(d.field.as_str(), "entry");
                prop_assert_ne!(&d.a, &d.b, "{}", d.field);
            }
        }
    }

    #[test]
    fn non_finite_sim_time_is_the_one_documented_difference() {
        let mut j = Journal::enabled(JournalHeader::new("micro", "smt-det", 1, 8, 3));
        for (i, t) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let mut e = entry(&mut TestRng::new(i as u64));
            e.sim_time = t;
            j.entries.push(e);
        }
        let text = j.to_jsonl();
        let back = Journal::from_jsonl(&text).expect("the writer's spellings read back");
        assert_eq!(back.to_jsonl(), text);
        // the tree parser refused each spelling
        let lines: Vec<&str> = text.lines().collect();
        for (n, want) in [
            (1, "bad literal"),
            (2, "unexpected byte `i`"),
            (3, "bad number `-`"),
        ] {
            let err = from_jsonl(&format!("{}\n{}", lines[0], lines[n])).unwrap_err();
            assert!(err.starts_with(&format!("line 2: {want}")), "{err}");
        }
    }
}
