//! The one JSON serializer every machine-readable report goes through.
//!
//! `vds stats --json`, `vds alpha --json` and `vds bench --json` /
//! `BENCH_<n>.json` historically each hand-rolled their own object
//! assembly, and the shapes drifted (field order, float
//! formatting, missing discriminators). [`JsonObj`] is the shared
//! builder: insertion-ordered fields, one escaping rule
//! (`registry::json_escape`), one float policy (shortest
//! round-trip `Display`, non-finite → `null`), and a common envelope —
//! every report opens with `"schema":"vds.report.v1"` and a `"kind"`
//! discriminator so consumers can route on the first bytes of the line.
//!
//! The golden test in `crates/obs/tests/json_golden.rs` pins the exact
//! bytes of each kind.

use crate::registry::json_escape;
use std::fmt::Write as _;

/// The envelope schema identifier every report carries.
pub const REPORT_SCHEMA: &str = "vds.report.v1";

/// Insertion-ordered JSON object builder (compact rendering, no spaces).
#[derive(Debug, Clone)]
pub struct JsonObj {
    buf: String,
    empty: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
            empty: true,
        }
    }

    /// A report envelope: an object opened with the shared
    /// `"schema":"vds.report.v1"` header and the given `"kind"`.
    pub fn report(kind: &str) -> JsonObj {
        JsonObj::new()
            .str("schema", REPORT_SCHEMA)
            .str("kind", kind)
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        let _ = write!(self.buf, "\"{}\":", json_escape(key));
    }

    /// Add a string field (escaped).
    pub fn str(mut self, key: &str, v: &str) -> JsonObj {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", json_escape(v));
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> JsonObj {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field: shortest round-trip rendering; JSON has no
    /// NaN/Infinity literals, so non-finite values become `null`.
    pub fn f64(mut self, key: &str, v: f64) -> JsonObj {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a float field with fixed decimal places (wall-clock style
    /// fields like `host_ms` pin their width for readability).
    pub fn f64_fixed(mut self, key: &str, v: f64, places: usize) -> JsonObj {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:.places$}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a pre-rendered JSON value verbatim (nested objects the caller
    /// already serialized deterministically, e.g.
    /// [`crate::Registry::to_json_object`] or a journal summary).
    pub fn raw(mut self, key: &str, v: &str) -> JsonObj {
        self.key(key);
        self.buf.push_str(v);
        self
    }

    /// Close the object and return its bytes (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Render a slice of pre-rendered JSON values as an array.
pub fn json_array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_render_in_insertion_order() {
        let s = JsonObj::new()
            .str("b", "x")
            .u64("a", 7)
            .f64("r", 1.5)
            .raw("nested", "{\"k\":1}")
            .finish();
        assert_eq!(s, "{\"b\":\"x\",\"a\":7,\"r\":1.5,\"nested\":{\"k\":1}}");
    }

    #[test]
    fn envelope_carries_schema_and_kind() {
        let s = JsonObj::report("stats").str("verdict", "correct").finish();
        assert_eq!(
            s,
            "{\"schema\":\"vds.report.v1\",\"kind\":\"stats\",\"verdict\":\"correct\"}"
        );
    }

    #[test]
    fn floats_follow_one_policy() {
        let s = JsonObj::new()
            .f64("inf", f64::INFINITY)
            .f64("nan", f64::NAN)
            .f64("v", 0.25)
            .f64_fixed("w", 1.0 / 3.0, 3)
            .f64_fixed("bad", f64::NAN, 3)
            .finish();
        assert_eq!(
            s,
            "{\"inf\":null,\"nan\":null,\"v\":0.25,\"w\":0.333,\"bad\":null}"
        );
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let s = JsonObj::new().str("k\"ey", "a\\b\nc").finish();
        assert_eq!(s, "{\"k\\\"ey\":\"a\\\\b\\nc\"}");
    }

    #[test]
    fn arrays_join_rendered_items() {
        assert_eq!(json_array(&[]), "[]");
        assert_eq!(
            json_array(&["1".into(), "{\"a\":2}".into()]),
            "[1,{\"a\":2}]"
        );
    }
}
