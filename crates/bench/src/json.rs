//! The crate's one JSON writer: a value enum and a pretty printer. The
//! workspace has no JSON dependency, and the only documents written are
//! the `BENCH_<figure>.json` reports ([`crate::perf`]), which are flat
//! objects of strings and numbers, so that is all the value covers.
//! Nothing reads JSON back: a report is checked against its baseline as
//! text. Non-finite numbers are written as `null` (JSON has no
//! NaN/Infinity).

use std::fmt::Write as _;

/// A JSON value (numbers as `f64`; objects keep insertion order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Any JSON number; non-finite ones are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serializes the value, two-space indented, one member per line.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => out.push_str(&json_string(s)),
            // Each member on its own line one level below `depth`,
            // comma-separated; an empty object stays on one line.
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&"  ".repeat(depth + 1));
                    out.push_str(&json_string(key));
                    out.push_str(": ");
                    value.write_into(out, depth + 1);
                }
                if !members.is_empty() {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push('}');
            }
        }
    }
}

/// Minimal JSON string escape (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_non_finite_is_null() {
        assert_eq!(json_string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
        assert_eq!(Json::Num(f64::NAN).write(), "null\n");
        assert_eq!(Json::Num(f64::NEG_INFINITY).write(), "null\n");
    }
}
