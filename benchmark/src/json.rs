//! A write-only JSON value: enough to emit results, provenance and
//! trace files. There is deliberately no parser — the benchmark never
//! reads JSON back.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers keep every digit (an `f64` would round above 2^53).
    Int(i128),
    /// Non-finite values are written as `null`: JSON has no NaN.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so output is reproducible.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn uint(n: u64) -> Json {
        Json::Int(i128::from(n))
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{}` prints the shortest text that reads back to the same
            // f64 — every measured digit, never exponent form JSON
            // parsers reject.
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_nesting() {
        let v = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::uint(u64::MAX)),
            ("x", Json::Num(1.2034)),
            (
                "xs",
                Json::Arr(vec![Json::Num(0.5), Json::Null, Json::Int(-3)]),
            ),
            ("o", Json::obj([("k", Json::str("v"))])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"ok":true,"n":18446744073709551615,"x":1.2034,"xs":[0.5,null,-3],"o":{"k":"v"}}"#
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn floats_keep_every_digit_and_whole_floats_stay_numbers() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(1e21).render(), "1000000000000000000000");
        assert_eq!(Json::Num(1.5e-7).render(), "0.00000015");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::str("a\"b\\c\nd\te\u{1}µ");
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001µ\"");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).render(), "[]");
        assert_eq!(Json::Obj(vec![]).render(), "{}");
    }
}
