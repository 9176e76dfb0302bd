//! The crate's one JSON codec: a value enum, a pretty-printing writer
//! and a recursive-descent parser. The workspace has no JSON
//! dependency, and the only documents that matter are the
//! `BENCH_<figure>.json` reports ([`crate::perf`] writes them,
//! [`crate::gate`] reads them back), so the codec covers exactly JSON
//! proper: objects, arrays, strings, numbers, `null`/`true`/`false`.
//! Non-finite numbers are written as `null` (JSON has no NaN/Infinity).

use std::fmt::Write as _;

/// A JSON value (numbers as `f64`; objects keep insertion order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes the value, two-space indented, one member per line.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) => block(out, depth, ['[', ']'], items, |out, item| {
                item.write_into(out, depth + 1);
            }),
            Json::Obj(members) => block(out, depth, ['{', '}'], members, |out, (key, value)| {
                out.push_str(&json_string(key));
                out.push_str(": ");
                value.write_into(out, depth + 1);
            }),
        }
    }
}

/// A bracketed block: `each` item on its own line one level below
/// `depth`, comma-separated; empty blocks stay on one line.
fn block<T>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    items: &[T],
    each: impl Fn(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        out.push_str(&"  ".repeat(depth + 1));
        each(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
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

/// Parses a JSON document. Errors quote the input they stopped at.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut rest = text;
    let v = value(&mut rest)?;
    if !rest.trim_start().is_empty() {
        return fail("trailing data", rest);
    }
    Ok(v)
}

fn fail<T>(what: &str, rest: &str) -> Result<T, String> {
    let near: String = rest.trim_start().chars().take(12).collect();
    Err(format!("{what} at {near:?}"))
}

/// Consumes `token` (after any whitespace) if it comes next.
fn eat(rest: &mut &str, token: &str) -> bool {
    match rest.trim_start().strip_prefix(token) {
        Some(after) => {
            *rest = after;
            true
        }
        None => false,
    }
}

fn value(rest: &mut &str) -> Result<Json, String> {
    if eat(rest, "null") {
        Ok(Json::Null)
    } else if eat(rest, "true") {
        Ok(Json::Bool(true))
    } else if eat(rest, "false") {
        Ok(Json::Bool(false))
    } else if eat(rest, "[") {
        sequence(rest, "]", value).map(Json::Arr)
    } else if eat(rest, "{") {
        let member = |rest: &mut &str| {
            let key = string(rest)?;
            if !eat(rest, ":") {
                return fail("expected ':'", rest);
            }
            Ok((key, value(rest)?))
        };
        sequence(rest, "}", member).map(Json::Obj)
    } else if rest.trim_start().starts_with('"') {
        string(rest).map(Json::Str)
    } else {
        let text = rest.trim_start();
        let is_num = |c: char| matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E');
        let (num, after) = text.split_at(text.find(|c| !is_num(c)).unwrap_or(text.len()));
        let Ok(v) = num.parse() else {
            return fail("expected a value", text);
        };
        *rest = after;
        Ok(Json::Num(v))
    }
}

/// Comma-separated `item`s up to `close`; the opener is already eaten.
fn sequence<T>(
    rest: &mut &str,
    close: &str,
    item: impl Fn(&mut &str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    if eat(rest, close) {
        return Ok(items);
    }
    loop {
        items.push(item(rest)?);
        if eat(rest, close) {
            return Ok(items);
        }
        if !eat(rest, ",") {
            return fail(&format!("expected ',' or '{close}'"), rest);
        }
    }
}

fn string(rest: &mut &str) -> Result<String, String> {
    if !eat(rest, "\"") {
        return fail("expected a string", rest);
    }
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        let c = match chars.next() {
            None => return fail("unterminated string", rest),
            Some('"') => {
                *rest = chars.as_str();
                return Ok(out);
            }
            Some('\\') => match chars.next() {
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some(c @ ('"' | '\\' | '/')) => c,
                Some('u') => {
                    let tail = chars.as_str();
                    let code = tail
                        .get(..4)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32);
                    let Some(c) = code else {
                        return fail("bad \\u escape", tail);
                    };
                    chars = tail[4..].chars();
                    c
                }
                _ => return fail("bad escape", chars.as_str()),
            },
            Some(c) => c,
        };
        out.push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e3, null, true], "b\n": {"c": "d\"e"}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Null,
                Json::Bool(true),
            ])
        );
        assert_eq!(
            v.get("b\n").unwrap().get("c").unwrap().as_str(),
            Some("d\"e")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "{",
            "{}x",
            "{\"a\" 1}",
            "\"\\u12",
            "\"\\ud800\"",
            "[1,]",
            "-",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn strings_are_escaped_and_non_finite_is_null() {
        assert_eq!(json_string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
        assert_eq!(Json::Num(f64::NAN).write(), "null\n");
        assert_eq!(Json::Num(f64::NEG_INFINITY).write(), "null\n");
    }

    /// A key drawn from the characters that exercise every escape
    /// class: quotes, backslashes, control chars, ASCII, multi-byte.
    fn key(picks: &[u8]) -> String {
        const ALPHABET: [char; 12] = [
            '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'a', '_', 'é', '✓',
        ];
        picks
            .iter()
            .map(|p| ALPHABET[*p as usize % ALPHABET.len()])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever flat report the writer emits, the parser reads back
        /// member for member; non-finite numbers come back as `null`.
        #[test]
        fn flat_reports_round_trip(
            members in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..6), any::<u64>()),
                0..8,
            ),
            title in proptest::collection::vec(any::<u8>(), 0..6),
        ) {
            // Raw bit patterns cover negatives, subnormals, huge
            // exponents, NaN and the infinities.
            let metrics: Vec<(String, Json)> = members
                .iter()
                .map(|(k, bits)| (key(k), Json::Num(f64::from_bits(*bits))))
                .collect();
            let doc = Json::Obj(vec![
                ("figure".into(), Json::Str(key(&title))),
                ("metrics".into(), Json::Obj(metrics.clone())),
                ("tags".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ]);
            let expected_metrics: Vec<(String, Json)> = metrics
                .into_iter()
                .map(|(k, v)| match v {
                    Json::Num(n) if !n.is_finite() => (k, Json::Null),
                    v => (k, v),
                })
                .collect();
            let back = parse_json(&doc.write()).expect("the writer's output parses");
            prop_assert_eq!(back.get("figure"), doc.get("figure"));
            prop_assert_eq!(back.get("metrics"), Some(&Json::Obj(expected_metrics)));
            prop_assert_eq!(back.get("tags"), doc.get("tags"));
        }
    }
}
