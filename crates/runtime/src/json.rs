//! The workspace's one JSON codec.
//!
//! The hermetic-build policy rules out serde (DESIGN.md, "Dependencies"),
//! so every JSON the workspace reads or writes goes through this module:
//! the `armada serve` wire frames, the `armada fuzz` campaign report, and
//! the `BENCH_*.json` benchmark reports. All of them escape strings with
//! the one [`quote`] function.
//!
//! Two value types remain, because the two uses want different numbers:
//!
//! * [`Json`] is the wire dialect — objects, arrays, strings, integers,
//!   booleans, null. It parses as well as encodes, and it is integer-only
//!   by design: a frame never carries a float, so `1e5` is a parse error.
//!   [`Json::pretty`] renders the fuzz report's indented layout.
//! * [`Report`] is a benchmark report tree. It carries measured floats
//!   ([`Report::Num`]) and is only ever written, compactly.
//!
//! Object keys keep insertion order in both, so encoding is deterministic.

use std::fmt::{self, Write as _};

/// A JSON value in the wire dialect (integers only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (None for other shapes).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes (compact, no extra whitespace).
    pub fn encode(&self) -> String {
        self.to_string()
    }

    /// Serializes for reading: an object puts one member per line, indented
    /// two spaces per depth, with `": "` after each key; an array stays on
    /// one line with `", "` between items unless it holds an object, in
    /// which case each item gets its own line. The text ends with a
    /// newline.
    pub fn pretty(&self) -> String {
        format!("{}\n", self.pretty_at(0))
    }

    fn pretty_at(&self, depth: usize) -> String {
        let block = |open: char, close: char, members: Vec<String>| {
            let indent = "  ".repeat(depth + 1);
            let members: Vec<String> = members.iter().map(|m| format!("\n{indent}{m}")).collect();
            format!("{open}{}\n{}{close}", members.join(","), "  ".repeat(depth))
        };
        match self {
            Json::Obj(fields) => block(
                '{',
                '}',
                fields
                    .iter()
                    .map(|(key, value)| {
                        format!("{}: {}", Json::Str(key.clone()), value.pretty_at(depth + 1))
                    })
                    .collect(),
            ),
            Json::Arr(items) if items.iter().any(|item| matches!(item, Json::Obj(_))) => block(
                '[',
                ']',
                items.iter().map(|item| item.pretty_at(depth + 1)).collect(),
            ),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(|item| item.pretty_at(depth)).collect();
                format!("[{}]", items.join(", "))
            }
            scalar => scalar.to_string(),
        }
    }

    /// Parses one JSON value; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, at: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    // Renders compact single-line JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => quote(f, s),
            Json::Arr(items) => write_arr(f, items),
            Json::Obj(fields) => write_obj(f, fields),
        }
    }
}

/// A benchmark report value. Unlike [`Json`] it carries floats, and it is
/// never parsed back by this module.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any finite number (emitted via Rust's shortest-roundtrip float
    /// formatting; integers print without a fraction).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Report>),
    /// An object, in insertion order.
    Obj(Vec<(String, Report)>),
}

impl Report {
    /// Convenience constructor for object literals.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Report)>) -> Report {
        Report::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Report {
        Report::Str(s.into())
    }

    /// Convenience constructor for integer counts.
    pub fn int(v: usize) -> Report {
        Report::Num(v as f64)
    }

    /// Looks up `key` in an object (None for other shapes).
    pub fn get(&self, key: &str) -> Option<&Report> {
        match self {
            Report::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl fmt::Display for Report {
    // Renders compact single-line JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Report::Null => f.write_str("null"),
            Report::Bool(b) => write!(f, "{b}"),
            Report::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                write!(f, "{}", *n as i64)
            }
            Report::Num(n) => write!(f, "{n}"),
            Report::Str(s) => quote(f, s),
            Report::Arr(items) => write_arr(f, items),
            Report::Obj(pairs) => write_obj(f, pairs),
        }
    }
}

/// Writes `[a,b]` compactly.
fn write_arr(f: &mut fmt::Formatter<'_>, items: &[impl fmt::Display]) -> fmt::Result {
    f.write_char('[')?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        write!(f, "{item}")?;
    }
    f.write_char(']')
}

/// Writes `{"k":v}` compactly.
fn write_obj(f: &mut fmt::Formatter<'_>, fields: &[(String, impl fmt::Display)]) -> fmt::Result {
    f.write_char('{')?;
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        quote(f, key)?;
        write!(f, ":{value}")?;
    }
    f.write_char('}')
}

/// Writes `s` as a quoted JSON string: `"`, `\` and the control characters
/// are escaped (`\n`, `\r`, `\t` by name, the rest as `\u00XX`); every
/// other character, multi-byte ones included, is written as is.
pub fn quote(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .text
            .as_bytes()
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.text[self.at..].starts_with(text) {
            self.at += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.at)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        // Integers only: the protocol never carries floats.
        let text = &self.text[start..self.at];
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| format!("bad integer `{text}` at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.at += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Copy the run of unescaped characters up to the next
                    // quote or backslash in one step: both are ASCII, so the
                    // run ends on a character boundary of the text.
                    let start = self.at;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.at += 1;
                    }
                    out.push_str(&self.text[start..self.at]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn json_round_trips_nested_values() {
        let value = Json::Obj(vec![
            ("s".into(), Json::Str("a \"quoted\"\nline\t\\".into())),
            ("n".into(), Json::Int(-42)),
            ("b".into(), Json::Bool(true)),
            ("z".into(), Json::Null),
            (
                "a".into(),
                Json::Arr(vec![Json::Int(1), Json::Str("x".into()), Json::Arr(vec![])]),
            ),
            ("o".into(), Json::Obj(vec![("k".into(), Json::Int(7))])),
        ]);
        let text = value.encode();
        assert_eq!(Json::parse(&text).unwrap(), value);
        assert_eq!(Json::parse(&value.pretty()).unwrap(), value);
        // Whitespace tolerance and unicode escapes.
        let spaced = Json::parse(" { \"k\" : [ 1 , \"\\u0041\" ] } ").unwrap();
        assert_eq!(
            spaced.get("k").unwrap(),
            &Json::Arr(vec![Json::Int(1), Json::Str("A".into())])
        );
        // Trailing garbage and floats are rejected.
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("1e5").is_err());
    }

    #[test]
    fn pretty_indents_objects_and_keeps_flat_arrays_inline() {
        let value = Json::Obj(vec![
            (
                "flat".into(),
                Json::Arr(vec![Json::Int(1), Json::Str("a".into())]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            (
                "rows".into(),
                Json::Arr(vec![Json::Obj(vec![("k".into(), Json::Null)])]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("b".into(), Json::Bool(false))]),
            ),
        ]);
        assert_eq!(
            value.pretty(),
            "{\n  \"flat\": [1, \"a\"],\n  \"empty\": [],\n  \"rows\": [\n    {\n      \
             \"k\": null\n    }\n  ],\n  \"nested\": {\n    \"b\": false\n  }\n}\n"
        );
    }

    #[test]
    fn report_renders_nested_values() {
        let value = Report::obj([
            ("name", Report::str("queue")),
            ("speedup", Report::Num(2.5)),
            ("nodes", Report::int(1234)),
            ("ok", Report::Bool(true)),
            (
                "trace",
                Report::Arr(vec![Report::str("a\"b"), Report::Null]),
            ),
        ]);
        assert_eq!(
            value.to_string(),
            r#"{"name":"queue","speedup":2.5,"nodes":1234,"ok":true,"trace":["a\"b",null]}"#
        );
    }

    #[test]
    fn report_escapes_control_characters() {
        assert_eq!(
            Report::str("a\nb\tc\u{1}").to_string(),
            "\"a\\nb\\tc\\u0001\""
        );
    }

    #[test]
    fn report_integers_have_no_fraction() {
        assert_eq!(Report::Num(3.0).to_string(), "3");
        assert_eq!(Report::Num(0.125).to_string(), "0.125");
    }

    #[test]
    fn seeded_strings_round_trip_and_escape_alike_in_every_writer() {
        let alphabet: Vec<char> = (0u8..0x80)
            .map(char::from)
            .chain(['é', '⊑', '€', '𝄞', '\u{7ff}', '\u{ffff}'])
            .collect();
        let mut rng = SplitMix64::new(0x15);
        let mut strings: Vec<String> = (0..500).map(|_| rng.string_from(&alphabet, 24)).collect();
        // A few strings of 64 KiB and more, one of them a single unescaped
        // run: the parser copies each run in one step, so these parse in
        // linear time.
        let unescaped: Vec<char> = alphabet
            .iter()
            .copied()
            .filter(|&c| c >= ' ' && c != '"' && c != '\\')
            .collect();
        for (letters, len) in [
            (&alphabet, 64 * 1024),
            (&alphabet, 100_000),
            (&unescaped, 80_000),
        ] {
            strings.push((0..len).map(|_| *rng.choose(letters)).collect());
        }
        for s in strings {
            let wire = Json::Str(s.clone()).encode();
            assert_eq!(Json::parse(&wire), Ok(Json::Str(s.clone())), "{s:?}");
            assert_eq!(Report::Str(s.clone()).to_string(), wire, "{s:?}");
            assert_eq!(Json::Str(s.clone()).pretty(), format!("{wire}\n"));
            // Keys go through the same escaper.
            let obj = Json::Obj(vec![(s.clone(), Json::Int(1))]);
            assert_eq!(Json::parse(&obj.encode()), Ok(obj.clone()));
            assert_eq!(Json::parse(&obj.pretty()), Ok(obj));
        }
    }
}
