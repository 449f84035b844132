//! Reading reports and `BENCHMARK.json` back with the serve protocol's
//! codec, `armada::proto::Json`. That codec carries integers only, so every
//! number outside a string is first wrapped in a string marked with U+0001
//! (a character no report string contains); [`number`] and [`to_report`]
//! turn the marked strings back into numbers.

use armada::proto::Json;
use armada_bench::json::Json as Report;

const MARK: char = '\u{1}';

/// Parses JSON text that may hold fractional numbers.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut marked = String::with_capacity(text.len() + text.len() / 4);
    let mut chars = text.chars().peekable();
    let (mut in_string, mut escaped) = (false, false);
    while let Some(c) = chars.next() {
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            marked.push(c);
        } else if c == '-' || c.is_ascii_digit() {
            marked.push('"');
            marked.push(MARK);
            marked.push(c);
            while let Some(&d) = chars.peek() {
                if !(d.is_ascii_digit() || matches!(d, '.' | 'e' | 'E' | '+' | '-')) {
                    break;
                }
                marked.push(d);
                chars.next();
            }
            marked.push('"');
        } else {
            in_string = c == '"';
            marked.push(c);
        }
    }
    Json::parse(&marked)
}

/// The number a parsed value holds, if it is one.
pub fn number(value: &Json) -> Option<f64> {
    value.as_str()?.strip_prefix(MARK)?.parse().ok()
}

/// A field path lookup: `at(doc, &["summary", "warm"])`.
pub fn at<'a>(value: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(value, |v, key| v.get(key))
}

/// Converts a parsed value back into the report writer's type.
pub fn to_report(value: &Json) -> Report {
    match value {
        Json::Null => Report::Null,
        Json::Bool(b) => Report::Bool(*b),
        Json::Int(n) => Report::Num(*n as f64),
        Json::Str(s) => number(value).map_or_else(|| Report::Str(s.clone()), Report::Num),
        Json::Arr(items) => Report::Arr(items.iter().map(to_report).collect()),
        Json::Obj(fields) => Report::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), to_report(v)))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_documents_round_trip() {
        let doc = Report::obj([
            ("bound", Report::Num(0.1)),
            ("rate", Report::Num(-1.5e-7)),
            ("count", Report::int(42)),
            ("name", Report::str("a \"quoted\" 12.5 \\")),
            ("list", Report::Arr(vec![Report::Num(3.25), Report::Null])),
        ]);
        let parsed = parse(&doc.to_string()).expect("parses");
        assert_eq!(number(parsed.get("bound").expect("bound")), Some(0.1));
        assert_eq!(
            at(&parsed, &["name"]).and_then(Json::as_str),
            Some("a \"quoted\" 12.5 \\")
        );
        assert_eq!(to_report(&parsed), doc);
        assert!(parse("{\"a\": 1} x").is_err());
    }
}
