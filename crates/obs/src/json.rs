//! A minimal JSON value, parser and emitter.
//!
//! Enough JSON for the repo's machine-readable artefacts
//! (`BENCH_*.json`, obs run reports): objects keep insertion order, the
//! parser is a strict recursive-descent over the standard grammar (with
//! `\uXXXX` basic-plane escapes), and the emitter renders numbers in
//! shortest-round-trip form with integers undecorated. No external
//! crates — the build is offline.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (stable diffs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key→value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// Render with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render on a single line with no insignificant whitespace and no
    /// trailing newline — the NDJSON framing form ([`crate::ndjson`]).
    /// String contents are escaped, so the output never contains a raw
    /// newline regardless of the value.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => out.push_str(&format_num(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => out.push_str(&format_num(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// Render a number: integers undecorated, everything else in Rust's
/// shortest-round-trip float form. JSON has no NaN/Infinity, so
/// non-finite values degrade to `null` (the `JSON.stringify` convention)
/// instead of emitting an unparseable document.
fn format_num(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parse failure: message plus byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset of the failure.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a small document of nothing but
/// `[` overflows the caller's stack. At 512 levels a parse needs under
/// 256 KiB of stack in a release build and under 1 MiB in a debug build,
/// inside the 2 MiB of a spawned thread; real documents nest a few levels.
const MAX_DEPTH: usize = 512;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected, nesting deeper than 512 levels rejected).
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
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
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.at += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let rest = &self.bytes[self.at..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        match v.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].get("b"), Some(&Json::Null));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        // `\u` takes exactly four hex digits (no sign).
        assert!(parse("\"\\u+041\"").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.msg.as_str(), e.at), ("nesting too deep", MAX_DEPTH));
        let objects = "{\"a\": ".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objects).unwrap_err().msg, "nesting too deep");
        // A megabyte of `[` is an error, not a stack overflow.
        assert_eq!(
            parse(&"[".repeat(1 << 20)).unwrap_err().msg,
            "nesting too deep"
        );
    }

    #[test]
    fn round_trips_through_pretty_printer() {
        let src = r#"{"bench": "evaluate_all", "wall_s_median": 0.385604, "stages_s": {"compile": 0.134046}, "list": [1, 2.5, "x"], "empty": {}}"#;
        let v = parse(src).unwrap();
        let printed = v.to_pretty();
        assert_eq!(parse(&printed).unwrap(), v);
        // Integers print undecorated; floats round-trip.
        assert!(printed.contains("\"list\""));
        assert!(printed.contains("0.385604"));
    }

    #[test]
    fn compact_form_is_one_line_and_round_trips() {
        let src = r#"{"a": [1, {"b": null}], "s": "x\ny", "empty": {}, "e": []}"#;
        let v = parse(src).unwrap();
        let compact = v.to_compact();
        assert!(!compact.contains('\n'), "{compact}");
        assert!(!compact.contains(": "), "{compact}");
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(
            compact,
            r#"{"a":[1,{"b":null}],"s":"x\ny","empty":{},"e":[]}"#
        );
    }

    #[test]
    fn non_finite_numbers_emit_null_not_invalid_json() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![("x".into(), Json::Num(bad))]);
            let printed = doc.to_pretty();
            let back = parse(&printed).expect("emitted JSON must parse");
            assert_eq!(back.get("x"), Some(&Json::Null), "{printed}");
        }
    }

    #[test]
    fn parses_the_committed_bench_schema() {
        let src = r#"{
  "bench": "evaluate_all",
  "pairs": 104,
  "stages_s": {
    "build_ir": 0.000124
  },
  "threads": 1
}
"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("pairs").unwrap().as_f64(), Some(104.0));
        assert_eq!(
            v.get("stages_s").unwrap().get("build_ir").unwrap().as_f64(),
            Some(0.000124)
        );
    }
}
