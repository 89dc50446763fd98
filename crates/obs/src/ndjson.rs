//! Newline-delimited JSON framing for streamed run reports.
//!
//! The serve layer streams one compact JSON document per line
//! (`application/x-ndjson`): every line parses independently through
//! [`crate::json::parse`], so a client can act on each completed job
//! without waiting for the end of the stream. [`line`](fn@line) renders
//! one value in that framing, [`Writer`] emits and flushes lines
//! incrementally, and [`parse_lines`] decodes a whole stream back into
//! values (the test-side inverse).

use std::io;

use crate::json::{parse, Json, ParseError};

/// Render one value as an NDJSON line: compact single-line form plus the
/// terminating `\n`. Compact rendering escapes string contents, so the
/// returned line contains exactly one newline — the terminator.
pub fn line(value: &Json) -> String {
    let mut s = value.to_compact();
    s.push('\n');
    s
}

/// Decode an NDJSON stream: one value per non-empty line. Blank lines
/// (and a trailing newline) are tolerated; any malformed line fails the
/// whole decode with its 1-based line number.
pub fn parse_lines(text: &str) -> Result<Vec<Json>, String> {
    let mut out = Vec::new();
    for (i, l) in text.lines().enumerate() {
        if l.trim().is_empty() {
            continue;
        }
        let v = parse(l).map_err(|e: ParseError| format!("line {}: {e}", i + 1))?;
        out.push(v);
    }
    Ok(out)
}

/// Incremental NDJSON emitter over any [`io::Write`]; each [`Writer::write`]
/// renders one line and flushes it, so a streamed HTTP response delivers
/// the line as soon as the job behind it completes.
pub struct Writer<W: io::Write> {
    sink: W,
    lines: u64,
}

impl<W: io::Write> Writer<W> {
    /// Wrap a sink.
    pub fn new(sink: W) -> Self {
        Writer { sink, lines: 0 }
    }

    /// Emit one value as a line and flush it down the sink.
    pub fn write(&mut self, value: &Json) -> io::Result<()> {
        self.sink.write_all(line(value).as_bytes())?;
        self.sink.flush()?;
        self.lines += 1;
        Ok(())
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Unwrap the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(i: u64) -> Json {
        Json::Obj(vec![
            ("obs_version".into(), Json::Num(1.0)),
            ("job".into(), Json::Num(i as f64)),
            ("note".into(), Json::Str(format!("line\nbreak {i}"))),
        ])
    }

    #[test]
    fn each_line_is_self_contained() {
        let l = line(&report(3));
        assert!(l.ends_with('\n'));
        assert_eq!(l.matches('\n').count(), 1, "{l:?}");
        let back = parse(l.trim_end()).unwrap();
        assert_eq!(back.get("job").unwrap().as_f64(), Some(3.0));
        assert_eq!(back.get("note").unwrap().as_str(), Some("line\nbreak 3"));
    }

    #[test]
    fn writer_streams_and_parse_lines_inverts() {
        let mut w = Writer::new(Vec::new());
        for i in 0..4 {
            w.write(&report(i)).unwrap();
        }
        assert_eq!(w.lines(), 4);
        let text = String::from_utf8(w.into_inner()).unwrap();
        let values = parse_lines(&text).unwrap();
        assert_eq!(values.len(), 4);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(v.get("job").unwrap().as_f64(), Some(i as f64));
        }
    }

    #[test]
    fn blank_lines_are_tolerated_and_garbage_is_located() {
        let ok = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(ok.len(), 2);
        let err = parse_lines("{\"a\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
