//! Chrome-trace ("Trace Event Format") export.
//!
//! Renders a [`Trace`] as the JSON object `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev) load directly: one complete
//! (`"ph": "X"`) event per span with microsecond `ts`/`dur`, the span's
//! counters (plus its `id`/`parent` links) under `args`, and a
//! `thread_name` metadata event per thread. Everything runs in `pid` 1;
//! `tid` is the trace-local thread id of [`SpanRecord::tid`].

use crate::span::{Session, SpanRecord, Trace};
use std::fmt::Write as _;

/// Escape `s` for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Render `trace` in chrome-trace JSON. Events are sorted by
/// `(tid, start, id)` so the output is stable for a given trace.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut spans: Vec<&SpanRecord> = trace.spans.iter().collect();
    spans.sort_by_key(|s| (s.tid, s.start_ns, s.id));

    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"displayTimeUnit\": \"ms\",");
    let _ = writeln!(j, "  \"traceEvents\": [");
    let mut first = true;
    let mut sep = |j: &mut String| {
        if !std::mem::take(&mut first) {
            let _ = writeln!(j, ",");
        }
    };
    for t in &tids {
        sep(&mut j);
        let name = if *t == 0 { "main".to_string() } else { format!("worker-{t}") };
        let _ = write!(
            j,
            "    {{\"ph\": \"M\", \"pid\": 1, \"tid\": {t}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"{name}\"}}}}"
        );
    }
    for s in &spans {
        sep(&mut j);
        let _ = write!(
            j,
            "    {{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": \"{}\", \"cat\": \"{}\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}",
            s.tid,
            escape_json(&s.name),
            escape_json(s.cat),
            us(s.start_ns),
            us(s.dur_ns),
            s.id,
        );
        if let Some(p) = s.parent {
            let _ = write!(j, ", \"parent\": {p}");
        }
        for (k, v) in &s.counters {
            let _ = write!(j, ", \"{}\": {v}", escape_json(k));
        }
        let _ = write!(j, "}}}}");
    }
    let _ = writeln!(j);
    let _ = writeln!(j, "  ]");
    let _ = write!(j, "}}");
    j
}

/// The `--trace PATH` option of the `colorist` CLI: run `work` under a fresh
/// [`Session`], write what it recorded to `path` as chrome-trace JSON and
/// report the span count on stderr. With no path, just run `work`.
pub fn traced<R>(path: Option<&str>, work: impl FnOnce() -> R) -> std::io::Result<R> {
    let Some(path) = path else { return Ok(work()) };
    let session = Session::start();
    let out = work();
    let trace = session.finish();
    std::fs::write(path, chrome_trace_json(&trace))?;
    eprintln!("trace: {} spans -> {path}", trace.spans.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn renders_metadata_and_complete_events() {
        let trace = Trace {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: None,
                    tid: 0,
                    cat: "query",
                    name: "execute:Q1".into(),
                    start_ns: 1_500,
                    dur_ns: 2_000,
                    counters: vec![("elements_scanned", 103)],
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    tid: 0,
                    cat: "op",
                    name: "scan".into(),
                    start_ns: 1_600,
                    dur_ns: 100,
                    counters: vec![],
                },
            ],
        };
        let j = chrome_trace_json(&trace);
        assert!(j.contains("\"thread_name\""), "{j}");
        assert!(j.contains("\"name\": \"execute:Q1\""), "{j}");
        assert!(j.contains("\"ts\": 1.500"), "{j}");
        assert!(j.contains("\"elements_scanned\": 103"), "{j}");
        assert!(j.contains("\"parent\": 1"), "{j}");
        crate::json::Json::parse(&j).expect("export is valid JSON");
    }
}
