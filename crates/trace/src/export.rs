//! Trace exporters: JSONL event dumps, the Chrome `trace_event` format,
//! and a schema validator for the JSONL output.
//!
//! The vendored `serde` is a no-op stub, so both writers and the
//! validator are hand-rolled against the fixed, flat event schema — one
//! JSON object per line with exactly the eight event fields:
//!
//! ```json
//! {"kind":"purge","lane":0,"seq":12,"vt_us":4000,"wall_ns":91822,"dur_ns":512,"a":2,"b":2}
//! ```

use std::fmt::Write as _;

use crate::event::{lane_name, Lane, TraceEvent, TraceKind};

/// One event as a JSONL line (no trailing newline).
pub fn jsonl_line(e: &TraceEvent) -> String {
    format!(
        "{{\"kind\":\"{}\",\"lane\":{},\"seq\":{},\"vt_us\":{},\"wall_ns\":{},\"dur_ns\":{},\"a\":{},\"b\":{}}}",
        e.kind.name(),
        e.lane,
        e.seq,
        e.vt_us,
        e.wall_ns,
        e.dur_ns,
        e.a,
        e.b
    )
}

/// All events as JSONL (one object per line, trailing newline).
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&jsonl_line(e));
        out.push('\n');
    }
    out
}

/// All events in Chrome `trace_event` JSON (load via `chrome://tracing`
/// or Perfetto). Each lane becomes one "thread": spans are complete
/// (`ph: "X"`) events, instants are `ph: "i"` with thread scope.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut lanes: Vec<Lane> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut out = String::with_capacity(events.len() * 160 + 256);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for lane in &lanes {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            lane_name(*lane)
        );
    }
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts_us = e.wall_ns as f64 / 1_000.0;
        let args = format!(
            "{{\"vt_us\":{},\"a\":{},\"b\":{},\"seq\":{}}}",
            e.vt_us, e.a, e.b, e.seq
        );
        if e.dur_ns > 0 || e.kind.is_span() {
            let dur_us = (e.dur_ns as f64 / 1_000.0).max(0.001);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"args\":{args}}}",
                e.lane,
                e.kind.name()
            );
        } else {
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"ts\":{ts_us:.3},\"s\":\"t\",\"args\":{args}}}",
                e.lane,
                e.kind.name()
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// An event parsed back from a JSONL line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedEvent {
    /// The event kind.
    pub kind: TraceKind,
    /// The lane.
    pub lane: Lane,
    /// Per-lane sequence.
    pub seq: u64,
    /// Virtual time, µs.
    pub vt_us: u64,
    /// Wall time since epoch, ns.
    pub wall_ns: u64,
    /// Span duration, ns.
    pub dur_ns: u64,
    /// Payload a.
    pub a: u64,
    /// Payload b.
    pub b: u64,
}

/// Validates a JSONL dump against the event schema: every non-empty line
/// must be a flat JSON object carrying exactly the eight event fields
/// with the right types, and `kind` must name a known [`TraceKind`].
/// Returns the parsed events, or a message naming the first offending
/// line.
pub fn validate_jsonl(input: &str) -> Result<Vec<ParsedEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields =
            parse_flat_object(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let expect = ["kind", "lane", "seq", "vt_us", "wall_ns", "dur_ns", "a", "b"];
        for key in expect {
            if !fields.iter().any(|(k, _)| k == key) {
                return Err(format!("line {}: missing field \"{key}\"", i + 1));
            }
        }
        if fields.len() != expect.len() {
            return Err(format!(
                "line {}: expected {} fields, found {}",
                i + 1,
                expect.len(),
                fields.len()
            ));
        }
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        let kind_raw = match get("kind") {
            Some(JsonValue::Str(s)) => s,
            _ => return Err(format!("line {}: \"kind\" must be a string", i + 1)),
        };
        let kind = TraceKind::from_name(&kind_raw)
            .ok_or_else(|| format!("line {}: unknown kind \"{kind_raw}\"", i + 1))?;
        let num = |key: &str| -> Result<u64, String> {
            match get(key) {
                Some(JsonValue::Num(n)) => Ok(n),
                _ => Err(format!("line {}: \"{key}\" must be an unsigned integer", i + 1)),
            }
        };
        events.push(ParsedEvent {
            kind,
            lane: num("lane")? as Lane,
            seq: num("seq")?,
            vt_us: num("vt_us")?,
            wall_ns: num("wall_ns")?,
            dur_ns: num("dur_ns")?,
            a: num("a")?,
            b: num("b")?,
        });
    }
    Ok(events)
}

/// A value in a flat JSONL line: the schemas here (trace events, cluster
/// telemetry) only ever carry strings and unsigned integers.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string value (no escape sequences).
    Str(String),
    /// An unsigned integer value.
    Num(u64),
}

/// Parses a single-line flat JSON object of string / unsigned-integer
/// values — the only shape the JSONL schemas allow. Shared by the event
/// validator here and the cluster-telemetry validator in `punct-cluster`.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = line.chars().peekable();
    let mut fields = Vec::new();

    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected '\"'".into());
            }
            let mut s = String::new();
            for c in chars.by_ref() {
                match c {
                    '"' => return Ok(s),
                    '\\' => return Err("escape sequences are not in the event schema".into()),
                    c => s.push(c),
                }
            }
            Err("unterminated string".into())
        };

    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            _ => return Err("expected field name".into()),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after \"{key}\""));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => {
                let mut digits = String::new();
                while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                    digits.push(chars.next().unwrap());
                }
                JsonValue::Num(
                    digits.parse().map_err(|_| format!("number out of range for \"{key}\""))?,
                )
            }
            _ => return Err(format!("unsupported value for \"{key}\"")),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::instant(TraceKind::PunctArrive, 0, 100, 50, 3, 0),
            TraceEvent {
                kind: TraceKind::Purge,
                lane: 1,
                seq: 1,
                vt_us: 200,
                wall_ns: 80,
                dur_ns: 30,
                a: 5,
                b: 2,
            },
            TraceEvent::instant(TraceKind::Route, crate::LANE_ROUTER, 300, 120, 0, 1),
        ]
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let events = sample_events();
        let dump = jsonl(&events);
        let parsed = validate_jsonl(&dump).expect("valid dump");
        assert_eq!(parsed.len(), events.len());
        for (p, e) in parsed.iter().zip(events.iter()) {
            assert_eq!(p.kind, e.kind);
            assert_eq!(p.lane, e.lane);
            assert_eq!(p.vt_us, e.vt_us);
            assert_eq!(p.wall_ns, e.wall_ns);
            assert_eq!(p.dur_ns, e.dur_ns);
            assert_eq!(p.a, e.a);
            assert_eq!(p.b, e.b);
        }
    }

    #[test]
    fn validator_rejects_bad_lines() {
        assert!(validate_jsonl("not json").is_err());
        assert!(validate_jsonl("{\"kind\":\"purge\"}").unwrap_err().contains("missing field"));
        let unknown = "{\"kind\":\"warp\",\"lane\":0,\"seq\":0,\"vt_us\":0,\"wall_ns\":0,\"dur_ns\":0,\"a\":0,\"b\":0}";
        assert!(validate_jsonl(unknown).unwrap_err().contains("unknown kind"));
        let bad_type = "{\"kind\":\"purge\",\"lane\":\"x\",\"seq\":0,\"vt_us\":0,\"wall_ns\":0,\"dur_ns\":0,\"a\":0,\"b\":0}";
        assert!(validate_jsonl(bad_type).unwrap_err().contains("unsigned integer"));
        let extra = "{\"kind\":\"purge\",\"lane\":0,\"seq\":0,\"vt_us\":0,\"wall_ns\":0,\"dur_ns\":0,\"a\":0,\"b\":0,\"c\":1}";
        assert!(validate_jsonl(extra).unwrap_err().contains("expected 8 fields"));
        // Blank lines are fine.
        assert!(validate_jsonl("\n\n").unwrap().is_empty());
    }

    #[test]
    fn chrome_trace_names_lanes_and_phases() {
        let out = chrome_trace(&sample_events());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"thread_name\""));
        assert!(out.contains("\"shard-0\""));
        assert!(out.contains("\"shard-1\""));
        assert!(out.contains("\"router\""));
        // The purge span is a complete event; the instants are "i".
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"name\":\"purge\""));
        assert!(out.trim_end().ends_with("]}"));
    }
}
