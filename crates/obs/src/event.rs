//! The structured event model and its JSONL encoding.
//!
//! Every observation the runtime produces is one [`Event`]: a span
//! boundary, a counter increment, a gauge sample, or the run manifest.
//! Events serialize to one flat JSON object per line; the subset of JSON
//! emitted here (strings, unsigned/float numbers, and a single nested
//! string→string `attrs` object) is exactly what [`crate::report`] parses
//! back, so a trace file round-trips without any external dependency.

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered (`id`, `parent`, `t_us`).
    SpanStart,
    /// A span was exited (`dur_us` holds the wall duration; attrs are
    /// attached here so values computed during the span are captured).
    SpanEnd,
    /// A monotone counter increment (`value` holds the delta).
    Counter,
    /// A point-in-time sample (`value` holds the sample).
    Gauge,
    /// A histogram snapshot (`value` holds the sample count; the bucket
    /// encoding lives in the attrs — see
    /// [`crate::hist::HistSnapshot::to_attrs`]).
    Hist,
    /// The run manifest, emitted once at sink installation.
    Manifest,
}

impl EventKind {
    /// Stable wire name used in the JSONL `type` field.
    pub fn wire_name(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Hist => "hist",
            EventKind::Manifest => "manifest",
        }
    }

    /// Inverse of [`wire_name`](Self::wire_name).
    pub fn from_wire_name(s: &str) -> Option<Self> {
        Some(match s {
            "span_start" => EventKind::SpanStart,
            "span_end" => EventKind::SpanEnd,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "hist" => EventKind::Hist,
            "manifest" => EventKind::Manifest,
            _ => return None,
        })
    }
}

/// One structured observation. See [`EventKind`] for field semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What this event records.
    pub kind: EventKind,
    /// Dotted event name, e.g. `check.zero_one` or `ir.pass`.
    pub name: String,
    /// Span id (allocation is global and starts at 1); 0 for non-span
    /// events.
    pub id: u64,
    /// Enclosing span id; 0 means root.
    pub parent: u64,
    /// Small per-process thread ordinal (not the OS thread id).
    pub thread: u64,
    /// Microseconds since the process-wide observation epoch.
    pub t_us: u64,
    /// Span wall duration in microseconds (`SpanEnd` only, else 0).
    pub dur_us: u64,
    /// Counter delta or gauge sample (else 0).
    pub value: f64,
    /// Free-form key/value annotations.
    pub attrs: Vec<(String, String)>,
}

impl Event {
    /// Encodes the event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"type\":\"");
        out.push_str(self.kind.wire_name());
        out.push_str("\",\"name\":");
        write_json_string(&mut out, &self.name);
        use std::fmt::Write as _;
        let _ = write!(
            out,
            ",\"id\":{},\"parent\":{},\"thread\":{},\"t_us\":{}",
            self.id, self.parent, self.thread, self.t_us
        );
        if self.dur_us != 0 {
            let _ = write!(out, ",\"dur_us\":{}", self.dur_us);
        }
        if self.value != 0.0 {
            let _ = write!(out, ",\"value\":{}", fmt_f64(self.value));
        }
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, k);
                out.push(':');
                write_json_string(&mut out, v);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Formats an `f64` so it parses back losslessly and never renders as
/// bare `NaN`/`inf` (invalid JSON): non-finite values clamp to 0.
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
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
    fn json_line_roundtrips_through_report_parser() {
        let ev = Event {
            kind: EventKind::SpanEnd,
            name: "check.zero_one".into(),
            id: 7,
            parent: 2,
            thread: 1,
            t_us: 1234,
            dur_us: 99,
            value: 0.0,
            attrs: vec![("wires".into(), "16".into()), ("note".into(), "a \"b\"\n".into())],
        };
        let line = ev.to_json_line();
        let back = crate::report::parse_event_line(&line).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn wire_names_roundtrip() {
        for kind in [
            EventKind::SpanStart,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Hist,
            EventKind::Manifest,
        ] {
            assert_eq!(EventKind::from_wire_name(kind.wire_name()), Some(kind));
        }
        assert_eq!(EventKind::from_wire_name("bogus"), None);
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(2.5), "2.5");
    }
}
