//! Spans recorded around the benchmark's calls into each layer of the
//! program, kept in memory and written out when the run ends. Nothing here
//! reaches inside the program: a span covers one call made from this
//! crate's own code.

use sage_util::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later spans are counted as dropped, so memory
/// stays bounded however long the run.
const SPAN_CAP: usize = 200_000;

/// One finished span: name, start and end relative to the tracer's
/// epoch, the span that caused it (0 = none), and a few numeric attributes.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve a span id up front, so children can name their parent
    /// before the parent span closes.
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Open a span now: its id and start time.
    pub fn start(&mut self) -> (u64, u64) {
        (self.open(), self.now_ns())
    }

    /// Record a finished span under an id from [`Tracer::open`].
    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        attrs: Vec<(&'static str, f64)>,
    ) {
        let end_ns = self.now_ns();
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            attrs,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line, preceded by a header
    /// line with the span and drop counts.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = Json::obj(vec![
            ("spans", Json::Num(self.spans.len() as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
        ])
        .to_string();
        out.push('\n');
        for s in &self.spans {
            let attrs = s.attrs.iter().map(|(k, v)| (*k, Json::Num(*v))).collect();
            let line = Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("attrs", Json::obj(attrs)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per span name: count, total duration and self time (duration minus
/// the part the span's direct children cover), in first-seen order.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += dur(s);
    }
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for s in spans {
        let own = dur(s).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        match out.iter_mut().find(|o| o.0 == s.name) {
            Some(o) => {
                o.1 += 1;
                o.2 += dur(s);
                o.3 += own;
            }
            None => out.push((s.name, 1, dur(s), own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_subtracts_children_from_self_time() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            attrs: Vec::new(),
        };
        let mut spans = vec![mk(2, 1, 10, 30), mk(3, 1, 40, 45), mk(1, 0, 0, 100)];
        spans[2].name = "root";
        assert_eq!(
            summary(&spans),
            vec![("x", 2, 25, 25), ("root", 1, 100, 75)]
        );
    }

    #[test]
    fn spans_round_trip_through_jsonl() {
        let mut t = Tracer::new();
        let root = t.open();
        let child = t.open();
        let s0 = t.now_ns();
        t.close(child, root, "child", s0, vec![("rows", 4.0)]);
        t.close(root, 0, "root", 0, Vec::new());
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        std::fs::remove_dir_all(&dir).ok();
        let lines: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("json"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("spans").and_then(Json::as_usize), Some(2));
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some("child"));
        assert_eq!(
            lines[1].get("parent").and_then(Json::as_usize),
            Some(root as usize)
        );
    }
}
