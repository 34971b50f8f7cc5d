//! In-memory span recording for the traced run, written out at the end.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and a request id shared by the spans
//! of one request. Each thread records into its own [`Recorder`]; span
//! ids carry the thread tag, so parents may live on another thread.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub req: u64,
}

/// Spans kept per recorder; beyond this, spans are counted, not kept.
const MAX_SPANS: usize = 100_000;

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tag: u64,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// A recorder timing against `epoch`. A disabled recorder records
    /// nothing and hands out no ids.
    pub fn new(epoch: Instant, tag: u64, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            tag,
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        req: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let id = (self.tag << 48) | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        id
    }

    /// Time `f` as a span; returns its result and the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, req);
        (out, end - start)
    }

    /// Reserve an id for a span whose end is not known yet; finish it
    /// with [`Recorder::close`]. Children may name it as their parent
    /// in the meantime.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, req: u64) -> Option<u64> {
        let now = self.now_ns();
        let id = self.record(name, now, now, parent, req);
        (id != 0).then_some(id)
    }

    pub fn close(&mut self, id: Option<u64>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let idx = (id & ((1 << 48) - 1)) as usize - 1;
        self.spans[idx].end_ns = now;
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of a span over `[start, end]`: its duration minus the part
/// of that interval its children cover. Children may nest inside one
/// another, overlap (another thread's work), or reach outside the
/// parent; only the covered part inside the parent counts, once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// Total self time per span name over `spans`.
pub fn self_times_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        *out.entry(s.name).or_default() += self_time(s.start_ns, s.end_ns, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_children_is_whole_duration() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn disjoint_children_subtract() {
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn nested_children_count_once() {
        // (20, 30) lies inside (10, 40).
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 30)]), 70);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Union of (10, 40) and (30, 60) is (10, 60).
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 40)]), 50);
        // Touching intervals merge too.
        assert_eq!(self_time(0, 100, &[(10, 20), (20, 30)]), 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(50, 100, &[(0, 10), (150, 200)]), 50);
        assert_eq!(self_time(0, 100, &[(0, 100), (10, 20)]), 0);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 1, true);
        let root = r.record("tick", 0, 100, None, 7);
        let step = r.record("step", 10, 60, Some(root), 7);
        r.record("inner", 20, 30, Some(step), 7);
        // Another thread's span under the same root, overlapping `step`.
        let mut other = Recorder::new(epoch, 2, true);
        other.record("read", 50, 70, Some(root), 7);
        r.absorb(other);
        let st = self_times_by_name(r.spans());
        assert_eq!(st["tick"], 100 - 60);
        assert_eq!(st["step"], 50 - 10);
        assert_eq!(st["inner"], 10);
        assert_eq!(st["read"], 20);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), 1, false);
        assert_eq!(r.record("x", 0, 1, None, 0), 0);
        assert!(r.open("y", None, 0).is_none());
        assert!(r.spans().is_empty());
    }
}
