//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and a
//! request id; the spans of one request share its id, and no two
//! requests of a run share one (ids come from [`Tracer::rids`]). Spans stay in memory until the run ends, when they are
//! written out as TSV. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    rid: u64,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<u32>);

/// A span recorder. When off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<String>,
    ids: HashMap<String, u32>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// The next unreserved request id.
    next_rid: u64,
}

/// Self time of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, microseconds.
    pub fn mean_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            names: Vec::new(),
            ids: HashMap::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_rid: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Reserves `n` consecutive request ids no other reservation on this
    /// recorder overlaps; returns the first.
    pub fn rids(&mut self, n: u64) -> u64 {
        let first = self.next_rid;
        self.next_rid += n;
        first
    }

    fn name_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn begin(&mut self, name: &str, rid: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let name = self.name_id(name);
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let index = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, rid });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open` now. Spans close innermost first.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let end_ns = self.ns(Instant::now());
            self.spans[index as usize].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
    }

    /// Records a finished span after the fact; returns its handle for
    /// children recorded the same way.
    pub fn record(
        &mut self,
        name: &str,
        rid: u64,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let name = self.name_id(name);
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.unwrap_or(NO_PARENT),
            rid,
        };
        self.spans.push(span);
        Some((self.spans.len() - 1) as u32)
    }

    /// Moves `other`'s spans into this recorder (same epoch assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let remap: Vec<u32> = other.names.iter().map(|n| self.name_id(n)).collect();
        for span in other.spans {
            let parent = if span.parent == NO_PARENT { NO_PARENT } else { span.parent + base };
            self.spans.push(Span { name: remap[span.name as usize], parent, ..span });
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent != NO_PARENT {
                children[span.parent as usize].push(i as u32);
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let child = &self.spans[c as usize];
                    (child.start_ns.max(span.start_ns), child.end_ns.min(span.end_ns))
                })
                .filter(|(s, e)| e > s)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let entry = out.entry(self.names[span.name as usize].clone()).or_insert(SelfTime {
                count: 0,
                self_ns: 0,
                total_ns: 0,
            });
            entry.count += 1;
            entry.self_ns += total - covered.min(total);
            entry.total_ns += total;
        }
        out
    }

    /// Writes every span as `id name rid parent start_ns end_ns` TSV.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\trid\tparent\tstart_ns\tend_ns")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent =
                if span.parent == NO_PARENT { "-".to_owned() } else { span.parent.to_string() };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                self.names[span.name as usize], span.rid, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut t = Tracer::new(true, epoch);
        let root = t.record("root", 1, at(0), at(100), None);
        // Two overlapping children cover 10..50; a third covers 60..70.
        t.record("child", 1, at(10), at(40), root);
        t.record("child", 1, at(30), at(50), root);
        t.record("other", 1, at(60), at(70), root);
        let times = t.self_times();
        assert_eq!(times["root"].self_ns, 50_000_000);
        assert_eq!(times["root"].total_ns, 100_000_000);
        assert_eq!(times["child"].count, 2);
        assert_eq!(times["child"].self_ns, 50_000_000);
    }

    #[test]
    fn off_records_nothing_and_absorb_keeps_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        let open = off.begin("x", 0);
        off.end(open);
        assert_eq!(off.span_count(), 0);

        let mut a = Tracer::new(true, epoch);
        let open = a.begin("a", 0);
        a.end(open);
        let mut b = Tracer::new(true, epoch);
        let outer = b.begin("outer", 7);
        let inner = b.begin("inner", 7);
        b.end(inner);
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.span_count(), 3);
        let times = a.self_times();
        assert!(times["outer"].self_ns <= times["outer"].total_ns);
        assert_eq!(times["inner"].count, 1);
    }

    #[test]
    fn reserved_request_ids_never_overlap() {
        let mut t = Tracer::new(false, Instant::now());
        let a = t.rids(3);
        let b = t.rids(1);
        let c = t.rids(5);
        assert_eq!((a, b, c), (0, 3, 4));
    }
}
