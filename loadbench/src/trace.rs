//! In-memory span recorder. A span covers one call into a layer: its
//! name, start and end (ns since the run's epoch), the span that caused
//! it, and the request it belongs to. Spans are recorded only in traced
//! rounds, kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// No parent / no request.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Raw spans a recorder keeps for the dump; later spans are folded into
/// the per-name totals only, so memory stays bounded on long runs.
const KEEP_SPANS: usize = 100_000;

pub struct Tracer {
    epoch: Instant,
    on: bool,
    /// Distinguishes the recorders of concurrent clients in request ids.
    client: u32,
    next_request: u32,
    /// Spans of the current round; parents index into this buffer.
    round: Vec<Span>,
    open: Vec<u32>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, NameTotals>,
}

impl Tracer {
    pub fn new(epoch: Instant, client: u32) -> Tracer {
        Tracer {
            epoch,
            on: false,
            client,
            next_request: 0,
            round: Vec::new(),
            open: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh request id (client in the top byte).
    pub fn new_request(&mut self) -> u32 {
        self.next_request += 1;
        (self.client << 24) | (self.next_request & 0x00FF_FFFF)
    }

    /// Opens a span at `t` under the innermost open span.
    pub fn open_at(&mut self, name: &'static str, request: u32, t: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(self.round.len() as u32);
        let start_ns = self.ns(t);
        self.round.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span at `t`.
    pub fn close_at(&mut self, t: Instant) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(t);
        let idx = self.open.pop().expect("close without an open span");
        self.round[idx as usize].end_ns = end_ns;
    }

    pub fn open(&mut self, name: &'static str, request: u32) {
        if self.on {
            self.open_at(name, request, Instant::now());
        }
    }

    pub fn close(&mut self) {
        if self.on {
            self.close_at(Instant::now());
        }
    }

    /// Folds the finished round's spans into the per-name totals and
    /// keeps them for the dump while under the cap.
    pub fn end_round(&mut self) {
        assert!(self.open.is_empty(), "round ended inside a span");
        for (name, t) in self_times(&self.round) {
            let e = self.totals.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
        if self.kept.len() + self.round.len() <= KEEP_SPANS {
            let base = self.kept.len() as u32;
            self.kept.extend(self.round.iter().map(|s| Span {
                parent: if s.parent == NONE {
                    NONE
                } else {
                    base + s.parent
                },
                ..*s
            }));
        }
        self.round.clear();
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotals> {
        &self.totals
    }

    pub fn into_spans(mut self) -> Vec<Span> {
        self.end_round();
        self.kept
    }
}

/// Per-name totals: count, summed duration and summed self time (ns).
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of each span (its duration minus the part its children
/// cover), summed per name. Also checks that every child lies inside
/// its parent and that siblings do not overlap, so the self times of a
/// request tree sum exactly to its root's duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_child_end = vec![0u64; spans.len()];
    for s in spans {
        assert!(
            s.end_ns >= s.start_ns,
            "span {} ends before it starts",
            s.name
        );
        if s.parent != NONE {
            let p = s.parent as usize;
            let parent = &spans[p];
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "span {} escapes its parent {}",
                s.name,
                parent.name
            );
            assert!(
                s.start_ns >= last_child_end[p],
                "span {} overlaps a sibling",
                s.name
            );
            last_child_end[p] = s.end_ns;
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += s.end_ns - s.start_ns - child;
    }
    out
}

/// Writes every recorder's spans as tab-separated lines: index, name,
/// request id, parent index, start_ns, end_ns (-1 for no request or no
/// parent).
pub fn write_tsv(path: &std::path::Path, recorders: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\trequest\tparent\tstart_ns\tend_ns")?;
    let mut base = 0i64;
    for spans in recorders {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                base + i64::from(s.parent)
            };
            let request = if s.request == NONE {
                -1
            } else {
                i64::from(s.request)
            };
            writeln!(
                out,
                "{}\t{}\t{request}\t{parent}\t{}\t{}",
                base + i as i64,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        base += spans.len() as i64;
    }
    out.flush()
}
