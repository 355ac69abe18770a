//! Spans recorded by the benchmark around its calls into each crate, and
//! the timing middlebox that wraps the adversary.
//!
//! A traced run keeps every span in memory and writes them out when the
//! run ends. Each span has a name, start, end, parent and op id. Calls
//! that happen once per packet (the adversary's `process`, the TLS
//! replay's seal and open) are summed into one span per op, so memory
//! grows with ops, not packets; a summed span starts at its parent's start
//! and lasts the summed time.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use h2priv_core::Adversary;
use h2priv_netsim::{MbContext, Middlebox, Packet, Verdict};
use h2priv_tcp::TcpSegment;

/// The run's time base, shared by every worker thread.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the run's time base.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `testkit.simulate`.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: u64,
    /// Start, ns since the run's time base.
    pub start_ns: u64,
    /// End, ns since the run's time base.
    pub end_ns: u64,
    /// Index of the parent span within the same op's list.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records one op's spans; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for op `op`, recording only when `on`.
    pub fn new(on: bool, op: u64) -> Tracer {
        Tracer {
            on,
            op,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; returns its index (meaningless when off).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if self.on {
            let t = now_ns();
            self.spans.push(Span {
                name,
                op: self.op,
                start_ns: t,
                end_ns: t,
                parent,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    /// Closes the span `idx` opened.
    pub fn close(&mut self, idx: usize) {
        if self.on {
            self.spans[idx].end_ns = now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Adds a summed span of `ns` under `parent`.
    pub fn summed(&mut self, name: &'static str, parent: usize, ns: u64) {
        if self.on {
            let start_ns = self.spans[parent].start_ns;
            self.spans.push(Span {
                name,
                op: self.op,
                start_ns,
                end_ns: start_ns + ns,
                parent: Some(parent),
            });
        }
    }

    /// The recorded spans.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span in `spans` (one op's list): its duration minus
/// the durations of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Writes every op's spans as JSON lines (`op`, `name`, `start_ns`,
/// `end_ns`, `parent` as a line index within the file, `self_ns`).
pub fn write_spans(path: &std::path::Path, ops: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0usize;
    for spans in ops {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| (base + p).to_string());
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, parent, self_ns
            )?;
        }
        base += spans.len();
    }
    out.flush()
}

/// Verdict counts and summed call time of the wrapped adversary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryTally {
    /// `process` calls (packets the adversary inspected).
    pub calls: u64,
    /// `Hold` verdicts.
    pub holds: u64,
    /// `Drop` verdicts.
    pub drops: u64,
    /// Host time inside `process`, ns (timed runs only).
    pub ns: u64,
}

/// The timing middlebox: forwards every packet to the adversary, counts
/// its verdicts, and (when timed) sums the host time of each call. It is
/// installed in the public adversary slot of `build_scenario` and
/// `run_fleet_shard`, so the program runs unchanged around it.
pub struct TimedAdversary {
    inner: Rc<RefCell<Adversary>>,
    tally: Rc<Cell<AdversaryTally>>,
    timed: bool,
}

impl TimedAdversary {
    /// Wraps `inner`; the returned handle reads the tally after the run.
    pub fn new(
        inner: Rc<RefCell<Adversary>>,
        timed: bool,
    ) -> (TimedAdversary, Rc<Cell<AdversaryTally>>) {
        let tally = Rc::new(Cell::new(AdversaryTally::default()));
        (
            TimedAdversary {
                inner,
                tally: tally.clone(),
                timed,
            },
            tally,
        )
    }
}

impl Middlebox<TcpSegment> for TimedAdversary {
    fn process(&mut self, packet: &Packet<TcpSegment>, ctx: &mut MbContext<'_>) -> Verdict {
        let t0 = self.timed.then(Instant::now);
        let verdict = self.inner.borrow_mut().process(packet, ctx);
        let mut tally = self.tally.get();
        if let Some(t0) = t0 {
            tally.ns += t0.elapsed().as_nanos() as u64;
        }
        tally.calls += 1;
        match verdict {
            Verdict::Hold(_) => tally.holds += 1,
            Verdict::Drop => tally.drops += 1,
            Verdict::Forward => {}
        }
        self.tally.set(tally);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "op",
                op: 0,
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                op: 0,
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                op: 0,
                start_ns: 10,
                end_ns: 20,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 3);
        let root = t.open("op", None);
        t.summed("x", root, 5);
        t.close(root);
        assert!(t.finish().is_empty());
    }
}
