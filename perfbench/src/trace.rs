//! Tracing from the outside: in-memory spans the benchmark records around
//! its calls into the system's public functions, and a timing wrapper for
//! the guest↔host boundary that the benchmark installs in `AppSpec.hosts`.
//!
//! Spans carry a name, start, end, parent and operation id; they stay in
//! memory and are written out as JSON lines when the run ends. A span's
//! self time is its duration minus the durations of its direct children.

use distrust_core::abi::AppHost;
use distrust_sandbox::vm::Memory;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `crypto.verify_partial`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Handle to an open span; inert when tracing was off at `begin`.
#[derive(Clone, Copy, Debug)]
#[must_use = "a span must be ended"]
pub struct SpanId(Option<usize>);

/// In-memory span recorder for the single load-generating thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A disabled tracer; [`Tracer::set_enabled`] turns recording on.
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off; call only between operations.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens the root span of operation `op`.
    pub fn begin_op(&mut self, op: u64, name: &'static str) -> SpanId {
        self.op = op;
        self.begin(name)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span (and any child left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        self.spans[index].end = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            if top == index {
                break;
            }
        }
    }

    /// All spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self times (ms) of every span called `name`: duration minus the
    /// time its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.ms();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ms() - c)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                parent,
                s.op
            )?;
        }
        out.flush()
    }
}

/// Host-call counters of one trust domain.
#[derive(Default)]
pub struct HostCounters {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl HostCounters {
    /// Host calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Time spent inside timed host calls so far.
    pub fn host_time(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// Counts every host call and, if `timed`, times it. The counters are
/// statistics only (relaxed atomics publish nothing else).
pub struct TimingHost {
    inner: Box<dyn AppHost>,
    counters: Arc<HostCounters>,
    timed: bool,
}

impl TimingHost {
    /// Wraps `inner`, reporting into `counters`.
    pub fn new(inner: Box<dyn AppHost>, counters: Arc<HostCounters>, timed: bool) -> Self {
        Self {
            inner,
            counters,
            timed,
        }
    }
}

impl AppHost for TimingHost {
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if !self.timed {
            return self.inner.call(name, args, memory);
        }
        let started = Instant::now();
        let result = self.inner.call(name, args, memory);
        self.counters
            .nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

/// Host-call counting for every domain of one deployment (one counter
/// set per domain, so the domains' threads never share a cache line).
#[derive(Clone, Default)]
pub struct HostCallCounters {
    /// One counter set per trust domain, index-ordered.
    pub domains: Vec<Arc<HostCounters>>,
}

impl HostCallCounters {
    /// Wraps each domain's host in a counting (untimed) [`TimingHost`].
    pub fn wrap(&mut self, hosts: Vec<Box<dyn AppHost>>) -> Vec<Box<dyn AppHost>> {
        hosts
            .into_iter()
            .map(|inner| {
                let counters = Arc::new(HostCounters::default());
                self.domains.push(Arc::clone(&counters));
                Box::new(TimingHost::new(inner, counters, false)) as Box<dyn AppHost>
            })
            .collect()
    }

    /// Host calls over all domains.
    pub fn calls(&self) -> u64 {
        self.domains.iter().map(|c| c.calls()).sum()
    }

    /// Waits until no domain has made a host call for a while, so work a
    /// client abandoned (a straggler's partial signature) is counted, and
    /// returns the settled call count.
    pub fn settle(&self) -> u64 {
        let mut last = self.calls();
        loop {
            std::thread::sleep(Duration::from_millis(50));
            let now = self.calls();
            if now == last {
                return now;
            }
            last = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let op = t.begin_op(7, "op");
        let child = t.begin("child");
        let grandchild = t.begin("grandchild");
        std::thread::sleep(Duration::from_millis(4));
        t.end(grandchild);
        t.end(child);
        std::thread::sleep(Duration::from_millis(2));
        t.end(op);
        let op_ms = t.durations_ms("op")[0];
        let child_ms = t.durations_ms("child")[0];
        let self_ms = t.self_ms("op")[0];
        assert!((op_ms - child_ms - self_ms).abs() < 1e-9);
        assert!(self_ms >= 2.0);
        assert_eq!(
            t.self_ms("child")[0],
            child_ms - t.durations_ms("grandchild")[0]
        );
        assert!(t.spans().iter().all(|s| s.op == 7));
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.begin_op(1, "op");
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
