//! In-memory span recorder for the traced run.
//!
//! A span is recorded around every call the benchmark makes into a layer of
//! the runtime (name, start, end, parent span, op id). Spans stay in memory
//! while the run is timed; [`chrome_json`] renders them as Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` and Perfetto) once the
//! run is over. Nothing inside the runtime is instrumented: the spans sit in
//! this crate's own code, at the layer boundaries it calls.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `msg.send` or `collectives.allreduce`.
    pub name: &'static str,
    /// Span id, unique within the run (see [`Recorder::rank`]).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Operation id within the phase (shared by the spans of one op).
    pub op: u64,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
    /// Recording thread: rank index, or [`DRIVER_TID`].
    pub tid: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread id used for spans recorded by the launching (driver) thread.
pub const DRIVER_TID: u32 = 99;

/// An open span: returned by [`Recorder::begin`], consumed by
/// [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    op: u64,
    start_ns: u64,
}

impl Open {
    /// Id of the open span, for use as a parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-thread span sink. A disabled recorder does nothing but one branch per
/// call, so untraced runs pay no clock reads for it.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    /// High bits of every id this recorder hands out.
    prefix: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// The launching thread's recorder; its ids are small sequence numbers.
    pub fn driver(enabled: bool, epoch: Instant) -> Self {
        Self::with_prefix(enabled, epoch, DRIVER_TID, 0)
    }

    /// Rank `rank`'s recorder inside the launch whose span id is `launch`.
    /// Its ids embed the launch's, so they stay unique across launches.
    pub fn rank(enabled: bool, epoch: Instant, rank: u32, launch: u64) -> Self {
        let prefix = launch << 32 | (u64::from(rank) + 1) << 24;
        Self::with_prefix(enabled, epoch, rank, prefix)
    }

    fn with_prefix(enabled: bool, epoch: Instant, tid: u32, prefix: u64) -> Self {
        Self {
            enabled,
            epoch,
            tid,
            prefix,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Time origin of the recorded spans.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` for op `op` under `parent` (0 for a root).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u64, op: u64) -> Open {
        if !self.enabled {
            return Open {
                name,
                id: 0,
                parent,
                op,
                start_ns: 0,
            };
        }
        self.next += 1;
        Open {
            name,
            id: self.prefix | self.next,
            parent,
            op,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Close `open` now.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            op: open.op,
            start_ns: open.start_ns,
            end_ns,
            tid: self.tid,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ns) of the spans named `name` recorded on thread `tid`.
pub fn durations(spans: &[Span], name: &str, tid: u32) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.tid == tid)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Render `spans` as Chrome `trace_event` JSON.
pub fn chrome_json(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.op
        );
    }
    out.push_str("]}\n");
    out
}
