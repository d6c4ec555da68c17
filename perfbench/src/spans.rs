//! In-memory span recorder, written out as a Chrome trace when the
//! benchmark ends.
//!
//! Each span has an id, its parent's id, a name, a start and a duration
//! (nanoseconds since the recorder's origin) and the counters measured at
//! its boundary. The tree is workload → setup / reference / sample →
//! simulation run → controller epoch.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// A finished span.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    dur_ns: u64,
    args: Vec<(&'static str, f64)>,
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The recorder. Span id 0 is "no parent".
pub struct Spans {
    origin: Instant,
    next_id: u64,
    done: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            next_id: 1,
            done: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    pub fn begin(&mut self, name: impl Into<String>, parent: u64) -> Open {
        Open {
            id: self.alloc_id(),
            parent,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Ends `open` now, attaching the counters measured at its boundary.
    pub fn end(&mut self, open: Open, args: Vec<(&'static str, f64)>) {
        let start_ns = open.start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.done.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns,
            dur_ns: open.start.elapsed().as_nanos() as u64,
            args,
        });
    }

    /// Records a span timed elsewhere (a controller epoch).
    pub fn record(&mut self, name: &str, parent: u64, start_ns: u64, dur_ns: u64) {
        let id = self.alloc_id();
        self.done.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns,
            args: Vec::new(),
        });
    }

    /// Writes every span as a Chrome trace-event file (`"ph": "X"`),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.done.iter().enumerate() {
            let sep = if i + 1 == self.done.len() { "" } else { "," };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            let _ = writeln!(out, "}}}}{sep}");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
