//! In-memory span log for the traced run.
//!
//! The benchmark times calls into each layer's public functions from the
//! outside and records one span per call site: name, start, end and the
//! span that caused it. Spans stay in memory while the run measures and
//! are written once at the end as Chrome trace-event JSON (load the file
//! in Perfetto or `chrome://tracing`).

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `hashing` or `resp.parse`.
    pub name: &'static str,
    /// Start offset in ns.
    pub start_ns: u64,
    /// End offset in ns.
    pub end_ns: u64,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
    /// Work items the span covered (refs, commands).
    pub items: u64,
}

/// Append-only span log with a common epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A log that reads no clock and records nothing: the same call sites
    /// run uninstrumented, which is how the traced run measures its own
    /// overhead. Every duration it returns is 0.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Nanoseconds since the epoch (0 when disabled).
    #[must_use]
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a span that started at `start_ns` and ends now; returns its
    /// duration.
    pub fn close(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<usize>,
        items: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            items,
        });
        end_ns - start_ns
    }

    /// Opens a parent span now; close it with [`SpanLog::finish`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            items: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`SpanLog::open`].
    pub fn finish(&mut self, idx: usize, items: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let s = &mut self.spans[idx];
        s.end_ns = now;
        s.items = items;
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log as Chrome trace-event JSON (`X` complete events;
    /// the parent index and item count ride in `args`).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"items\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.items
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let p = log.open("chunk", None);
        let t = log.now();
        assert_eq!(log.close("hashing", t, Some(p), 8), 0);
        log.finish(p, 8);
        assert_eq!(log.len(), 0);
        let mut log = SpanLog::new();
        let p = log.open("chunk", None);
        let t = log.now();
        log.close("hashing", t, Some(p), 8);
        log.finish(p, 8);
        assert_eq!(log.len(), 2);
    }
}
