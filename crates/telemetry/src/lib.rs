//! Zero-cost-when-disabled telemetry for the Jumanji simulator.
//!
//! Jumanji's whole mechanism is a 100 ms feedback loop — controllers
//! resizing LC allocations, the placer re-partitioning banks — but the
//! experiment harness only reports end-of-run aggregates. This crate adds
//! the missing observability layer: hot loops emit typed [`Event`]s into a
//! [`Telemetry`] sink, and the sink decides what happens to them.
//!
//! Three sinks cover the use cases:
//!
//! - [`NoopSink`] — the default. Its methods are empty `#[inline]` bodies,
//!   so a hot path monomorphized over it compiles to *exactly* the
//!   untraced code: event construction is dead code behind
//!   `sink.enabled()`, which constant-folds to `false`.
//! - [`JsonlSink`] — appends one JSON object per event to a file (or any
//!   writer). Thread-safe; the experiment engine's workers share one sink.
//! - [`RecordingSink`] — buffers events in memory for tests to assert on.
//!
//! Instrumented code follows one discipline: *construct events only behind
//! `enabled()`*. Emission never mutates simulation state, so a traced run
//! is bit-identical to an untraced one.
//!
//! ```
//! use jumanji_telemetry::{Event, RecordingSink, Telemetry};
//!
//! fn hot_loop<T: Telemetry + ?Sized>(sink: &T) {
//!     for i in 0..3u64 {
//!         // work ...
//!         if sink.enabled() {
//!             sink.emit(&Event::RunSummary {
//!                 design: "Jumanji",
//!                 intervals: i,
//!                 memo_hits: 0,
//!                 memo_misses: i,
//!             });
//!         }
//!     }
//! }
//!
//! let sink = RecordingSink::new();
//! hot_loop(&sink);
//! assert_eq!(sink.len(), 3);
//! ```

#![warn(missing_docs)]

mod event;

pub use event::Event;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A telemetry sink.
///
/// Implementations must be cheap to query via [`Telemetry::enabled`]:
/// hot paths hoist that call and skip event construction entirely when it
/// returns `false`. `Send + Sync` because the parallel experiment engine
/// shares one sink across its worker pool.
pub trait Telemetry: Send + Sync {
    /// Whether this sink records anything. Callers skip building events
    /// when this is `false`.
    fn enabled(&self) -> bool;

    /// Consumes one event. Must not panic on any well-formed event.
    fn emit(&self, event: &Event);
}

/// The disabled sink: everything inlines to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Telemetry for NoopSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&self, _event: &Event) {}
}

/// A sink that writes one JSON line per event to a shared writer.
///
/// Lines from concurrent workers interleave whole — the writer is behind a
/// mutex and each event is written with its newline in one call — so the
/// output is always valid JSONL, just not globally ordered across threads.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// A sink appending to any writer.
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncating) `path` and writes events to it, buffered.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        let f = File::create(path)?;
        Ok(JsonlSink::new(Box::new(BufWriter::new(f))))
    }

    /// Flushes buffered events to the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("telemetry writer lock").flush()
    }
}

impl Telemetry for JsonlSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut out = self.out.lock().expect("telemetry writer lock");
        // A full disk mid-experiment shouldn't take the simulation down;
        // telemetry is best-effort by contract.
        let _ = out.write_all(line.as_bytes());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// An in-memory sink for tests.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// A copy of every event recorded so far, in emission order
    /// (per-thread order under concurrency).
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("telemetry buffer lock").clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().expect("telemetry buffer lock").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("telemetry buffer lock"))
    }
}

impl Telemetry for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("telemetry buffer lock")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> Event {
        Event::RunSummary {
            design: "Jumanji",
            intervals: i,
            memo_hits: i / 2,
            memo_misses: i - i / 2,
        }
    }

    #[test]
    fn noop_sink_is_disabled() {
        let s = NoopSink;
        assert!(!s.enabled());
        s.emit(&sample(1)); // must be a no-op, not a panic
    }

    #[test]
    fn recording_sink_round_trips_events() {
        let s = RecordingSink::new();
        assert!(s.is_empty());
        let events: Vec<Event> = (0..5).map(sample).collect();
        for e in &events {
            s.emit(e);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.events(), events);
        assert_eq!(s.take(), events);
        assert!(s.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_event() {
        let dir = std::env::temp_dir().join("jumanji_telemetry_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("sink_{}.jsonl", std::process::id()));
        {
            let s = JsonlSink::create(&path).expect("create sink");
            assert!(s.enabled());
            for i in 0..4 {
                s.emit(&sample(i));
            }
            s.flush().expect("flush");
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"event\":\"run_summary\""), "{line}");
            assert!(line.contains(&format!("\"intervals\":{i}")), "{line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sinks_are_object_safe_and_shareable() {
        // The experiment engine passes sinks as `&dyn Telemetry` across
        // scoped threads; this pins the object-safety + Sync contract.
        let rec = RecordingSink::new();
        let dynamic: &dyn Telemetry = &rec;
        std::thread::scope(|sc| {
            for _ in 0..2 {
                sc.spawn(|| dynamic.emit(&sample(9)));
            }
        });
        assert_eq!(rec.len(), 2);
    }
}
