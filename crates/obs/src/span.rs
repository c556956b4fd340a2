//! RAII span timers: start one at the top of a scope, and on drop it
//! records the scope's wall time (in microseconds) into the registry
//! histogram of the same name, plus one JSONL event when a sink is
//! attached.

use crate::histogram::Histogram;
use crate::json::{Layout, Writer};
use crate::registry::{Registry, SinkState};
use std::sync::Arc;
use std::time::Instant;

/// A live span; created by [`Registry::span`](crate::Registry::span) or the
/// [`span!`](crate::span) macro. Dropping it records the measurement.
pub struct Span {
    name: String,
    start: Instant,
    histogram: Histogram,
    sink: Arc<SinkState>,
    epoch: Instant,
    /// Only populated when the sink is active — fields exist solely for the
    /// JSONL stream, so without a sink they cost nothing.
    fields: Vec<(&'static str, String)>,
}

impl Span {
    pub(crate) fn new(
        name: &str,
        histogram: Histogram,
        sink: Arc<SinkState>,
        epoch: Instant,
    ) -> Span {
        Span {
            name: name.to_owned(),
            start: Instant::now(),
            histogram,
            sink,
            epoch,
            fields: Vec::new(),
        }
    }

    /// Attaches a key/value field to the span's JSONL event. A no-op unless
    /// an event sink is attached (the histogram never sees fields).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: &dyn std::fmt::Display) -> Span {
        if Registry::is_sink_active(&self.sink) {
            self.fields.push((key, value.to_string()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.histogram.observe(us);
        if Registry::is_sink_active(&self.sink) {
            let ts = u64::try_from(self.start.duration_since(self.epoch).as_micros())
                .unwrap_or(u64::MAX);
            let mut line = String::new();
            let mut w = Writer::new(&mut line);
            w.object(Layout::Inline);
            w.key("span").str(&self.name);
            w.key("ts_us").raw(ts).key("dur_us").raw(us);
            for (key, value) in &self.fields {
                w.key(key).str(value);
            }
            w.end();
            Registry::log_line(&self.sink, &line);
        }
    }
}

/// Starts an RAII span on the [`global()`](crate::global) registry.
///
/// ```
/// let job_id = 7u64;
/// {
///     let _span = sigcomp_obs::span!("replay.job", job_id);
///     // ... timed work ...
/// } // drop records into the "replay.job" histogram
/// ```
///
/// Forms: `span!("name")`, `span!("name", field_ident)` (field named after
/// the variable), and `span!("name", key = expr)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::global().span($name)$(.field(stringify!($key), &$value))+
    };
    ($name:expr, $($key:ident),+ $(,)?) => {
        $crate::global().span($name)$(.field(stringify!($key), &$key))+
    };
}

#[cfg(test)]
mod tests {
    use crate::Registry;
    use std::sync::{Arc, Mutex};

    /// A Write sink the test can inspect afterwards.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn span_records_into_histogram_on_drop() {
        let r = Registry::new();
        {
            let _span = r.span("unit.work");
        }
        {
            let _span = r.span("unit.work");
        }
        assert_eq!(r.snapshot().histograms["unit.work"].count, 2);
    }

    #[test]
    fn spans_emit_jsonl_events_with_fields_when_sink_attached() {
        let r = Registry::new();
        let sink = Shared::default();
        r.set_jsonl_writer(Box::new(sink.clone()));
        {
            let _span = r
                .span("unit.work")
                .field("job_id", &42)
                .field("note", &"a\"b");
        }
        let log = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let mut lines = log.lines();
        assert_eq!(lines.next(), Some("{\"obs_log\": \"sigcomp-obs v1\"}"));
        let event = lines.next().expect("span event line");
        assert!(event.starts_with("{\"span\": \"unit.work\", \"ts_us\": "));
        assert!(event.contains("\"dur_us\": "));
        assert!(event.contains("\"job_id\": \"42\""));
        assert!(event.contains("\"note\": \"a\\\"b\""));
    }

    #[test]
    fn fields_are_skipped_without_a_sink() {
        let r = Registry::new();
        let span = r.span("unit.work").field("job_id", &42);
        assert!(span.fields.is_empty());
    }
}
