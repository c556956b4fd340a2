//! The traced run's span recorder: a private `sigcomp_obs::Registry` whose
//! JSONL event stream is kept in memory and written out when the run ends,
//! so recording never does file I/O inside a measured region.
//!
//! Every span the benchmark opens wraps one call (or one pass of calls) into
//! a workspace crate; a counter of the same name plus `.units` records how
//! much work the span covered, so per-unit layer times are ratios measured
//! at the boundary where the work happens.

use sigcomp_obs::{Registry, Span};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An in-memory `Write` sink for the registry's JSONL stream.
#[derive(Clone, Default)]
struct Buffer(Arc<Mutex<Vec<u8>>>);

impl Write for Buffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    registry: Registry,
    buffer: Buffer,
    workload: &'static str,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        let registry = Registry::new();
        let buffer = Buffer::default();
        registry.set_jsonl_writer(Box::new(buffer.clone()));
        Tracer {
            registry,
            buffer,
            workload,
        }
    }

    /// Opens a span named after the layer call it wraps; `parent` names the
    /// span (or phase) that caused it.
    pub fn span(&self, name: &str, parent: &str) -> Span {
        self.registry
            .span(name)
            .field("parent", &parent)
            .field("workload", &self.workload)
    }

    /// Runs `work` inside a span and counts `units` of work against it.
    pub fn time<T>(&self, name: &str, parent: &str, units: u64, work: impl FnOnce() -> T) -> T {
        let result = {
            let _span = self.span(name, parent);
            work()
        };
        self.registry.counter(&format!("{name}.units")).add(units);
        result
    }

    /// Total seconds recorded under `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.registry
            .snapshot()
            .histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64 / 1e6)
    }

    /// Mean nanoseconds per unit of work recorded under `name` (0 when the
    /// layer was not exercised).
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        let units = self.registry.snapshot().counter(&format!("{name}.units"));
        if units == 0 {
            0.0
        } else {
            self.total_s(name) * 1e9 / units as f64
        }
    }

    /// Writes the recorded JSONL event stream to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &*self.buffer.0.lock().expect("trace buffer poisoned"))
    }
}

/// A span on `tracer` when the run is traced, nothing otherwise.
pub fn span(tracer: Option<&Tracer>, name: &str, parent: &str) -> Option<Span> {
    tracer.map(|t| t.span(name, parent))
}
