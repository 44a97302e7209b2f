//! Unified observability for the PSgL stack (DESIGN.md §15).
//!
//! Five pieces, all std-only and dependency-free:
//!
//! * [`counters`](mod@counters) — the [`counters!`] table that declares
//!   each engine counter once and derives its merge rule, codec order and
//!   name hash.
//! * [`metrics`] — a typed counter/gauge/histogram registry. Handles are
//!   registered once per name and are lock-free on the hot path (plain
//!   atomic cells; [`metrics::ShardedCounter`] pads per-worker cells and
//!   merges them on read). A [`metrics::Registry::snapshot`] is the single
//!   source for every stats surface.
//! * [`trace`] — cheap structured events. A [`Tracer`] stamps each event
//!   with a sequence number and a timestamp from either a wall clock or a
//!   *logical* clock (`Tracer::seeded`) so deterministic-simulation
//!   fingerprints are unaffected by tracing.
//! * [`recorder`] — a fixed-size ring of recent events (the flight
//!   recorder), dumped to a JSON file on run errors, chaos invariant
//!   failures, or worker death.
//! * [`expo`] + [`slowlog`] — Prometheus text exposition of a registry
//!   snapshot, and a threshold-triggered slow-query log carrying the
//!   per-superstep compute / barrier / spill-stall / exchange timeline.

pub mod counters;
pub mod expo;
pub mod metrics;
pub mod recorder;
pub mod slowlog;
pub mod trace;

pub use counters::{check_header, CounterTable, CounterValue, Merge};
pub use expo::{render_json, render_prometheus};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry,
    RegistrySnapshot, ShardedCounter,
};
pub use recorder::FlightRecorder;
pub use slowlog::{SlowQueryEntry, SlowQueryLog, SuperstepTiming};
pub use trace::{TraceEvent, Tracer, Value};

use std::sync::OnceLock;

/// Process-global observability context: one registry + one wall-clock
/// tracer whose ring doubles as the process flight recorder. Components
/// that need isolation (tests, the deterministic simulator) construct
/// their own [`Registry`] / [`Tracer`] instead.
pub struct Obs {
    pub registry: Registry,
    pub tracer: Tracer,
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// Capacity of the process-global flight recorder ring.
pub const GLOBAL_RING_CAPACITY: usize = 4096;

pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(|| Obs {
        registry: Registry::new(),
        tracer: Tracer::wall(GLOBAL_RING_CAPACITY),
    })
}

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    &global().registry
}

/// The process-global wall-clock tracer (its ring is the process flight
/// recorder).
pub fn tracer() -> &'static Tracer {
    &global().tracer
}

/// Escape a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Quote + escape a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_covers_control_and_quote_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
        assert_eq!(json_string("x"), "\"x\"");
    }

    #[test]
    fn global_context_is_a_singleton() {
        let a = registry() as *const Registry;
        let b = registry() as *const Registry;
        assert_eq!(a, b);
        tracer().event("obs_smoke", &[("n", Value::U64(1))]);
        assert!(tracer().events().iter().any(|e| e.name == "obs_smoke"));
    }
}
