//! In-tree observability layer for the time-disparity workspace.
//!
//! Provides three building blocks, all behind one global, thread-safe,
//! **default-off** recorder so instrumented hot paths cost roughly a
//! single relaxed atomic load when recording is disabled:
//!
//! 1. **Spans** ([`span()`] / [`span!`]) — RAII guards with nanosecond
//!    wall-clock timing, per-thread nesting, and key-value attributes.
//!    Every closed span also feeds a duration histogram named
//!    `span.<name>`, so phase timings get p50/p95/p99 summaries for free.
//! 2. **Metrics** ([`counter_add`], [`observe`]) — monotonic counters and
//!    log-scale (power-of-two bucket) histograms.
//! 3. **Exporters** ([`export`]) — a Chrome `chrome://tracing`
//!    trace-event file and a flat metrics report, both rendered through
//!    the in-tree [`disparity_model::json`] module. No external crates.
//!
//! Two live-telemetry companions sit beside the default-off recorder:
//! the **flight recorder** ([`flight`]) — always-on, wait-free ring
//! journals of request lifecycle events, dumped as NDJSON postmortems —
//! and **sliding-window histograms** ([`window`]) for "now" views that
//! the cumulative-since-start metrics cannot provide. Request
//! correlation across all three comes from [`trace_scope`], a
//! thread-local trace id stamped onto every span and flight event.
//!
//! # Usage
//!
//! ```
//! disparity_obs::enable();
//! {
//!     let mut guard = disparity_obs::span("analysis.phase");
//!     guard.attr("tasks", 42_i64);
//!     disparity_obs::counter_add("analysis.pairs", 1);
//!     disparity_obs::observe("analysis.window_span", 7);
//! } // span closes here and records its duration
//! let spans = disparity_obs::take_spans();
//! assert_eq!(spans.len(), 1);
//! let report = disparity_obs::export::metrics_report(&disparity_obs::snapshot());
//! assert!(report.to_pretty().contains("analysis.pairs"));
//! disparity_obs::reset();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod flight;
pub mod metrics;
pub mod recorder;
pub mod window;

pub use metrics::{
    counter_add, merge_histogram, observe, observe_duration, snapshot, Histogram,
    HistogramSummary, MetricsSnapshot,
};
pub use recorder::{
    current_trace, disable, enable, format_trace_id, is_enabled, record_span, reset, span,
    take_spans, trace_scope, AttrValue, SpanGuard, SpanRecord, TraceScope, VIRTUAL_TRACK_BASE,
};
pub use window::WindowedHistogram;
