//! Integration tests exercising the global recorder singleton.
//!
//! The recorder is process-wide state, so every test serialises on one
//! lock and restores the disabled/empty state before releasing it.

use std::sync::{Mutex, MutexGuard};

use disparity_obs::{
    counter_add, disable, enable, merge_histogram, observe, reset, snapshot, span, take_spans,
    Histogram,
};

static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn clean_slate() {
    disable();
    reset();
}

#[test]
fn disabled_path_is_a_no_op() {
    let _guard = exclusive();
    clean_slate();

    {
        let mut s = span("never.recorded");
        assert!(!s.is_recording());
        s.attr("key", 7_i64);
    }
    counter_add("never.counter", 3);
    observe("never.histogram", 42);
    let mut local = Histogram::new();
    local.record(42);
    merge_histogram("never.merged", &local);

    assert!(take_spans().is_empty());
    let snap = snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

#[test]
fn merged_histogram_equals_per_sample_observes() {
    let _guard = exclusive();
    clean_slate();
    enable();

    let samples = [-3_i64, 0, 1, 7, 8, 1_000, 65_536, 7];
    for &v in &samples {
        observe("per.sample", v);
    }
    // Same samples split over two local batches, one flushed into an
    // existing registry entry and one creating it.
    let (first, second) = samples.split_at(3);
    let mut local = Histogram::new();
    for &v in first {
        local.record(v);
    }
    merge_histogram("batched", &local);
    let mut local = Histogram::new();
    for &v in second {
        local.record(v);
    }
    merge_histogram("batched", &local);
    merge_histogram("never.created", &Histogram::new());

    let snap = snapshot();
    clean_slate();
    let summary = |name: &str| {
        snap.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    };
    assert_eq!(summary("batched"), summary("per.sample"));
    assert!(summary("batched").is_some());
    assert_eq!(summary("never.created"), None, "empty merges create nothing");
}

#[test]
fn span_macro_skips_attribute_evaluation_when_disabled() {
    let _guard = exclusive();
    clean_slate();

    let mut evaluated = false;
    {
        let _s = disparity_obs::span!("never.recorded", cost = {
            evaluated = true;
            1_i64
        });
    }
    assert!(!evaluated, "attr expressions must not run while disabled");
    assert!(take_spans().is_empty());
}

#[test]
fn nested_spans_close_in_order_and_nest_in_time() {
    let _guard = exclusive();
    clean_slate();
    enable();

    {
        let mut outer = span("outer");
        assert!(outer.is_recording());
        outer.attr("tasks", 5_usize);
        {
            let _inner = disparity_obs::span!("inner", index = 1_u32);
        }
    }

    let snap = snapshot();
    let spans = take_spans();
    clean_slate();

    assert_eq!(spans.len(), 2);
    // Spans record on close, so the inner one lands first.
    assert_eq!(spans[0].name, "inner");
    assert_eq!(spans[1].name, "outer");
    assert_eq!(spans[0].depth, 1);
    assert_eq!(spans[1].depth, 0);
    assert_eq!(spans[0].thread, spans[1].thread);
    // Temporal containment: inner ⊆ outer.
    let (inner, outer) = (&spans[0], &spans[1]);
    assert!(outer.start_ns <= inner.start_ns);
    assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    // Attributes survive.
    assert_eq!(outer.attrs.len(), 1);
    assert_eq!(outer.attrs[0].0, "tasks");
    // Each closed span fed its auto duration histogram.
    let names: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"span.inner"));
    assert!(names.contains(&"span.outer"));
}

#[test]
fn concurrent_counter_increments_are_lossless() {
    let _guard = exclusive();
    clean_slate();
    enable();

    const THREADS: usize = 8;
    const PER_THREAD: u64 = 1_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    counter_add("concurrent.counter", 1);
                }
            });
        }
    });

    let snap = snapshot();
    clean_slate();
    let total = snap
        .counters
        .iter()
        .find(|(name, _)| name == "concurrent.counter")
        .map(|(_, v)| *v);
    assert_eq!(total, Some(THREADS as u64 * PER_THREAD));
}

#[test]
fn exporters_round_trip_through_in_tree_json() {
    let _guard = exclusive();
    clean_slate();
    enable();

    {
        let _phase = disparity_obs::span!("export.phase", kind = "smoke");
    }
    counter_add("export.counter", 2);
    observe("export.histogram", 1024);

    let trace = disparity_obs::export::chrome_trace(&take_spans());
    let report = disparity_obs::export::metrics_report(&snapshot());
    clean_slate();

    let trace = disparity_model::json::Value::parse(&trace.to_pretty()).expect("trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), 1);
    let event = &events[0];
    assert_eq!(event.get("name").and_then(|v| v.as_str()), Some("export.phase"));
    assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
    assert!(event.get("ts").and_then(|v| v.as_f64()).is_some());
    assert_eq!(
        event.get("args").and_then(|a| a.get("kind")).and_then(|v| v.as_str()),
        Some("smoke")
    );

    let report = disparity_model::json::Value::parse(&report.to_pretty()).expect("report parses");
    assert_eq!(
        report.get("schema").and_then(|v| v.as_str()),
        Some(disparity_obs::export::METRICS_SCHEMA)
    );
    assert_eq!(
        report
            .get("counters")
            .and_then(|c| c.get("export.counter"))
            .and_then(|v| v.as_i64()),
        Some(2)
    );
    let hist = report
        .get("histograms")
        .and_then(|h| h.get("export.histogram"))
        .expect("histogram exported");
    assert_eq!(hist.get("min").and_then(|v| v.as_i64()), Some(1024));
    assert_eq!(hist.get("p50").and_then(|v| v.as_i64()), Some(1024));
}
