//! The engine's pair kernel batches its obs metrics per sweep; the
//! registry totals must equal what the direct path records one pair at a
//! time.
//!
//! This lives in its own integration-test binary because the recorder is
//! global per process: other tests running analyses concurrently while
//! recording is on would add to the totals.

use disparity_core::disparity::{worst_case_disparity_direct, AnalysisConfig};
use disparity_core::engine::AnalysisEngine;
use disparity_core::pairwise::Method;
use disparity_obs::MetricsSnapshot;
use disparity_rng::rngs::StdRng;
use disparity_sched::schedulability::analyze;
use disparity_workload::graphgen::{schedulable_random_system, GraphGenConfig};

/// The metrics the pair kernel records.
fn kernel_metrics(snap: &MetricsSnapshot) -> String {
    let kernel = |name: &str| name.starts_with("sdiff.") || name.starts_with("pairwise.");
    let counters: Vec<_> = snap.counters.iter().filter(|(n, _)| kernel(n)).collect();
    let histograms: Vec<_> = snap.histograms.iter().filter(|(n, _)| kernel(n)).collect();
    format!("{counters:?}\n{histograms:?}")
}

#[test]
fn batched_kernel_metrics_equal_per_pair_recording() {
    let mut checked = 0usize;
    for seed in 1..=6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(graph) = schedulable_random_system(
            GraphGenConfig {
                n_tasks: 35,
                n_ecus: 4,
                n_edges: Some(87),
                max_sources: Some(3),
                target_utilization: Some(0.45),
            },
            &mut rng,
            100,
        ) else {
            continue;
        };
        let rt = analyze(&graph).expect("schedulable").into_response_times();
        let sink = *graph.sinks().first().expect("a DAG has a sink");
        for method in [Method::ForkJoin, Method::Combined] {
            let config = AnalysisConfig {
                method,
                chain_limit: 4096,
            };
            disparity_obs::reset();
            disparity_obs::enable();
            worst_case_disparity_direct(&graph, sink, &rt, config).expect("direct");
            let direct = kernel_metrics(&disparity_obs::snapshot());
            for workers in [1, 3] {
                disparity_obs::reset();
                AnalysisEngine::new(&graph, &rt)
                    .with_workers(workers)
                    .worst_case_disparity(sink, config)
                    .expect("engine");
                let engine = kernel_metrics(&disparity_obs::snapshot());
                assert_eq!(engine, direct, "seed {seed}, {method:?}, workers={workers}");
            }
            disparity_obs::disable();
            assert!(direct.contains("sdiff.window_span"), "S-diff recorded");
            checked += 1;
        }
    }
    disparity_obs::reset();
    assert!(checked >= 4, "too few schedulable draws ({checked})");
}
