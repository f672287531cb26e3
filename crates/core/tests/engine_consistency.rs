//! Property tests: the memoized [`AnalysisEngine`] is observationally
//! identical to the direct per-pair theorem evaluation.
//!
//! The engine reimplements Theorems 1 and 2 on top of prefix tables and a
//! per-edge hop-bound cache, so nothing but these cross-checks guarantees
//! that the fast path and the textbook path stay in lock-step. Every
//! comparison here is an exact `Duration` equality: all arithmetic is
//! integer nanoseconds, so the two paths must agree bit-for-bit, not
//! merely within a tolerance.

use disparity_core::disparity::{
    worst_case_disparity, worst_case_disparity_direct, AnalysisConfig, DisparityReport,
};
use disparity_core::engine::{AnalysisEngine, PAR_THRESHOLD};
use disparity_core::pairwise::{pairwise_bound, theorem1_bound, theorem2_bound, Method};
use disparity_core::sentinel::{self, ChainEvidence, RunEvidence, TaskEvidence};
use disparity_model::graph::CauseEffectGraph;
use disparity_model::ids::TaskId;
use disparity_model::time::Duration;
use disparity_rng::rngs::StdRng;
use disparity_sched::schedulability::analyze;
use disparity_sched::wcrt::ResponseTimes;
use disparity_sim::engine::{SimConfig, Simulator};
use disparity_workload::funnel::{schedulable_funnel_system, FunnelConfig};
use disparity_workload::graphgen::{schedulable_random_system, GraphGenConfig};

const METHODS: [Method; 3] = [Method::Independent, Method::ForkJoin, Method::Combined];
const CHAIN_LIMIT: usize = 4096;

fn waters_graph(n_tasks: usize, seed: u64) -> Option<CauseEffectGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    schedulable_random_system(
        GraphGenConfig {
            n_tasks,
            n_ecus: 4,
            n_edges: Some((n_tasks as f64 * 2.5) as usize),
            max_sources: Some(3),
            target_utilization: Some(0.45),
        },
        &mut rng,
        100,
    )
    .ok()
}

fn funnel_graph(n_tasks: usize, seed: u64) -> Option<CauseEffectGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    schedulable_funnel_system(&FunnelConfig::with_approximate_size(n_tasks), &mut rng, 100).ok()
}

fn assert_reports_identical(a: &DisparityReport, b: &DisparityReport, what: &str) {
    assert_eq!(a.task, b.task, "{what}: task");
    assert_eq!(a.method, b.method, "{what}: method");
    assert_eq!(a.bound, b.bound, "{what}: bound");
    assert_eq!(a.chains, b.chains, "{what}: chain set");
    assert_eq!(a.pairs.len(), b.pairs.len(), "{what}: pair count");
    for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!(
            (pa.lambda, pa.nu, pa.analyzed_at, pa.bound),
            (pb.lambda, pb.nu, pb.analyzed_at, pb.bound),
            "{what}: pair ({}, {})",
            pa.lambda,
            pa.nu,
        );
    }
}

/// Cross-checks every pairwise bound of the engine's report against a raw
/// `theorem1_bound` / `theorem2_bound` / `pairwise_bound` call, then the
/// whole report against the direct (uncached) analysis path.
fn check_graph(graph: &CauseEffectGraph, rt: &ResponseTimes, what: &str) {
    let Some(&sink) = graph.sinks().first() else {
        panic!("{what}: generated graph has no sink");
    };
    let chains = graph.chains_to(sink, CHAIN_LIMIT).expect("chain budget");

    for method in METHODS {
        let config = AnalysisConfig {
            method,
            chain_limit: CHAIN_LIMIT,
        };
        let engine = AnalysisEngine::new(graph, rt).with_workers(1);
        let report = engine
            .worst_case_disparity(sink, config)
            .expect("engine analysis");
        let direct = worst_case_disparity_direct(graph, sink, rt, config)
            .expect("direct analysis");
        assert_reports_identical(&report, &direct, &format!("{what}/{method:?} vs direct"));

        // The free function must route through the same engine logic.
        let via_free = worst_case_disparity(graph, sink, rt, config).expect("free function");
        assert_reports_identical(&report, &via_free, &format!("{what}/{method:?} vs free fn"));

        // Parallel reduction must be bit-identical to serial regardless of
        // whether the pair count crosses the spawn threshold.
        let par = AnalysisEngine::new(graph, rt)
            .with_workers(4)
            .worst_case_disparity(sink, config)
            .expect("parallel engine analysis");
        assert_reports_identical(&report, &par, &format!("{what}/{method:?} serial vs par"));

        // Per-pair: the engine's tabulated bounds must equal the textbook
        // theorem evaluated on the same (truncated) chains.
        for pair in &report.pairs {
            let lam = &chains[pair.lambda];
            let nu = &chains[pair.nu];
            let expected = match method {
                Method::Independent => theorem1_bound(graph, lam, nu, rt).unwrap(),
                Method::ForkJoin => {
                    let (l, n) = lam.truncate_to_last_joint(nu).expect("common suffix");
                    theorem2_bound(graph, &l, &n, rt).unwrap()
                }
                Method::Combined => {
                    let p = theorem1_bound(graph, lam, nu, rt).unwrap();
                    let (l, n) = lam.truncate_to_last_joint(nu).expect("common suffix");
                    p.min(theorem2_bound(graph, &l, &n, rt).unwrap())
                }
            };
            assert_eq!(
                pair.bound, expected,
                "{what}/{method:?}: engine pair ({}, {}) disagrees with raw theorem",
                pair.lambda, pair.nu,
            );
            // And `pairwise_bound` (the public dispatcher) agrees too. The
            // analysis loop truncates to the last joint task before the
            // S-diff theorem, so ForkJoin (and the S-diff half of
            // Combined) takes the pre-truncated chains here.
            let dispatched = match method {
                Method::Independent => pairwise_bound(graph, lam, nu, rt, method).unwrap(),
                Method::ForkJoin => {
                    let (l, n) = lam.truncate_to_last_joint(nu).expect("common suffix");
                    pairwise_bound(graph, &l, &n, rt, method).unwrap()
                }
                Method::Combined => {
                    let p = pairwise_bound(graph, lam, nu, rt, Method::Independent).unwrap();
                    let (l, n) = lam.truncate_to_last_joint(nu).expect("common suffix");
                    p.min(pairwise_bound(graph, &l, &n, rt, Method::ForkJoin).unwrap())
                }
            };
            assert_eq!(
                pair.bound, dispatched,
                "{what}/{method:?}: engine pair ({}, {}) disagrees with pairwise_bound",
                pair.lambda, pair.nu,
            );
        }
    }
}

#[test]
fn engine_matches_direct_theorems_on_random_waters_graphs() {
    let mut checked = 0usize;
    for n_tasks in [12, 18] {
        for seed in 1..=5u64 {
            let Some(graph) = waters_graph(n_tasks, seed) else {
                continue; // Unschedulable draw: nothing to compare.
            };
            let rt = analyze(&graph).expect("schedulable").into_response_times();
            check_graph(&graph, &rt, &format!("waters(n={n_tasks}, seed={seed})"));
            checked += 1;
        }
    }
    assert!(checked >= 5, "too few schedulable WATERS draws ({checked})");
}

#[test]
fn engine_matches_direct_theorems_on_funnel_graphs() {
    let mut checked = 0usize;
    for n_tasks in [9, 15] {
        for seed in 1..=4u64 {
            let Some(graph) = funnel_graph(n_tasks, seed) else {
                continue;
            };
            let rt = analyze(&graph).expect("schedulable").into_response_times();
            check_graph(&graph, &rt, &format!("funnel(n={n_tasks}, seed={seed})"));
            checked += 1;
        }
    }
    assert!(checked >= 4, "too few schedulable funnel draws ({checked})");
}

/// A generated WATERS graph of more than 64 tasks and a task on it whose
/// pair count reaches the engine's spawn threshold (capped at three times
/// the threshold to keep the direct oracle quick): the first such task
/// over a fixed seed sequence.
fn large_case() -> (CauseEffectGraph, ResponseTimes, TaskId) {
    for seed in 1..=20u64 {
        let Some(graph) = waters_graph(72, seed) else {
            continue;
        };
        let rt = analyze(&graph).expect("schedulable").into_response_times();
        let found = graph.tasks().iter().map(|t| t.id()).find(|&t| {
            graph.chains_to(t, CHAIN_LIMIT).is_ok_and(|c| {
                let pairs = c.len() * c.len().saturating_sub(1) / 2;
                (PAR_THRESHOLD..=3 * PAR_THRESHOLD).contains(&pairs)
            })
        });
        if let Some(task) = found {
            return (graph, rt, task);
        }
    }
    panic!("no generated graph reaches the spawn threshold");
}

/// `true` when some chunk boundary of a `workers`-way split of the pair
/// triangle of `n` chains falls inside a row, so a worker starts (and its
/// scratch first focuses) mid-row.
fn splits_a_row(n: usize, workers: usize) -> bool {
    let pairs = n * (n - 1) / 2;
    let chunk = pairs.div_ceil(workers);
    let row_starts: Vec<usize> = (0..n).map(|i| i * n - i * (i + 1) / 2).collect();
    (chunk..pairs)
        .step_by(chunk)
        .any(|b| !row_starts.contains(&b))
}

/// The parallel pair loop on a graph of more than 64 tasks: odd and even
/// worker counts cut the pair triangle mid-row, so every worker's scratch
/// must focus on a row it did not start, and the result must still equal
/// the direct oracle byte for byte.
#[test]
fn parallel_chunks_match_direct_on_a_large_graph() {
    let (graph, rt, task) = large_case();
    assert!(graph.task_count() > 64);
    let n = graph.chains_to(task, CHAIN_LIMIT).expect("chain budget").len();
    for method in METHODS {
        let config = AnalysisConfig {
            method,
            chain_limit: CHAIN_LIMIT,
        };
        let direct = worst_case_disparity_direct(&graph, task, &rt, config).expect("direct");
        for workers in [1, 2, 3, 5, 7] {
            assert!(workers == 1 || splits_a_row(n, workers), "workers={workers}");
            let report = AnalysisEngine::new(&graph, &rt)
                .with_workers(workers)
                .worst_case_disparity(task, config)
                .expect("engine analysis");
            assert_reports_identical(
                &report,
                &direct,
                &format!("large/{method:?}/workers={workers}"),
            );
        }
    }
}

/// One engine analyzes every task of a graph of more than 64 tasks in
/// turn. Each sink's pair loop starts from fresh positions, so positions
/// left over from the previous sink cannot leak into the next report.
#[test]
fn analyze_all_tasks_on_one_engine_matches_direct_per_sink() {
    let (graph, rt, _) = large_case();
    let config = AnalysisConfig {
        method: Method::Combined,
        chain_limit: 96,
    };
    for workers in [1, 3] {
        let engine = AnalysisEngine::new(&graph, &rt).with_workers(workers);
        let (reports, skipped) = engine.analyze_all_tasks(config).expect("engine");
        assert!(reports.len() >= 8, "too few analyzed sinks ({})", reports.len());
        assert!(!skipped.is_empty(), "the chain limit leaves some sinks out");
        for report in &reports {
            let direct =
                worst_case_disparity_direct(&graph, report.task, &rt, config).expect("direct");
            assert_reports_identical(
                report,
                &direct,
                &format!("all-tasks/workers={workers}/task={}", report.task),
            );
        }
    }
}

/// Replays a simulated run through the sentinel twice — once with the
/// stock per-chain fold and once with the engine's memoized
/// `backward_bounds` as the provider — and demands identical verdicts.
/// The provider feeds the chain checks *and* both pairwise theorems, so
/// this exercises the engine on truncated sub-chains the report path
/// never constructs explicitly.
#[test]
fn sentinel_replay_through_engine_matches_direct_provider() {
    let mut replayed = 0usize;
    for seed in 1..=4u64 {
        let Some(graph) = waters_graph(15, seed) else {
            continue;
        };
        let rt = analyze(&graph).expect("schedulable").into_response_times();
        let Some(&sink) = graph.sinks().first() else {
            panic!("generated graph has no sink");
        };
        let chains = graph.chains_to(sink, CHAIN_LIMIT).expect("chain budget");

        let mut sim = Simulator::new(
            &graph,
            SimConfig {
                horizon: Duration::from_millis(2_000),
                warmup: Duration::from_millis(400),
                seed,
                ..SimConfig::default()
            },
        );
        sim.monitor_chains(chains.iter().cloned());
        let out = sim.run().expect("simulation");

        let evidence = RunEvidence {
            graph: &graph,
            seed,
            fault_plan: "none".to_string(),
            model_preserving: true,
            faults_fired: false,
            chains: chains
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let o = out.metrics.chain(i);
                    ChainEvidence {
                        chain: c.clone(),
                        min_backward: o.min_backward,
                        max_backward: o.max_backward,
                        samples: o.samples,
                    }
                })
                .collect(),
            tasks: vec![TaskEvidence {
                task: sink,
                max_disparity: out.metrics.max_disparity(sink),
                max_response: Some(out.metrics.max_response(sink)),
            }],
        };

        let stock = sentinel::check_run(&evidence).expect("stock sentinel");
        let engine = AnalysisEngine::new(&graph, &rt);
        let replay = sentinel::check_run_with(&evidence, &rt, false, &|c| {
            engine
                .backward_bounds(c)
                .expect("sentinel chains are valid graph paths")
        })
        .expect("engine-backed sentinel");

        assert_eq!(stock.enforced, replay.enforced, "seed {seed}: enforced");
        assert_eq!(stock.degraded, replay.degraded, "seed {seed}: degraded");
        assert_eq!(stock.checks, replay.checks, "seed {seed}: check count");
        assert_eq!(
            stock.violations.len(),
            replay.violations.len(),
            "seed {seed}: violation count",
        );
        assert!(stock.is_sound(), "seed {seed}: simulated run must be in-bound");
        assert!(replay.is_sound(), "seed {seed}: engine replay must be in-bound");
        replayed += 1;
    }
    assert!(replayed >= 2, "too few sentinel replays ({replayed})");
}
