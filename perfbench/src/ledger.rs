//! The traced run: a per-layer ledger of the served request.
//!
//! The run has five phases, each on the workload's own inputs:
//!
//! 1. **Served.** The untraced closed loop against the server, for the
//!    client latency (p50, p99 with its sample count), the per-op
//!    latencies, and the input shares (cache hits, patch memo hits,
//!    delta-derived vs cold-fallback patches, edit-kind mix).
//! 2. **Probe.** For `warm-small` and `cold-large`, one pass of patch and
//!    `optimize` requests against their specs (see
//!    [`crate::workloads::probe_items`]), for `patch_p50_us` and
//!    `optimize_p50_us`.
//! 3. **Replay.** The stream replayed one request at a time through the
//!    layers' public functions, in the order the service calls them.
//!    Blocks of requests alternate between span recording on and off;
//!    the difference of their medians is `trace.overhead_pct`. Spans
//!    (name, start, end, parent, request) are kept in memory; the first
//!    [`WRITTEN_SPANS`] are written to an NDJSON file at the end.
//! 4. **Layer probes.** The probe set replayed with recording on (delta
//!    and optimizer layers), and each probe edit timed through
//!    `DeltaBasis::rebase` against a cold build of the same edited spec.
//! 5. **Service.** `Service::process` without transport, on the same
//!    warm state, with `disparity_obs` recording alternately off and on,
//!    beside the uncached pipeline for the same request.
//!
//! A layer's self time is its span's duration minus its child spans. The
//! engine span runs chain enumeration internally, so `engine.disparity`
//! is reported net of the `graph.chains` span of the same request.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use disparity_core::delta::{AnalyzedSystem, DeltaBasis};
use disparity_core::disparity::AnalysisConfig;
use disparity_core::engine::AnalysisEngine;
use disparity_model::edit::apply_all;
use disparity_model::json::Value;
use disparity_model::spec::{Canonical, SystemSpec};
use disparity_opt::{optimize_analyzed, BufferBudget, PlanRequest};
use disparity_sched::schedulability::analyze;
use disparity_service::cache::{BaseLookup, GraphEntry, ShardedCache};
use disparity_service::proto::{
    encode_disparity_result, encode_optimize_result, response_line, Op, Request, ResponseBody,
    Status,
};
use disparity_service::server::ServerHandle;
use disparity_service::service::{Counters, Service, ServiceConfig};

use crate::client::{buffers, closed_loop, send_checked, LoopResult, SAMPLES_PER_CONN};
use crate::stats::{median, min_med_max, percentile, sorted};
use crate::workloads::{cold_answer, probe_items, Item, OpKind, Target, Workload, EDIT_KINDS};
use crate::{cores, metric, Metric};

/// Requests per block of the on/off alternations.
const BLOCK: usize = 16;

/// Spans written to the NDJSON file (the first ones recorded). Every
/// span feeds the metrics; the file is a sample for inspection, kept to
/// a few MiB.
const WRITTEN_SPANS: usize = 50_000;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder around the layer calls. When off, `begin` and
/// `end` do nothing, which is the baseline `trace.overhead_pct` compares
/// against.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    /// `(request, name, value)` counts recorded beside the spans.
    counts: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counts: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        index
    }

    fn end(&mut self, index: usize) {
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.stack.pop();
        }
    }

    fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((self.request, name, value));
        }
    }

    /// Self time (`own`) or full duration per `(request, span name)` in
    /// microseconds, summed within a request.
    fn times(&self, own: bool) -> BTreeMap<(u64, &'static str), f64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child) {
            let duration = span.end_ns - span.start_ns;
            let ns = if own {
                duration.saturating_sub(child)
            } else {
                duration
            };
            *out.entry((span.request, span.name)).or_insert(0.0) += ns as f64 / 1e3;
        }
        out
    }

    fn write_ndjson(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for span in self.spans.iter().take(WRITTEN_SPANS) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.request, span.name, span.start_ns, span.end_ns
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The service's request path, re-composed from the layers' public
/// functions, with a span around each call.
struct Replay {
    cache: ShardedCache,
}

fn config(method: disparity_core::pairwise::Method, chain_limit: usize) -> AnalysisConfig {
    AnalysisConfig {
        method,
        chain_limit,
    }
}

impl Replay {
    fn new() -> Self {
        Replay {
            cache: ShardedCache::new(ServiceConfig::default().cache_capacity),
        }
    }

    fn lookup(&self, tr: &mut Tracer, canonical: &Canonical) -> Option<Arc<GraphEntry>> {
        let s = tr.begin("cache.lookup");
        let hit = self.cache.get(canonical.hash, &canonical.text);
        tr.end(s);
        hit
    }

    fn base(&self, tr: &mut Tracer, key: u64) -> Result<Arc<GraphEntry>, String> {
        let s = tr.begin("cache.lookup");
        let found = self.cache.get_by_key(key);
        tr.end(s);
        match found {
            BaseLookup::Hit(entry) => Ok(entry),
            _ => Err(format!("replay: base {key:016x} not cached")),
        }
    }

    fn cold_build(
        &self,
        tr: &mut Tracer,
        spec: &SystemSpec,
        canonical: &Canonical,
    ) -> Result<Arc<GraphEntry>, String> {
        let s = tr.begin("spec.build");
        let graph = spec.build().map_err(|e| format!("bad spec: {e}"))?;
        tr.end(s);
        let s = tr.begin("sched.wcrt");
        let sched = analyze(&graph).map_err(|e| format!("analysis failed: {e}"))?;
        tr.end(s);
        if !sched.all_schedulable() {
            return Err("replay: unschedulable spec".into());
        }
        let entry = GraphEntry::new(
            canonical.clone(),
            spec.clone(),
            graph,
            sched.into_response_times(),
        );
        let s = tr.begin("cache.insert");
        let entry = self.cache.insert(canonical.hash, entry);
        tr.end(s);
        Ok(entry)
    }

    fn disparity(
        &self,
        tr: &mut Tracer,
        id: &Value,
        entry: &GraphEntry,
        task: &str,
        config: AnalysisConfig,
    ) -> Result<String, String> {
        let task = entry
            .graph
            .find_task(task)
            .ok_or_else(|| format!("replay: unknown task {task:?}"))?;
        let s = tr.begin("graph.chains");
        let chains = entry
            .graph
            .chains_to(task, config.chain_limit)
            .map_err(|e| format!("chains: {e}"))?;
        tr.end(s);
        let s = tr.begin("engine.disparity");
        let report = AnalysisEngine::new(&entry.graph, &entry.rt)
            .with_hop_cache(entry.hops.clone())
            .with_workers(ServiceConfig::default().engine_workers)
            .worst_case_disparity(task, config)
            .map_err(|e| format!("engine: {e}"))?;
        tr.end(s);
        tr.count("graph.chains", chains.len() as f64);
        tr.count("engine.pairs", report.pairs.len() as f64);
        let s = tr.begin("proto.encode");
        let line = response_line(
            id,
            Status::Ok,
            ResponseBody::Result(encode_disparity_result(&entry.graph, &report)),
        );
        tr.end(s);
        Ok(line)
    }

    /// Answers one request line; the result must equal the oracle.
    fn request(&self, tr: &mut Tracer, line: &str) -> Result<String, String> {
        let root = tr.begin("request");
        let s = tr.begin("proto.parse");
        let request = Request::parse(line).map_err(|e| format!("parse: {e}"))?;
        tr.end(s);
        let out = match &request.op {
            Op::Disparity {
                spec,
                task,
                method,
                chain_limit,
            } => {
                let s = tr.begin("spec.canonical");
                let canonical = spec.canonical();
                tr.end(s);
                let entry = match self.lookup(tr, &canonical) {
                    Some(entry) => entry,
                    None => self.cold_build(tr, spec, &canonical)?,
                };
                self.disparity(tr, &request.id, &entry, task, config(*method, *chain_limit))?
            }
            Op::Patch {
                base,
                edits,
                task,
                method,
                chain_limit,
            } => {
                let base = self.base(tr, *base)?;
                let s = tr.begin("spec.edit");
                let mut spec2 = base.spec().clone();
                apply_all(&mut spec2, edits).map_err(|(i, e)| format!("edit [{i}]: {e}"))?;
                tr.end(s);
                let s = tr.begin("spec.canonical");
                let canonical2 = spec2.canonical();
                tr.end(s);
                let entry = match self.lookup(tr, &canonical2) {
                    Some(entry) => entry,
                    None => {
                        let s = tr.begin("delta.rebase");
                        let mut basis = Some(DeltaBasis {
                            spec: base.spec().clone(),
                            graph: base.graph.clone(),
                            rt: base.rt.clone(),
                            hops: base.hops.clone(),
                        });
                        for edit in edits {
                            basis = basis.and_then(|b| b.rebase(edit).ok());
                        }
                        tr.end(s);
                        match basis {
                            Some(basis) => {
                                let late = basis
                                    .graph
                                    .tasks()
                                    .iter()
                                    .any(|t| basis.rt.wcrt(t.id()) > t.period());
                                if late {
                                    return Err("replay: derived spec unschedulable".into());
                                }
                                let mut entry = GraphEntry::new(
                                    canonical2.clone(),
                                    spec2,
                                    basis.graph,
                                    basis.rt,
                                );
                                entry.hops = basis.hops;
                                let s = tr.begin("cache.insert");
                                let entry = self.cache.insert(canonical2.hash, entry);
                                tr.end(s);
                                entry
                            }
                            None => self.cold_build(tr, &spec2, &canonical2)?,
                        }
                    }
                };
                self.disparity(tr, &request.id, &entry, task, config(*method, *chain_limit))?
            }
            Op::Optimize {
                base: Some(base),
                budget_slots,
                targets,
                backend,
                seed,
                allow_overbuffering,
                method,
                chain_limit,
                ..
            } => {
                let base = self.base(tr, *base)?;
                let s = tr.begin("opt.analyze");
                let analyzed = AnalyzedSystem::analyze(base.spec(), config(*method, *chain_limit))
                    .map_err(|e| format!("analysis failed: {e}"))?;
                tr.end(s);
                let s = tr.begin("opt.plan");
                let plan = optimize_analyzed(
                    &analyzed,
                    &PlanRequest {
                        budget: BufferBudget::slots(*budget_slots),
                        targets: targets.clone(),
                        seed: *seed,
                        forbid_new_findings: !*allow_overbuffering,
                    },
                    *backend,
                )
                .map_err(|e| format!("plan: {e}"))?;
                tr.end(s);
                let scored = plan.stats.delta_scored + plan.stats.cold_scored;
                tr.count("opt.states_scored", scored as f64);
                tr.count("opt.delta_scored", plan.stats.delta_scored as f64);
                let s = tr.begin("spec.edit");
                let mut optimized = base.spec().clone();
                apply_all(&mut optimized, &plan.edits())
                    .map_err(|(i, e)| format!("plan edit [{i}]: {e}"))?;
                tr.end(s);
                let s = tr.begin("spec.canonical");
                let canonical2 = optimized.canonical();
                tr.end(s);
                if self.lookup(tr, &canonical2).is_none() {
                    self.cold_build(tr, &optimized, &canonical2)?;
                }
                let s = tr.begin("proto.encode");
                let line = response_line(
                    &request.id,
                    Status::Ok,
                    ResponseBody::Result(encode_optimize_result(&plan, canonical2.hash, None)),
                );
                tr.end(s);
                line
            }
            _ => return Err("replay: op outside the workload".into()),
        };
        tr.end(root);
        Ok(out)
    }

    /// Replays `item`, checks the answer, and returns its wall time (µs).
    fn checked(&self, tr: &mut Tracer, item: &Item) -> Result<f64, String> {
        let begun = Instant::now();
        let got = self.request(tr, item.line.trim_end())?;
        let us = begun.elapsed().as_secs_f64() * 1e6;
        if got != item.want {
            return Err(format!(
                "replay mismatch\n  sent: {}\n  want: {}\n  got:  {got}",
                item.line.trim_end(),
                item.want
            ));
        }
        Ok(us)
    }
}

/// Static span names of the per-kind delta probe.
fn delta_names(kind: &str) -> (&'static str, &'static str) {
    match kind {
        "set_wcet" => ("delta.rebase.set_wcet", "delta.cold.set_wcet"),
        "set_bcet" => ("delta.rebase.set_bcet", "delta.cold.set_bcet"),
        "set_period" => ("delta.rebase.set_period", "delta.cold.set_period"),
        "swap_priority" => ("delta.rebase.swap_priority", "delta.cold.swap_priority"),
        "resize_buffer" => ("delta.rebase.resize_buffer", "delta.cold.resize_buffer"),
        "add_channel" => ("delta.rebase.add_channel", "delta.cold.add_channel"),
        _ => ("delta.rebase.remove_channel", "delta.cold.remove_channel"),
    }
}

/// Times `DeltaBasis::rebase` of each probe edit against a cold build of
/// the same edited spec (build + schedulability), alternating the two.
fn delta_probe(
    tr: &mut Tracer,
    w: &Workload,
    probe: &[Item],
    until: Instant,
) -> Result<(), String> {
    let bases: Vec<Option<DeltaBasis>> = w
        .specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            probe
                .iter()
                .any(|p| matches!(&p.target, Target::Patch { spec, .. } if *spec == i))
                .then(|| DeltaBasis::analyze(s).ok())
                .flatten()
        })
        .collect();
    let patches: Vec<_> = probe
        .iter()
        .filter_map(|p| match &p.target {
            Target::Patch { spec, edit, .. } => {
                bases[*spec].as_ref().map(|b| (b, edit, &w.specs[*spec]))
            }
            _ => None,
        })
        .collect();
    let mut pass = 0;
    while pass == 0 || Instant::now() < until {
        for &(basis, edit, spec) in &patches {
            let (rebase_name, cold_name) = delta_names(edit.kind());
            tr.request += 1;
            let s = tr.begin(rebase_name);
            let rebased = basis.rebase(edit);
            tr.end(s);
            std::hint::black_box(rebased.ok());
            let mut edited = spec.clone();
            apply_all(&mut edited, std::slice::from_ref(edit))
                .map_err(|(i, e)| format!("probe edit [{i}]: {e}"))?;
            let cold = tr.begin(cold_name);
            let s = tr.begin("spec.build");
            let graph = edited.build().map_err(|e| format!("probe build: {e}"))?;
            tr.end(s);
            let s = tr.begin("sched.wcrt");
            std::hint::black_box(analyze(&graph).map_err(|e| format!("probe wcrt: {e}"))?);
            tr.end(s);
            tr.end(cold);
        }
        pass += 1;
    }
    Ok(())
}

fn counter(c: &std::sync::atomic::AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64 // conc: read after the phase's requests completed
}

fn counters(c: &Counters) -> [f64; 4] {
    [
        counter(&c.cache_hits),
        counter(&c.cache_misses),
        counter(&c.patched),
        counter(&c.patch_memo_hits),
    ]
}

/// The items a closed loop of `n` requests sent, in order.
fn sent(items: &[Item], n: u64) -> impl Iterator<Item = &Item> {
    items
        .iter()
        .cycle()
        .take(usize::try_from(n).unwrap_or(usize::MAX))
}

fn pct(on: &[f64], off: &[f64]) -> f64 {
    let (on, off) = (median(on), median(off));
    if off > 0.0 {
        (on - off) / off * 100.0
    } else {
        0.0
    }
}

/// The traced run. Returns the per-layer metrics, attempted and failed
/// request counts, and the first failure.
pub fn run(
    w: &Workload,
    server: &ServerHandle,
    seed: u64,
    seconds: u64,
) -> Result<(Vec<Metric>, u64, u64, Option<String>), String> {
    let total = Duration::from_secs(seconds);
    let phase = |share: f64| total.mul_f64(share);
    let addr: SocketAddr = server.addr();
    let mut metrics = Vec::new();

    // 1. Served, untraced.
    let service = server.service();
    let before = counters(&service.counters);
    let served = closed_loop(
        addr,
        &w.stream,
        buffers(cores(), SAMPLES_PER_CONN),
        phase(0.5),
        usize::MAX,
    )?;
    let after = counters(&service.counters);
    let [hits, misses, patched, memo] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    let all = sorted(&served.latencies_of(None));
    metrics.push(metric("latency_p99_us", percentile(&all, 0.99), "us"));
    metrics.push(metric(
        "latency_p99_samples",
        (all.len() / 100) as f64,
        "count",
    ));
    let rss: Vec<f64> = served.ticks.iter().map(|t| t.rss_mb).collect();
    metrics.push(metric("rss_mb", median(&rss), "MiB"));
    metrics.push(metric(
        "failed_frac",
        served.failed() as f64 / served.attempted.max(1) as f64,
        "ratio",
    ));
    metrics.push(metric(
        "cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    ));

    // Input shares over the requests actually sent.
    let sent_patches: Vec<&Item> = sent(&w.stream, served.attempted)
        .filter(|i| i.kind == OpKind::Patch)
        .collect();
    let n_patches = sent_patches.len().max(1) as f64;
    metrics.push(metric("share.patch_memo_hit", memo / n_patches, "ratio"));
    metrics.push(metric("share.patch_derived", patched / n_patches, "ratio"));
    let fallbacks = sent_patches.iter().filter(|i| i.cold_fallback).count() as f64;
    metrics.push(metric(
        "share.patch_cold_fallback",
        fallbacks / n_patches,
        "ratio",
    ));
    for kind in EDIT_KINDS {
        let n = sent_patches
            .iter()
            .filter(|i| matches!(&i.target, Target::Patch { edit, .. } if edit.kind() == kind))
            .count() as f64;
        metrics.push(metric(format!("share.edit.{kind}"), n / n_patches, "ratio"));
    }
    let analyzed: Vec<&Item> = w
        .stream
        .iter()
        .filter(|i| i.kind != OpKind::Optimize)
        .collect();
    for (name, values) in [
        (
            "chains",
            analyzed.iter().map(|i| i.chains as f64).collect::<Vec<_>>(),
        ),
        ("pairs", analyzed.iter().map(|i| i.pairs as f64).collect()),
    ] {
        let (lo, mid, hi) = min_med_max(&values);
        metrics.push(metric(format!("input.{name}_min"), lo, "count"));
        metrics.push(metric(format!("input.{name}_median"), mid, "count"));
        metrics.push(metric(format!("input.{name}_max"), hi, "count"));
    }

    // 2. Patch and optimize latency: design-loop's own mix, else one pass
    //    of the probe set on one connection.
    let (probe_seat, probe) = probe_items(w, seed, cores())?;
    let op_latency = if w.name == "design-loop" {
        None
    } else {
        send_checked(addr, &probe_seat)?;
        Some(closed_loop(
            addr,
            &probe,
            buffers(1, probe.len()),
            Duration::from_secs(120),
            probe.len(),
        )?)
    };
    let ops: &LoopResult = op_latency.as_ref().unwrap_or(&served);
    for (name, kind) in [
        ("patch_p50_us", OpKind::Patch),
        ("optimize_p50_us", OpKind::Optimize),
    ] {
        metrics.push(metric(name, median(&ops.latencies_of(Some(kind))), "us"));
    }
    let mut attempted = served.attempted + op_latency.as_ref().map_or(0, |r| r.attempted);
    let failed = served.failed() + op_latency.as_ref().map_or(0, LoopResult::failed);
    let first_failure = served
        .first_failure
        .clone()
        .or_else(|| op_latency.as_ref().and_then(|r| r.first_failure.clone()));

    // 3. Replay with span recording alternating off and on.
    let replay = Replay::new();
    let mut tr = Tracer::new();
    for item in &w.seat {
        replay.checked(&mut tr, item)?;
    }
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let until = Instant::now() + phase(0.2);
    let mut replayed = 0usize;
    while replayed < 2 * BLOCK || Instant::now() < until {
        let item = &w.stream[replayed % w.stream.len()];
        tr.on = (replayed / BLOCK) % 2 == 1;
        tr.request = replayed as u64;
        let us = replay.checked(&mut tr, item)?;
        if tr.on { &mut on } else { &mut off }.push(us);
        replayed += 1;
    }
    attempted += replayed as u64;
    metrics.push(metric("trace.overhead_pct", pct(&on, &off), "%"));
    let served_requests: Vec<u64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.request)
        .collect();

    // 4. Layer probes: the probe set through the replay (its own cache,
    //    bases seated), then delta rebase vs cold per edit kind.
    tr.on = true;
    let probe_replay = Replay::new();
    let mut quiet = Tracer::new();
    for item in &probe_seat {
        probe_replay.checked(&mut quiet, item)?;
    }
    let mut next_request = (replayed as u64).max(1 << 32);
    for item in &probe {
        tr.request = next_request;
        next_request += 1;
        probe_replay.checked(&mut tr, item)?;
        attempted += 1;
    }
    tr.request = next_request;
    delta_probe(&mut tr, w, &probe, Instant::now() + phase(0.1))?;

    // 5. Service::process on the same warm state, obs off/on, beside the
    //    uncached pipeline.
    let direct = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let parse =
        |item: &Item| Request::parse(item.line.trim_end()).map_err(|e| format!("parse: {e}"));
    for item in &w.seat {
        let _ = direct.process(&parse(item)?);
    }
    // Recording is off on the odd blocks, the stream positions phase 3
    // traced, so the ledger compares the same requests.
    let (mut obs_off, mut obs_on, mut uncached) = (BTreeMap::new(), Vec::new(), Vec::new());
    let until = Instant::now() + phase(0.15);
    let mut processed = 0usize;
    let mut outcome = Ok(());
    while processed < 2 * BLOCK || Instant::now() < until {
        let item = &w.stream[processed % w.stream.len()];
        let request = parse(item)?;
        let recording = (processed / BLOCK).is_multiple_of(2);
        if recording {
            disparity_obs::enable();
        }
        let begun = Instant::now();
        let got = direct.process(&request);
        let us = begun.elapsed().as_secs_f64() * 1e6;
        if recording {
            disparity_obs::disable();
            disparity_obs::reset();
        }
        if recording {
            obs_on.push(us);
        } else {
            obs_off.insert(processed as u64, us);
        }
        if got != item.want {
            outcome = Err(format!(
                "Service::process mismatch on {}",
                item.line.trim_end()
            ));
            break;
        }
        if let Some(us) = uncached_pipeline(w, item)? {
            uncached.push(us);
        }
        processed += 1;
    }
    direct.shutdown();
    outcome?;
    attempted += processed as u64;
    let off: Vec<f64> = obs_off.values().copied().collect();
    metrics.push(metric("service.process_us", median(&off), "us"));
    metrics.push(metric("pipeline.uncached_us", median(&uncached), "us"));
    metrics.push(metric(
        "obs.recording_overhead_pct",
        pct(&obs_on, &off),
        "%",
    ));

    // Ledger: per-layer self times.
    let selfs = tr.times(true);
    let totals = tr.times(false);
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (&(request, name), &us) in &selfs {
        let us = if name == "engine.disparity" {
            us - selfs
                .get(&(request, "graph.chains"))
                .copied()
                .unwrap_or(0.0)
        } else {
            us
        };
        per_name.entry(name).or_default().push(us);
    }
    let layer = |name: &str| per_name.get(name).map_or(0.0, |v| median(v));
    for (span, name) in [
        ("proto.parse", "proto.parse_us"),
        ("proto.encode", "proto.encode_us"),
        ("spec.canonical", "spec.canonical_us"),
        ("spec.build", "spec.build_us"),
        ("spec.edit", "spec.edit_us"),
        ("cache.lookup", "cache.lookup_us"),
        ("cache.insert", "cache.insert_us"),
        ("sched.wcrt", "sched.wcrt_us"),
        ("graph.chains", "graph.chains_us"),
        ("engine.disparity", "engine.disparity_us"),
        ("opt.analyze", "opt.analyze_us"),
        ("opt.plan", "opt.plan_us"),
    ] {
        metrics.push(metric(name, layer(span), "us"));
    }
    for kind in EDIT_KINDS {
        let (rebase, cold) = delta_names(kind);
        metrics.push(metric(
            format!("delta.rebase_us.{kind}"),
            layer(rebase),
            "us",
        ));
        let cold: Vec<f64> = totals
            .iter()
            .filter(|((_, n), _)| *n == cold)
            .map(|(_, &us)| us)
            .collect();
        metrics.push(metric(format!("delta.cold_us.{kind}"), median(&cold), "us"));
    }
    let count = |name: &str| -> Vec<f64> {
        tr.counts
            .iter()
            .filter(|c| c.1 == name)
            .map(|c| c.2)
            .collect()
    };
    metrics.push(metric(
        "graph.chains",
        median(&count("graph.chains")),
        "count",
    ));
    metrics.push(metric(
        "engine.pairs",
        median(&count("engine.pairs")),
        "count",
    ));
    let engine_us: f64 = per_name
        .get("engine.disparity")
        .map_or(0.0, |v| v.iter().sum());
    let pairs: f64 = count("engine.pairs").iter().sum();
    metrics.push(metric(
        "engine.ns_per_pair",
        engine_us * 1e3 / pairs.max(1.0),
        "ns",
    ));
    let states = count("opt.states_scored");
    let delta_states: f64 = count("opt.delta_scored").iter().sum();
    metrics.push(metric("opt.states_scored", median(&states), "count"));
    metrics.push(metric(
        "opt.delta_share",
        delta_states / states.iter().sum::<f64>().max(1.0),
        "ratio",
    ));

    // Closure, over the stream positions both phase 3 traced and phase 5
    // processed with recording off, and the served requests for the same
    // items: the layer self times of a request (root spans excluded, chain
    // enumeration counted once) against its client latency.
    let both: Vec<u64> = served_requests
        .iter()
        .copied()
        .filter(|r| obs_off.contains_key(r))
        .collect();
    let items: std::collections::HashSet<u32> = both
        .iter()
        .filter_map(|&r| u32::try_from(r % w.stream.len() as u64).ok())
        .collect();
    let client = median(
        &served
            .samples
            .iter()
            .flatten()
            .filter(|s| items.contains(&s.item))
            .map(|s| s.latency_us())
            .collect::<Vec<_>>(),
    );
    let at = |name: &'static str| -> Vec<f64> {
        both.iter()
            .map(|&r| selfs.get(&(r, name)).copied().unwrap_or(0.0))
            .collect()
    };
    let accounted: Vec<f64> = both
        .iter()
        .map(|&r| {
            selfs
                .range((r, "")..(r + 1, ""))
                .filter(|((_, name), _)| *name != "request")
                .map(|(_, &us)| us)
                .sum::<f64>()
                - selfs.get(&(r, "graph.chains")).copied().unwrap_or(0.0)
        })
        .collect();
    let accounted = median(&accounted);
    let process: Vec<f64> = both
        .iter()
        .filter_map(|r| obs_off.get(r).copied())
        .collect();
    metrics.push(metric("ledger.accounted_us", accounted, "us"));
    // The connection thread parses before the worker's `process`, so the
    // transport's share is what neither covers.
    let transport = client - median(&process) - median(&at("proto.parse"));
    metrics.push(metric("transport.overhead_us", transport, "us"));
    metrics.push(metric(
        "ledger.unaccounted_frac",
        (client - accounted - transport) / client.max(f64::MIN_POSITIVE),
        "ratio",
    ));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.ndjson", w.name));
    tr.write_ndjson(&path)?;
    eprintln!(
        "perfbench: {} spans recorded, the first {} written to {}",
        tr.spans.len(),
        tr.spans.len().min(WRITTEN_SPANS),
        path.display()
    );
    Ok((metrics, attempted, failed, first_failure))
}

/// The uncached pipeline for a `disparity` or `patch` item: hash, build,
/// schedulability, engine and encode from the request's spec, with no
/// cache (`None` for `optimize`).
fn uncached_pipeline(w: &Workload, item: &Item) -> Result<Option<f64>, String> {
    let id = Value::Int(0);
    let begun = Instant::now();
    match &item.target {
        Target::Spec { spec, task } => {
            let spec = &w.specs[*spec];
            std::hint::black_box(spec.canonical_hash());
            std::hint::black_box(cold_answer(&id, spec, task)?);
        }
        Target::Patch { spec, edit, task } => {
            let mut edited = w.specs[*spec].clone();
            apply_all(&mut edited, std::slice::from_ref(edit))
                .map_err(|(i, e)| format!("edit [{i}]: {e}"))?;
            std::hint::black_box(edited.canonical_hash());
            std::hint::black_box(cold_answer(&id, &edited, task)?);
        }
        Target::Optimize { .. } => return Ok(None),
    }
    Ok(Some(begun.elapsed().as_secs_f64() * 1e6))
}
