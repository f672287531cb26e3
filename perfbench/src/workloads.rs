//! The three workloads: generated request streams and their oracles.
//!
//! Generation ([`generate`]) is cheap and deterministic in the seed; it is
//! the part of set-up the benchmark times. The oracle pass ([`oracles`])
//! computes every expected response directly through the library, outside
//! any timed window, and drops candidate edits that are not admissible
//! (the edited spec does not build, is unschedulable, or the queried task
//! has no answer), so no request of a timed run is expected to fail.
//!
//! See `perfbench/README.md` for why each workload exists and which
//! layers it stresses or bypasses.

use disparity_core::delta::{AnalyzedSystem, DeltaBasis};
use disparity_core::disparity::AnalysisConfig;
use disparity_core::engine::AnalysisEngine;
use disparity_model::edit::{apply_all, SpecEdit};
use disparity_model::json::Value;
use disparity_model::spec::SystemSpec;
use disparity_model::time::Duration;
use disparity_opt::{optimize_analyzed, BackendChoice, BufferBudget, PlanRequest};
use disparity_rng::{splitmix64_mix, Rng, StdRng};
use disparity_sched::schedulability::analyze;
use disparity_service::proto::{
    encode_disparity_result, encode_optimize_result, response_line, ResponseBody, Status,
};
use disparity_workload::funnel::{schedulable_funnel_system, FunnelConfig};
use disparity_workload::graphgen::{schedulable_random_system, GraphGenConfig};

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 3] = ["warm-small", "cold-large", "design-loop"];

/// Distinct WATERS n=35 systems cycled by `cold-large`. Far above the
/// service's 32-entry cache, so every request misses.
pub const COLD_POOL: usize = 1024;

/// `cold-large` holds `COLD_POOL / COLD_BANDS` systems from each of
/// `COLD_BANDS` bands of `COLD_BAND_WIDTH` chains (to the queried sink),
/// the first starting at `COLD_MIN_CHAINS`. A request's cost grows with
/// the square of its chain count, and a pool taken as the generator
/// draws had a mean cost that moved by a tenth between seeds, most of it
/// from the few systems with over 500 chains. Fixed band counts give
/// every seed the same mix of sizes.
pub const COLD_BANDS: usize = 8;

/// Width of a `cold-large` chain-count band.
pub const COLD_BAND_WIDTH: usize = 30;

/// Chain count at which the lowest `cold-large` band starts.
pub const COLD_MIN_CHAINS: usize = 100;

/// Draws allowed per pool system before `cold-large` generation gives up
/// (a pool takes about six per system, most of them to fill the top band).
const COLD_MAX_DRAWS: usize = 200;

/// Distinct funnel specs seated and re-sent by `warm-small`.
pub const WARM_POOL: usize = 8;

/// Patch candidates drawn by `design-loop` before admissibility
/// filtering. The stream repeats only after more distinct patches than
/// the service memoizes, so repeats find neither memo nor cache entries.
pub const PATCH_CANDIDATES: usize = 4096;

/// One `optimize` request per this many patches in `design-loop`.
pub const PATCHES_PER_OPTIMIZE: usize = 32;

/// Seed of the `opt_search` bench's funnel, `design-loop`'s base.
const OPT_SEARCH_SEED: u64 = 42;

/// Slot budgets swept by the `optimize` requests.
pub const OPT_BUDGETS: [usize; 4] = [1, 2, 3, 4];

/// The seven edit kinds, in the order the patch stream cycles them.
pub const EDIT_KINDS: [&str; 7] = [
    "set_wcet",
    "set_bcet",
    "set_period",
    "swap_priority",
    "resize_buffer",
    "add_channel",
    "remove_channel",
];

/// The request operation of an [`Item`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Full-spec `disparity`.
    Disparity,
    /// Single-edit `patch` against the seated base.
    Patch,
    /// `optimize` against the seated base.
    Optimize,
}

/// What a request asks about, in library terms (for the oracle and the
/// traced replay).
#[derive(Debug, Clone)]
pub enum Target {
    /// `disparity` of `task` on `specs[spec]`.
    Spec {
        /// Index into [`Workload::specs`].
        spec: usize,
        /// Queried task.
        task: String,
    },
    /// `patch` of `specs[spec]` by `edit`, then `disparity` of `task`.
    Patch {
        /// Index of the base spec in [`Workload::specs`].
        spec: usize,
        /// The single edit.
        edit: SpecEdit,
        /// Queried task.
        task: String,
    },
    /// `optimize` of `specs[spec]` under a slot budget.
    Optimize {
        /// Index of the base spec in [`Workload::specs`].
        spec: usize,
        /// `budget_slots`.
        budget: usize,
    },
}

/// One request with its expected answer.
#[derive(Debug, Clone)]
pub struct Item {
    /// Operation.
    pub kind: OpKind,
    /// The request line, newline-terminated.
    pub line: String,
    /// The expected response line without its `trace_id`.
    pub want: String,
    /// What the request analyzes.
    pub target: Target,
    /// Chains to the queried task (`disparity`/`patch`).
    pub chains: usize,
    /// Chain pairs analyzed for the queried task (`disparity`/`patch`).
    pub pairs: usize,
    /// The delta engine cannot rebase this edit and the service falls
    /// back to a cold build (`patch`).
    pub cold_fallback: bool,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The distinct systems the requests name (for `design-loop`, the
    /// one base).
    pub specs: Vec<SystemSpec>,
    /// Requests sent once before timing (cache seating).
    pub seat: Vec<Item>,
    /// Requests cycled in order during the timed window.
    pub stream: Vec<Item>,
}

fn rng_for(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64_mix(seed ^ tag))
}

fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

fn item(kind: OpKind, line: String, target: Target) -> Item {
    Item {
        kind,
        line: line + "\n",
        want: String::new(),
        target,
        chains: 0,
        pairs: 0,
        cold_fallback: false,
    }
}

/// A full-spec `disparity` request.
pub fn disparity_item(id: usize, specs: &[SystemSpec], spec: usize, task: &str) -> Item {
    let line = format!(
        "{{\"id\":{id},\"op\":\"disparity\",\"task\":{},\"spec\":{}}}",
        Value::from(task),
        specs[spec].to_json()
    );
    item(
        OpKind::Disparity,
        line,
        Target::Spec {
            spec,
            task: task.to_string(),
        },
    )
}

/// A single-edit `patch` request against `specs[spec]` by hash.
pub fn patch_item(id: usize, base: (usize, u64), edit: SpecEdit, task: &str) -> Item {
    let (spec, hash) = base;
    let line = format!(
        "{{\"id\":{id},\"op\":\"patch\",\"base\":\"{}\",\"edits\":[{}],\"task\":{}}}",
        hex(hash),
        edit.to_json(),
        Value::from(task)
    );
    item(
        OpKind::Patch,
        line,
        Target::Patch {
            spec,
            edit,
            task: task.to_string(),
        },
    )
}

/// The seed every `optimize` request carries (tie-break determinism).
const OPT_SEED: u64 = 7;

/// An `optimize` request against `specs[spec]` by hash.
pub fn optimize_item(id: usize, base: (usize, u64), budget: usize) -> Item {
    let (spec, hash) = base;
    let line = format!(
        "{{\"id\":{id},\"op\":\"optimize\",\"base\":\"{}\",\"budget_slots\":{budget},\"seed\":{OPT_SEED},\"allow_overbuffering\":true}}",
        hex(hash)
    );
    item(OpKind::Optimize, line, Target::Optimize { spec, budget })
}

/// The first sink of `spec` (every generated system has one).
fn first_sink(spec: &SystemSpec) -> Result<String, String> {
    let graph = spec
        .build()
        .map_err(|e| format!("generated spec does not build: {e}"))?;
    graph
        .sinks()
        .first()
        .map(|&t| graph.task(t).name().to_string())
        .ok_or_else(|| "generated spec has no sink".to_string())
}

/// Draws `n` distinct specs from `draw`.
fn distinct_specs(
    n: usize,
    mut draw: impl FnMut() -> Result<SystemSpec, String>,
) -> Result<Vec<SystemSpec>, String> {
    let mut seen = std::collections::HashSet::new();
    let mut specs = Vec::with_capacity(n);
    while specs.len() < n {
        let spec = draw()?;
        if seen.insert(spec.canonical_text()) {
            specs.push(spec);
        }
    }
    Ok(specs)
}

/// The WATERS generator parameters of the `pairwise_engine` bench (the
/// default Fig. 6(a)/(b) configuration) at `n_tasks` tasks.
fn waters_config(n_tasks: usize) -> GraphGenConfig {
    GraphGenConfig {
        n_tasks,
        n_ecus: 4,
        n_edges: Some(n_tasks * 5 / 2),
        max_sources: Some(3),
        target_utilization: Some(0.45),
    }
}

/// The `cold-large` pool: distinct WATERS n=35 systems, the same number
/// from each chain-count band, interleaved so that every stretch of the
/// stream has the same mix of sizes.
fn banded_pool(rng: &mut StdRng) -> Result<Vec<SystemSpec>, String> {
    let per_band = COLD_POOL / COLD_BANDS;
    let limit = AnalysisConfig::default().chain_limit;
    let mut bands: Vec<Vec<SystemSpec>> = vec![Vec::new(); COLD_BANDS];
    let mut seen = std::collections::HashSet::new();
    let mut full = 0;
    for _ in 0..COLD_MAX_DRAWS * COLD_POOL {
        if full == COLD_BANDS {
            break;
        }
        let graph = schedulable_random_system(waters_config(35), rng, 200)
            .map_err(|e| format!("WATERS generation: {e}"))?;
        let Some(&sink) = graph.sinks().first() else {
            continue;
        };
        let chains = graph.chains_to(sink, limit).map_or(usize::MAX, |c| c.len());
        let band = chains.saturating_sub(COLD_MIN_CHAINS) / COLD_BAND_WIDTH;
        if chains < COLD_MIN_CHAINS || band >= COLD_BANDS || bands[band].len() == per_band {
            continue;
        }
        let spec = SystemSpec::from_graph(&graph);
        if seen.insert(spec.canonical_text()) {
            bands[band].push(spec);
            if bands[band].len() == per_band {
                full += 1;
            }
        }
    }
    if full < COLD_BANDS {
        return Err("WATERS generation: chain-count bands not filled".into());
    }
    Ok((0..per_band)
        .flat_map(|i| bands.iter().map(move |band| band[i].clone()))
        .collect())
}

/// Generates the named workload's specs and request lines (no oracles).
pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
    match name {
        "warm-small" => {
            let mut rng = rng_for(seed, 0x5A11);
            let specs = distinct_specs(WARM_POOL, || {
                schedulable_funnel_system(&FunnelConfig::default(), &mut rng, 64)
                    .map(|g| SystemSpec::from_graph(&g))
                    .map_err(|e| format!("funnel generation: {e}"))
            })?;
            let mut stream = Vec::with_capacity(specs.len());
            for i in 0..specs.len() {
                stream.push(disparity_item(i, &specs, i, &first_sink(&specs[i])?));
            }
            Ok(Workload {
                name: "warm-small",
                specs,
                seat: stream.clone(),
                stream,
            })
        }
        "cold-large" => {
            let specs = banded_pool(&mut rng_for(seed, 0xC01D))?;
            let mut stream = Vec::with_capacity(specs.len());
            for i in 0..specs.len() {
                stream.push(disparity_item(i, &specs, i, &first_sink(&specs[i])?));
            }
            Ok(Workload {
                name: "cold-large",
                specs,
                seat: Vec::new(),
                stream,
            })
        }
        "design-loop" => {
            // The base is the `opt_search` bench's funnel, the same for
            // every seed; the seed draws the edit stream. One base per
            // seed would make the whole run's cost follow that one
            // system's chain count.
            let config = FunnelConfig {
                stage_widths: vec![16, 8, 4, 4],
                ..FunnelConfig::default()
            };
            let graph =
                schedulable_funnel_system(&config, &mut StdRng::seed_from_u64(OPT_SEARCH_SEED), 64)
                    .map_err(|e| format!("funnel generation: {e}"))?;
            let mut rng = rng_for(seed, 0xDE51);
            let sinks: Vec<String> = graph
                .sinks()
                .iter()
                .map(|&t| graph.task(t).name().to_string())
                .collect();
            let first = sinks.first().ok_or("generated funnel has no sink")?;
            let specs = vec![SystemSpec::from_graph(&graph)];
            let seat = vec![disparity_item(0, &specs, 0, first)];
            let mut stream = Vec::new();
            let mut seen = std::collections::HashSet::new();
            let base = (0, specs[0].canonical_hash());
            let mut patches = 0usize;
            for i in 0..PATCH_CANDIDATES {
                let kind = EDIT_KINDS[i % EDIT_KINDS.len()];
                let task = &sinks[i % sinks.len()];
                let Some(edit) = random_edit(&specs[0], kind, &mut rng) else {
                    continue;
                };
                if !seen.insert((edit.to_json().to_string(), task.clone())) {
                    continue;
                }
                stream.push(patch_item(stream.len(), base, edit, task));
                patches += 1;
                if patches.is_multiple_of(PATCHES_PER_OPTIMIZE) {
                    let budget = OPT_BUDGETS[(patches / PATCHES_PER_OPTIMIZE) % OPT_BUDGETS.len()];
                    stream.push(optimize_item(stream.len(), base, budget));
                }
            }
            Ok(Workload {
                name: "design-loop",
                specs,
                seat,
                stream,
            })
        }
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        items.get(rng.gen_range(0..items.len()))
    }
}

/// A random single edit of `kind` on `spec`, or `None` when the spec
/// offers no candidate. Admissibility (the edited spec builds, stays
/// schedulable, and answers) is checked by the oracle pass.
pub fn random_edit(spec: &SystemSpec, kind: &str, rng: &mut StdRng) -> Option<SpecEdit> {
    let computation: Vec<_> = spec
        .tasks
        .iter()
        .filter(|t| t.ecu.is_some() && t.wcet.as_nanos() > 0)
        .collect();
    match kind {
        "set_wcet" => {
            let t = pick(&computation, rng)?;
            let (lo, hi) = (t.bcet.as_nanos(), t.wcet.as_nanos());
            let wcet = rng.gen_range(lo.max(1)..=hi + (hi - lo) / 4);
            (wcet != hi).then(|| SpecEdit::SetWcet {
                task: t.name.clone(),
                wcet: Duration::from_nanos(wcet),
            })
        }
        "set_bcet" => {
            let t = pick(&computation, rng)?;
            let bcet = rng.gen_range(0..=t.wcet.as_nanos());
            (bcet != t.bcet.as_nanos()).then(|| SpecEdit::SetBcet {
                task: t.name.clone(),
                bcet: Duration::from_nanos(bcet),
            })
        }
        "set_period" => {
            let t = pick(&spec.tasks, rng)?;
            let micros = t.period.as_nanos() / 1000;
            let period = rng.gen_range(micros * 9 / 10..=micros * 8 / 5) * 1000;
            (period != t.period.as_nanos() && period > 0).then(|| SpecEdit::SetPeriod {
                task: t.name.clone(),
                period: Duration::from_nanos(period),
            })
        }
        "swap_priority" => {
            let a = pick(&computation, rng)?;
            let peers: Vec<_> = computation
                .iter()
                .filter(|b| b.ecu == a.ecu && b.name != a.name && b.priority != a.priority)
                .collect();
            let b = pick(&peers, rng)?;
            Some(SpecEdit::SwapPriority {
                a: a.name.clone(),
                b: b.name.clone(),
            })
        }
        "resize_buffer" => {
            let c = pick(&spec.channels, rng)?;
            let capacity = rng.gen_range(1..=4usize);
            (capacity != c.capacity).then(|| SpecEdit::ResizeBuffer {
                from: c.from.clone(),
                to: c.to.clone(),
                capacity,
            })
        }
        "add_channel" => {
            let from = pick(&spec.tasks, rng)?;
            let to = pick(&computation, rng)?;
            let exists = spec
                .channels
                .iter()
                .any(|c| c.from == from.name && c.to == to.name);
            (from.name != to.name && !exists).then(|| SpecEdit::AddChannel {
                from: from.name.clone(),
                to: to.name.clone(),
                capacity: 1,
            })
        }
        "remove_channel" => {
            let c = pick(&spec.channels, rng)?;
            Some(SpecEdit::RemoveChannel {
                from: c.from.clone(),
                to: c.to.clone(),
            })
        }
        _ => None,
    }
}

/// The `ok` response of `disparity` on `spec` for `task`, through the
/// cold pipeline: build, schedulability admission, engine, encode.
/// Returns the line with its chain and pair counts.
pub fn cold_answer(
    id: &Value,
    spec: &SystemSpec,
    task: &str,
) -> Result<(String, usize, usize), String> {
    let graph = spec.build().map_err(|e| format!("bad spec: {e}"))?;
    let sched = analyze(&graph).map_err(|e| format!("analysis failed: {e}"))?;
    if !sched.all_schedulable() {
        return Err("unschedulable".into());
    }
    let rt = sched.into_response_times();
    let sink = graph
        .find_task(task)
        .ok_or_else(|| format!("unknown task {task:?}"))?;
    let report = AnalysisEngine::new(&graph, &rt)
        .worst_case_disparity(sink, AnalysisConfig::default())
        .map_err(|e| format!("analysis: {e}"))?;
    let line = response_line(
        id,
        Status::Ok,
        ResponseBody::Result(encode_disparity_result(&graph, &report)),
    );
    Ok((line, report.chains.len(), report.pairs.len()))
}

/// The plan request an `optimize` item sends.
fn plan_request(budget: usize) -> PlanRequest {
    let mut request = PlanRequest::with_budget(BufferBudget::slots(budget));
    request.seed = OPT_SEED;
    request.forbid_new_findings = false;
    request
}

/// The `ok` response of `optimize` on `spec`: a local optimizer run
/// through the encoder the server uses.
pub fn optimize_answer(id: &Value, spec: &SystemSpec, budget: usize) -> Result<String, String> {
    let base = AnalyzedSystem::analyze(spec, AnalysisConfig::default())
        .map_err(|e| format!("base analysis: {e}"))?;
    let plan = optimize_analyzed(&base, &plan_request(budget), BackendChoice::Auto)
        .map_err(|e| format!("planning: {e}"))?;
    let mut optimized = spec.clone();
    apply_all(&mut optimized, &plan.edits()).map_err(|(i, e)| format!("plan edit [{i}]: {e}"))?;
    Ok(response_line(
        id,
        Status::Ok,
        ResponseBody::Result(encode_optimize_result(
            &plan,
            optimized.canonical_hash(),
            None,
        )),
    ))
}

/// The request id of `item`, re-read from its line.
fn request_id(item: &Item) -> Result<Value, String> {
    let value = Value::parse(item.line.trim_end()).map_err(|e| format!("own request: {e}"))?;
    Ok(value.get("id").cloned().unwrap_or(Value::Null))
}

/// Fills in `want` (and the input properties) of one item, or `None`
/// when the item is not admissible.
fn answer(
    item: &mut Item,
    specs: &[SystemSpec],
    bases: &[Option<DeltaBasis>],
) -> Result<bool, String> {
    let id = request_id(item)?;
    match &item.target {
        Target::Spec { spec, task } => {
            let (want, chains, pairs) = cold_answer(&id, &specs[*spec], task)?;
            (item.want, item.chains, item.pairs) = (want, chains, pairs);
        }
        Target::Patch { spec, edit, task } => {
            let mut edited = specs[*spec].clone();
            if apply_all(&mut edited, std::slice::from_ref(edit)).is_err() {
                return Ok(false);
            }
            let Ok((want, chains, pairs)) = cold_answer(&id, &edited, task) else {
                return Ok(false);
            };
            (item.want, item.chains, item.pairs) = (want, chains, pairs);
            item.cold_fallback = bases[*spec]
                .as_ref()
                .is_none_or(|basis| basis.rebase(edit).is_err());
        }
        Target::Optimize { spec, budget } => {
            item.want = optimize_answer(&id, &specs[*spec], *budget)?;
        }
    }
    Ok(true)
}

/// Computes every expected response on `threads` threads and drops
/// inadmissible patch candidates (keeping request ids as generated).
/// A full-spec or `optimize` item without an answer is an error: those
/// inputs were generated to be answerable.
pub fn oracles(items: &mut Vec<Item>, specs: &[SystemSpec], threads: usize) -> Result<(), String> {
    let needs_basis = items.iter().any(|i| i.kind == OpKind::Patch);
    let bases: Vec<Option<DeltaBasis>> = specs
        .iter()
        .map(|s| needs_basis.then(|| DeltaBasis::analyze(s).ok()).flatten())
        .collect();
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let keep: Vec<Result<Vec<bool>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| {
                let bases = &bases;
                scope.spawn(move || {
                    part.iter_mut()
                        .map(|item| answer(item, specs, bases))
                        .collect::<Result<Vec<bool>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("oracle thread panicked".into()))
            })
            .collect()
    });
    let mut flags = Vec::with_capacity(items.len());
    for part in keep {
        flags.extend(part?);
    }
    for (item, &ok) in items.iter().zip(&flags) {
        if !ok && item.kind != OpKind::Patch {
            return Err(format!(
                "no answer for generated request {}",
                item.line.trim_end()
            ));
        }
    }
    let mut flags = flags.into_iter();
    items.retain(|_| flags.next().unwrap_or(false));
    Ok(())
}

/// Base specs the probe patches of `warm-small` and `cold-large` spread
/// over. Sent round-robin on one connection, a base is touched again
/// before three derived entries are inserted, so it is never the LRU
/// victim of its four-entry cache shard.
pub const PROBE_BASES: usize = 3;

/// Admissible probe patches kept per edit kind and base.
pub const PROBE_EDITS: usize = 2;

/// Items of `design-loop`'s own stream used as its probe set.
const DESIGN_PROBE_ITEMS: usize = 300;

/// Patch and `optimize` requests on the workload's own specs, with
/// oracles, for the traced run's per-layer probes (the delta and
/// optimizer layers, and the patch and optimize latencies). The served
/// traffic of `warm-small` and `cold-large` never patches or optimizes;
/// this set measures those layers on their systems all the same.
/// `design-loop` probes a prefix of its own stream. Returns the requests
/// that seat the probed bases, then the probe set.
pub fn probe_items(
    w: &Workload,
    seed: u64,
    threads: usize,
) -> Result<(Vec<Item>, Vec<Item>), String> {
    if w.name == "design-loop" {
        let probe = w.stream.iter().take(DESIGN_PROBE_ITEMS).cloned().collect();
        return Ok((w.seat.clone(), probe));
    }
    let seat: Vec<Item> = w.stream.iter().take(PROBE_BASES).cloned().collect();
    let mut rng = rng_for(seed, 0x960B);
    let bases: Vec<(usize, u64, String)> = seat
        .iter()
        .filter_map(|item| match &item.target {
            Target::Spec { spec, task } => {
                Some((*spec, w.specs[*spec].canonical_hash(), task.clone()))
            }
            _ => None,
        })
        .collect();
    let mut queues = Vec::with_capacity(bases.len());
    for (spec, hash, task) in &bases {
        let mut candidates = Vec::new();
        for kind in EDIT_KINDS {
            for _ in 0..4 * PROBE_EDITS {
                if let Some(edit) = random_edit(&w.specs[*spec], kind, &mut rng) {
                    candidates.push(patch_item(0, (*spec, *hash), edit, task));
                }
            }
        }
        oracles(&mut candidates, &w.specs, threads)?;
        let mut per_kind = std::collections::HashMap::new();
        candidates.retain(|item| match &item.target {
            Target::Patch { edit, .. } => {
                let n = per_kind.entry(edit.kind()).or_insert(0usize);
                *n += 1;
                *n <= PROBE_EDITS
            }
            _ => false,
        });
        queues.push(candidates.into_iter());
    }
    let mut probe = Vec::new();
    if let Some(&(spec, hash, _)) = bases.first() {
        for budget in [1, 2] {
            probe.push(optimize_item(0, (spec, hash), budget));
        }
        oracles(&mut probe, &w.specs, threads)?;
    }
    loop {
        let before = probe.len();
        probe.extend(queues.iter_mut().filter_map(Iterator::next));
        if probe.len() == before {
            break;
        }
    }
    Ok((seat, probe))
}
