//! Memoized, parallel pairwise-disparity engine.
//!
//! [`worst_case_disparity`](crate::disparity::worst_case_disparity)
//! evaluates Theorem 1/2 over all `O(k²)` chain pairs at a sink; the
//! direct path recomputes the same per-hop Lemma 4/5 terms and the same
//! sub-chain WCBT/BCBT folds for every pair. [`AnalysisEngine`] computes
//! each shared sub-result exactly once:
//!
//! * a **per-graph hop-bound cache** keyed by `(from, to)` channel — the
//!   Lemma 4 `θ_i` term plus the Lemma 6 buffer shift of every edge,
//!   computed lazily on first touch and reused across chains, pairs,
//!   methods and sinks;
//! * **prefix WCBT/BCBT tables per enumerated chain** — hop-bound, BCET
//!   and buffer-shift prefix sums, so the backward bounds of *any*
//!   sub-chain (the `α_j`/`β_j` of Theorem 2, or a truncated prefix) are
//!   two table lookups instead of a refold;
//! * a **per-task-set [`ResponseTimes`] handle** — WCRT analysis runs
//!   once per engine, not once per analyzed task.
//!
//! Per pair, the loop allocates nothing, hashes nothing and takes no
//! lock. Every sweep (the serial loop, each parallel worker, and the
//! delta engine's partial re-sweep) owns one `Scratch`: a dense
//! task-indexed map of positions on the current outer chain λ, refilled
//! once per row of the pair triangle, plus the kernel's obs counters and
//! histograms, batched locally and flushed once per sweep. Theorem 2's
//! common tasks come from one backward walk of ν's truncated prefix
//! against that map, and the walk runs the `x_j/y_j` recursion on
//! scalars as it meets them.
//!
//! The chain-pair loop optionally fans out across a scoped-thread worker
//! pool (std only; the workspace is offline and zero-dep). Pairs are
//! partitioned into contiguous index ranges and merged back in range
//! order, so the resulting [`DisparityReport`] is **byte-identical** to
//! the serial path regardless of worker count or scheduling — the
//! arithmetic itself is the exact same `i64` arithmetic as the direct
//! [`theorem1_bound`](crate::pairwise::theorem1_bound) /
//! [`theorem2_bound`](crate::pairwise::theorem2_bound) path, just with
//! every shared term looked up instead of recomputed (a property pinned
//! by `tests/engine_consistency.rs`).

use core::fmt;
use core::ops::Range;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use disparity_model::chain::Chain;
use disparity_model::error::ModelError;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::ids::TaskId;
use disparity_model::time::{div_ceil, div_floor, Duration};
use disparity_obs::Histogram;
use disparity_sched::wcrt::ResponseTimes;

use crate::backward::{buffer_shift, try_hop_bound, BackwardBounds};
use crate::disparity::{AnalysisConfig, DisparityReport, PairBound};
use crate::error::AnalysisError;
use crate::pairwise::Method;

/// Minimum number of chain pairs before the engine spawns worker
/// threads; below this the scoped-thread setup costs more than the loop.
///
/// Set from a measurement of 2 workers against the serial loop on a
/// shared 2-vCPU VM: [`Method::Combined`] on every sink of 14 generated
/// WATERS n=35 systems plus 8–96-source fan-ins, minimum of 40–400 runs
/// each. Spawning two workers costs about 60–80 µs there, while the
/// serial loop takes about 100 ns per pair. Median parallel/serial time
/// ratio by pair count: 2.6 at 64–500 pairs, 1.4 at 1k–2k, 1.2 at 2k–4k,
/// 0.97 at 4k–8k and 0.81 above 8k.
pub const PAR_THRESHOLD: usize = 4096;

/// Cached per-edge terms: the Lemma 4 hop bound `θ` (already including
/// the Lemma 6 buffer shift) and the bare buffer shift (needed separately
/// by the Lemma 5 lower bound).
#[derive(Debug, Clone, Copy)]
struct EdgeBounds {
    hop: Duration,
    shift: Duration,
}

/// A shareable, thread-safe hop-bound cache: the memoized Lemma 4/6
/// per-edge terms of **one graph under one response-time assignment**.
///
/// [`AnalysisEngine::new`] creates a fresh private cache; long-lived
/// callers (the analysis service keeps one engine's worth of state per
/// cached graph) can instead keep a `HopCache` alongside the graph and
/// hand clones of it to every engine built over that graph via
/// [`AnalysisEngine::with_hop_cache`], so the per-edge terms amortize
/// across engines, requests and threads. Clones share storage.
///
/// **Invariant:** a cache must only ever be attached to engines over the
/// same graph and the same [`ResponseTimes`]. Task ids are per-graph
/// indices, so feeding one graph's cache to another graph would silently
/// return stale bounds. The engine cannot check this; the owner of the
/// cache must key it by graph identity (the service keys caches by a
/// canonical content hash of the spec).
#[derive(Clone, Default)]
pub struct HopCache {
    inner: Arc<Mutex<HashMap<(TaskId, TaskId), EdgeBounds>>>,
}

impl HopCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        HopCache::default()
    }

    /// Number of memoized edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no edge has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A new cache holding deep copies of the entries `keep` accepts.
    ///
    /// This is the delta engine's invalidation primitive: deriving a
    /// system from an edited spec starts from the previous system's cache
    /// with the dirty edges dropped, so every clean hop bound is reused
    /// and every dirty one recomputes lazily on first touch. The result
    /// shares no storage with `self`.
    #[must_use]
    pub fn filtered(&self, keep: impl Fn(TaskId, TaskId) -> bool) -> HopCache {
        let retained: HashMap<(TaskId, TaskId), EdgeBounds> = self
            .lock()
            .iter()
            .filter(|&(&(a, b), _)| keep(a, b))
            .map(|(&k, &v)| (k, v))
            .collect();
        HopCache {
            inner: Arc::new(Mutex::new(retained)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(TaskId, TaskId), EdgeBounds>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl fmt::Debug for HopCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HopCache")
            .field("entries", &self.len())
            .finish()
    }
}

/// Prefix tables of one enumerated chain: every sub-chain's backward
/// bounds in O(1).
///
/// For the sub-chain spanning positions `start..=end`:
///
/// * `W = hop_prefix[end] − hop_prefix[start]` (Lemma 4 + Lemma 6);
/// * `B = bcet_prefix[end+1] − bcet_prefix[start] − R(tasks[end])
///   + shift_prefix[end] − shift_prefix[start]` (Lemma 5 + Lemma 6).
///
/// Tables are handed around in `Arc`s: a table depends only on the
/// chain's tasks, their BCETs, the response times, and the hop/shift
/// terms of its edges, so the delta engine shares a clean chain's table
/// across derived systems instead of rebuilding it (see
/// `worst_case_disparity_partial`).
///
/// A table holds prefix sums only. Which tasks two chains share is read
/// from the sweep's dense position map ([`Scratch`]), not from the table.
#[derive(Debug)]
pub(crate) struct ChainTable {
    /// `hop_prefix[k]` = sum of the first `k` edge hop bounds.
    hop_prefix: Vec<Duration>,
    /// `bcet_prefix[k]` = sum of the first `k` tasks' BCETs.
    bcet_prefix: Vec<Duration>,
    /// `shift_prefix[k]` = sum of the first `k` edges' buffer shifts.
    shift_prefix: Vec<Duration>,
}

impl ChainTable {
    /// Backward bounds of the sub-chain `tasks[start..=end]`.
    fn bounds(&self, rt: &ResponseTimes, tail: TaskId, start: usize, end: usize) -> BackwardBounds {
        BackwardBounds {
            wcbt: self.hop_prefix[end] - self.hop_prefix[start],
            bcbt: self.bcet_prefix[end + 1] - self.bcet_prefix[start] - rt.wcrt(tail)
                + self.shift_prefix[end]
                - self.shift_prefix[start],
        }
    }
}

/// [`Scratch::pos`] entry of a task that is off the focused chain or is a
/// graph source (sources never count as common tasks).
const ABSENT: u32 = u32::MAX;

/// Working memory of one pair sweep, so the loop never allocates,
/// hashes or locks per pair.
struct Scratch {
    /// `pos[t]` = position of task `t` on the focused chain, or
    /// [`ABSENT`].
    pos: Vec<u32>,
    /// Index of the chain `pos` describes.
    focus: Option<usize>,
    obs: KernelObs,
}

impl Scratch {
    fn new(task_count: usize) -> Self {
        // A position on a chain (a simple path) is below the task count,
        // so this makes every `u32` position exact and distinct from
        // ABSENT.
        assert!(task_count < ABSENT as usize, "too many tasks for u32 positions");
        Scratch {
            pos: vec![ABSENT; task_count],
            focus: None,
            obs: KernelObs::default(),
        }
    }

    /// Points the position map at `chains[i]`. Only the previously
    /// focused chain's entries are cleared, so a refocus costs two chain
    /// lengths, and focusing the same chain again costs nothing.
    fn focus(&mut self, graph: &CauseEffectGraph, chains: &[Chain], i: usize) {
        if self.focus == Some(i) {
            return;
        }
        if let Some(old) = self.focus.replace(i) {
            for &t in chains[old].tasks() {
                self.pos[t.index()] = ABSENT;
            }
        }
        for (p, &t) in chains[i].tasks().iter().enumerate() {
            if !graph.is_source(t) {
                self.pos[t.index()] = p as u32;
            }
        }
    }
}

/// The pair kernel's obs metrics, batched per sweep. Flushed when the
/// scratch drops (a budget stop included), with the same totals as one
/// `counter_add`/`observe` per pair but one registry lock per metric
/// instead of `3 + c` (and two more for [`Method::Combined`]) per pair.
#[derive(Default)]
struct KernelObs {
    decompositions: u64,
    recursion_steps: u64,
    common_tasks: Histogram,
    window_span: Histogram,
    /// Combined-method winner counts, in [`WINNERS`] order.
    winners: [u64; 3],
    gap_ns: Histogram,
}

/// Counter names of the Combined method's per-pair winner.
const WINNERS: [&str; 3] = [
    "pairwise.sdiff_tighter",
    "pairwise.pdiff_tighter",
    "pairwise.tie",
];

impl Drop for KernelObs {
    fn drop(&mut self) {
        // `sdiff.recursion_steps` exists (possibly at zero) as soon as one
        // decomposition ran; the winner counters only once they count.
        if self.decompositions > 0 {
            disparity_obs::counter_add("sdiff.decompositions", self.decompositions);
            disparity_obs::counter_add("sdiff.recursion_steps", self.recursion_steps);
        }
        for (name, n) in WINNERS.into_iter().zip(self.winners) {
            if n > 0 {
                disparity_obs::counter_add(name, n);
            }
        }
        disparity_obs::merge_histogram("sdiff.common_tasks", &self.common_tasks);
        disparity_obs::merge_histogram("sdiff.window_span", &self.window_span);
        disparity_obs::merge_histogram("pairwise.gap_ns", &self.gap_ns);
    }
}

/// The pair at row-major index `flat` among the `i < j` pairs of `n`
/// chains: `0 → (0, 1)`, `1 → (0, 2)`, …, `n − 1 → (1, 2)`, ….
fn pair_at(n: usize, mut flat: usize) -> (usize, usize) {
    let mut i = 0;
    while i + 1 < n && flat >= n - 1 - i {
        flat -= n - 1 - i;
        i += 1;
    }
    (i, i + 1 + flat)
}

/// Memoized pairwise-disparity engine over one graph and one task set.
///
/// Construction is cheap (the hop-bound cache fills lazily); the engine
/// is then reusable across every analyzed task of the graph, sharing the
/// [`ResponseTimes`] handle and every cached hop bound.
///
/// # Examples
///
/// ```
/// use disparity_model::prelude::*;
/// use disparity_sched::wcrt::response_times;
/// use disparity_core::engine::AnalysisEngine;
/// use disparity_core::disparity::AnalysisConfig;
///
/// let mut b = SystemBuilder::new();
/// let ecu = b.add_ecu("e");
/// let ms = Duration::from_millis;
/// let cam = b.add_task(TaskSpec::periodic("camera", ms(33)));
/// let lidar = b.add_task(TaskSpec::periodic("lidar", ms(100)));
/// let fuse = b.add_task(
///     TaskSpec::periodic("fuse", ms(33)).execution(ms(2), ms(5)).on_ecu(ecu),
/// );
/// b.connect(cam, fuse);
/// b.connect(lidar, fuse);
/// let g = b.build()?;
/// let rt = response_times(&g)?;
/// let engine = AnalysisEngine::new(&g, &rt);
/// let report = engine.worst_case_disparity(fuse, AnalysisConfig::default())?;
/// assert!(report.bound > Duration::ZERO);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct AnalysisEngine<'a> {
    graph: &'a CauseEffectGraph,
    rt: &'a ResponseTimes,
    /// Lazily filled hop-bound cache keyed by `(from, to)` channel. A
    /// `Mutex` (not `RefCell`) so the engine stays `Sync` for the scoped
    /// worker pool; the pair loop itself only reads the prefix tables, so
    /// the lock is never contended. Shareable across engines over the
    /// same graph via [`with_hop_cache`](Self::with_hop_cache).
    edges: HopCache,
    workers: usize,
    /// Optional cooperative budget hook (`true` = keep going). Checked
    /// between chains and every [`BUDGET_STRIDE`] pairs; when it returns
    /// `false` the analysis stops with
    /// [`AnalysisError::BudgetExhausted`]. Long-running callers use this
    /// to enforce soft deadlines without tearing down worker threads.
    budget: Option<&'a (dyn Fn() -> bool + Sync)>,
}

impl fmt::Debug for AnalysisEngine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisEngine")
            .field("tasks", &self.graph.task_count())
            .field("edges", &self.edges)
            .field("workers", &self.workers)
            .field("budget_hook", &self.budget.is_some())
            .finish()
    }
}

/// How many pairs the pair loops process between budget-hook checks.
const BUDGET_STRIDE: usize = 64;

impl<'a> AnalysisEngine<'a> {
    /// Creates an engine over `graph` with response times `rt`.
    ///
    /// The worker count defaults to the machine's available parallelism
    /// (capped at 8); see [`with_workers`](Self::with_workers).
    #[must_use]
    pub fn new(graph: &'a CauseEffectGraph, rt: &'a ResponseTimes) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        AnalysisEngine {
            graph,
            rt,
            edges: HopCache::new(),
            workers,
            budget: None,
        }
    }

    /// Sets the worker-pool size for the pair loop. `1` keeps the loop
    /// serial — useful when the caller already parallelizes at a coarser
    /// granularity (the fig6 sweeps parallelize per graph). Any value
    /// produces the same report bit for bit.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches a shared hop-bound cache, replacing the engine's private
    /// one. See [`HopCache`] for the graph-identity invariant the caller
    /// must uphold.
    #[must_use]
    pub fn with_hop_cache(mut self, cache: HopCache) -> Self {
        self.edges = cache;
        self
    }

    /// A handle to this engine's hop-bound cache (clones share storage),
    /// for reuse by a later engine over the same graph.
    #[must_use]
    pub fn hop_cache(&self) -> HopCache {
        self.edges.clone()
    }

    /// Installs a cooperative budget hook. The hook is polled between
    /// chain-table builds and every 64 analyzed pairs; returning `false`
    /// aborts the analysis with [`AnalysisError::BudgetExhausted`]. The
    /// hook must be cheap (an atomic load or a deadline comparison) and
    /// is called from worker threads, hence `Sync`.
    #[must_use]
    pub fn with_budget_hook(mut self, hook: &'a (dyn Fn() -> bool + Sync)) -> Self {
        self.budget = Some(hook);
        self
    }

    /// Errors with [`AnalysisError::BudgetExhausted`] once the budget
    /// hook (if any) reports exhaustion.
    fn check_budget(&self) -> Result<(), AnalysisError> {
        match self.budget {
            Some(hook) if !hook() => {
                disparity_obs::counter_add("engine.budget_stops", 1);
                Err(AnalysisError::BudgetExhausted)
            }
            _ => Ok(()),
        }
    }

    /// The graph this engine analyzes.
    #[must_use]
    pub fn graph(&self) -> &'a CauseEffectGraph {
        self.graph
    }

    /// The response-time handle shared by every analysis on this engine.
    #[must_use]
    pub fn response_times(&self) -> &'a ResponseTimes {
        self.rt
    }

    /// The cached per-edge terms, computing them on first touch.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Model`] when `(from, to)` is not an edge.
    fn edge_bounds(&self, from: TaskId, to: TaskId) -> Result<EdgeBounds, AnalysisError> {
        if let Some(&e) = self.edges.lock().get(&(from, to)) {
            disparity_obs::counter_add("engine.hop_cache.hits", 1);
            return Ok(e);
        }
        disparity_obs::counter_add("engine.hop_cache.misses", 1);
        let hop = try_hop_bound(self.graph, from, to, self.rt)?;
        let channel = self
            .graph
            .channel_between(from, to)
            .ok_or(AnalysisError::Model(ModelError::NotAChain { from, to }))?;
        let shift = buffer_shift(channel.capacity(), self.graph.task(from).period());
        let e = EdgeBounds { hop, shift };
        self.edges.lock().insert((from, to), e);
        Ok(e)
    }

    /// Backward bounds of an arbitrary chain through the cached hop
    /// bounds. Produces exactly the values of
    /// [`backward_bounds`](crate::backward::backward_bounds); feeding the
    /// soundness sentinel through this path replays a run against the
    /// memoized engine.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Model`] when `chain` is not a path of the graph.
    pub fn backward_bounds(&self, chain: &Chain) -> Result<BackwardBounds, AnalysisError> {
        let mut wcbt = Duration::ZERO;
        let mut shift = Duration::ZERO;
        for (a, b) in chain.edges() {
            let e = self.edge_bounds(a, b)?;
            wcbt += e.hop;
            shift += e.shift;
        }
        let mut bcet = Duration::ZERO;
        for &t in chain.tasks() {
            bcet += self
                .graph
                .get_task(t)
                .ok_or(AnalysisError::Model(ModelError::UnknownTask(t)))?
                .bcet();
        }
        Ok(BackwardBounds {
            wcbt,
            bcbt: bcet - self.rt.wcrt(chain.tail()) + shift,
        })
    }

    /// Builds the prefix tables of one enumerated chain.
    fn table(&self, chain: &Chain) -> Result<ChainTable, AnalysisError> {
        let tasks = chain.tasks();
        let mut hop_prefix = Vec::with_capacity(tasks.len());
        let mut shift_prefix = Vec::with_capacity(tasks.len());
        let mut bcet_prefix = Vec::with_capacity(tasks.len() + 1);
        hop_prefix.push(Duration::ZERO);
        shift_prefix.push(Duration::ZERO);
        bcet_prefix.push(Duration::ZERO);
        let mut bcet_total = Duration::ZERO;
        let mut hop_total = Duration::ZERO;
        let mut shift_total = Duration::ZERO;
        for (i, &t) in tasks.iter().enumerate() {
            let bcet = self
                .graph
                .get_task(t)
                .ok_or(AnalysisError::Model(ModelError::UnknownTask(t)))?
                .bcet();
            bcet_total += bcet;
            bcet_prefix.push(bcet_total);
            if let Some(&next) = tasks.get(i + 1) {
                let e = self.edge_bounds(t, next)?;
                hop_total += e.hop;
                hop_prefix.push(hop_total);
                shift_total += e.shift;
                shift_prefix.push(shift_total);
            }
        }
        Ok(ChainTable {
            hop_prefix,
            bcet_prefix,
            shift_prefix,
        })
    }

    /// Bounds the worst-case time disparity of `task`, memoized and
    /// (from [`PAR_THRESHOLD`] pairs on) parallel.
    ///
    /// The report is bit-identical to
    /// [`worst_case_disparity_direct`](crate::disparity::worst_case_disparity_direct)
    /// for any worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`worst_case_disparity`](crate::disparity::worst_case_disparity).
    pub fn worst_case_disparity(
        &self,
        task: TaskId,
        config: AnalysisConfig,
    ) -> Result<DisparityReport, AnalysisError> {
        self.worst_case_disparity_with_tables(task, config)
            .map(|(report, _)| report)
    }

    /// [`Self::worst_case_disparity`] returning the built chain tables
    /// alongside the report, so the delta engine can carry clean tables
    /// into derived systems.
    pub(crate) fn worst_case_disparity_with_tables(
        &self,
        task: TaskId,
        config: AnalysisConfig,
    ) -> Result<(DisparityReport, Vec<Arc<ChainTable>>), AnalysisError> {
        self.check_budget()?;
        let chains = self.graph.chains_to(task, config.chain_limit)?;
        let mut span = disparity_obs::span("disparity.worst_case");
        span.attr("chains", chains.len());
        span.attr("engine", 1usize);
        let tables: Vec<Arc<ChainTable>> = chains
            .iter()
            .map(|c| {
                self.check_budget()?;
                self.table(c).map(Arc::new)
            })
            .collect::<Result<_, _>>()?;
        disparity_obs::counter_add("engine.chain_tables", tables.len() as u64);
        let n = chains.len();
        let n_pairs = n * (n - 1) / 2;
        let pairs = if self.workers > 1 && n_pairs >= PAR_THRESHOLD {
            self.pairs_parallel(&chains, &tables, config.method, n_pairs)?
        } else {
            self.sweep(&chains, &tables, config.method, 0..n_pairs)?
        };
        disparity_obs::counter_add("engine.pairs", pairs.len() as u64);
        let bound = pairs
            .iter()
            .map(|p| p.bound)
            .max()
            .unwrap_or(Duration::ZERO);
        span.attr("pairs", pairs.len());
        span.attr("bound_ns", bound);
        Ok((
            DisparityReport {
                task,
                method: config.method,
                bound,
                chains,
                pairs,
            },
            tables,
        ))
    }

    /// Re-sweeps only the pairs that touch a dirty chain, copying every
    /// clean pair from `prev_pairs` and every clean chain's prefix table
    /// from `prev_tables`. Returns the report and the (partially shared)
    /// tables of the derived system.
    ///
    /// Caller contract (upheld by the delta engine in `delta.rs`): the
    /// `chains` are exactly what [`CauseEffectGraph::chains_to`] would
    /// enumerate for `task` under `config`, `prev_pairs` is the pair list
    /// of a report over those same chains in the same `(i, j)` order,
    /// `prev_tables` are that report's chain tables in chain order, and
    /// `dirty[i]` is `true` for every chain whose bounds may have changed.
    /// Under that contract the result is byte-identical to a full
    /// [`Self::worst_case_disparity`] run: clean pairs and clean tables
    /// were computed from unchanged inputs by identical arithmetic, dirty
    /// ones are recomputed here through the (pre-invalidated) hop cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::worst_case_disparity`].
    pub(crate) fn worst_case_disparity_partial(
        &self,
        task: TaskId,
        config: AnalysisConfig,
        chains: Vec<Chain>,
        prev_pairs: &[PairBound],
        prev_tables: &[Arc<ChainTable>],
        dirty: &[bool],
    ) -> Result<(DisparityReport, Vec<Arc<ChainTable>>), AnalysisError> {
        self.check_budget()?;
        let n = chains.len();
        debug_assert_eq!(prev_tables.len(), n, "one table per chain");
        // Only dirty chains rebuild their table; a clean chain's prefix
        // sums depend on unchanged inputs, so its previous table is
        // shared as-is (dirty pairs read the clean partner through it).
        let tables: Vec<Arc<ChainTable>> = chains
            .iter()
            .zip(prev_tables)
            .zip(dirty)
            .map(|((c, prev), &d)| {
                if d {
                    self.check_budget()?;
                    self.table(c).map(Arc::new)
                } else {
                    Ok(Arc::clone(prev))
                }
            })
            .collect::<Result<_, _>>()?;
        let mut scratch = Scratch::new(self.graph.task_count());
        let mut pairs = Vec::with_capacity(prev_pairs.len());
        let mut flat = 0usize;
        let mut recomputed = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if dirty[i] || dirty[j] {
                    if recomputed.is_multiple_of(BUDGET_STRIDE) {
                        self.check_budget()?;
                    }
                    recomputed += 1;
                    let pair = self.pair_bound(&chains, &tables, i, j, config.method, &mut scratch);
                    pairs.push(pair);
                } else {
                    pairs.push(prev_pairs[flat].clone());
                }
                flat += 1;
            }
        }
        disparity_obs::counter_add("engine.delta.pairs_recomputed", recomputed as u64);
        disparity_obs::counter_add(
            "engine.delta.pairs_reused",
            (pairs.len() - recomputed) as u64,
        );
        let bound = pairs
            .iter()
            .map(|p| p.bound)
            .max()
            .unwrap_or(Duration::ZERO);
        Ok((
            DisparityReport {
                task,
                method: config.method,
                bound,
                chains,
                pairs,
            },
            tables,
        ))
    }

    /// Bounds the pairs at row-major indices `range` of the `i < j` pair
    /// triangle with one [`Scratch`]: the serial loop (the whole range)
    /// and each parallel worker (one contiguous chunk) alike. The budget
    /// hook is polled every [`BUDGET_STRIDE`] pairs.
    fn sweep(
        &self,
        chains: &[Chain],
        tables: &[Arc<ChainTable>],
        method: Method,
        range: Range<usize>,
    ) -> Result<Vec<PairBound>, AnalysisError> {
        let n = chains.len();
        let mut scratch = Scratch::new(self.graph.task_count());
        let mut out = Vec::with_capacity(range.len());
        let (mut i, mut j) = pair_at(n, range.start);
        for k in 0..range.len() {
            if k % BUDGET_STRIDE == 0 {
                self.check_budget()?;
            }
            out.push(self.pair_bound(chains, tables, i, j, method, &mut scratch));
            j += 1;
            if j == n {
                i += 1;
                j = i + 1;
            }
        }
        Ok(out)
    }

    /// The pair loop over a scoped-thread worker pool. The flat pair
    /// range is cut into one contiguous chunk per worker and the chunks'
    /// results are appended in chunk order, so the output `Vec` is
    /// identical to the serial loop's.
    fn pairs_parallel(
        &self,
        chains: &[Chain],
        tables: &[Arc<ChainTable>],
        method: Method,
        n_pairs: usize,
    ) -> Result<Vec<PairBound>, AnalysisError> {
        // Workers only read the chains and their prefix tables (every
        // hop bound was looked up while the tables were built); each owns
        // its scratch, so they share nothing mutable.
        let chunk = n_pairs.div_ceil(self.workers);
        let mut pairs = Vec::with_capacity(n_pairs);
        let mut exhausted = false;
        // Scoped workers are fresh threads: carry the caller's request
        // trace context across the spawn so batch spans stay attributable
        // to the request that triggered the sweep.
        let trace = disparity_obs::current_trace();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_pairs)
                .step_by(chunk)
                .enumerate()
                .map(|(batch, start)| {
                    let range = start..(start + chunk).min(n_pairs);
                    scope.spawn(move || {
                        let _trace = disparity_obs::trace_scope(trace);
                        let mut span = disparity_obs::span("engine.pair_batch");
                        span.attr("batch", batch);
                        span.attr("pairs", range.len());
                        self.sweep(chains, tables, method, range)
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(Ok(chunk)) => pairs.extend(chunk),
                    Ok(Err(_)) => exhausted = true,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        if exhausted {
            return Err(AnalysisError::BudgetExhausted);
        }
        disparity_obs::counter_add("engine.par_batches", self.workers as u64);
        Ok(pairs)
    }

    // srclint: hot-path-begin — the per-pair kernel: no locks, no heap.

    /// One pair's bound, from the prefix tables. Mirrors
    /// `pair_bound_for_method` in `disparity.rs` term for term.
    fn pair_bound(
        &self,
        chains: &[Chain],
        tables: &[Arc<ChainTable>],
        i: usize,
        j: usize,
        method: Method,
        scratch: &mut Scratch,
    ) -> PairBound {
        let (bound, analyzed_at) = match method {
            Method::Independent => (self.theorem1_full(chains, tables, i, j), chains[i].tail()),
            Method::ForkJoin => self.theorem2_truncated(chains, tables, i, j, scratch),
            Method::Combined => {
                let p = self.theorem1_full(chains, tables, i, j);
                let (s, at) = self.theorem2_truncated(chains, tables, i, j, scratch);
                if disparity_obs::is_enabled() {
                    let winner = match s.cmp(&p) {
                        core::cmp::Ordering::Less => 0,
                        core::cmp::Ordering::Greater => 1,
                        core::cmp::Ordering::Equal => 2,
                    };
                    scratch.obs.winners[winner] += 1;
                    scratch.obs.gap_ns.record((p - s).abs().as_nanos());
                }
                (p.min(s), at)
            }
        };
        PairBound {
            lambda: i,
            nu: j,
            analyzed_at,
            bound,
        }
    }

    /// Theorem 1 over the *full* chain pair (the **P-diff** leg).
    fn theorem1_full(&self, chains: &[Chain], tables: &[Arc<ChainTable>], i: usize, j: usize) -> Duration {
        let li = chains[i].len() - 1;
        let lj = chains[j].len() - 1;
        let bl = tables[i].bounds(self.rt, chains[i].tail(), 0, li);
        let bn = tables[j].bounds(self.rt, chains[j].tail(), 0, lj);
        let o = (bl.wcbt - bn.bcbt).abs().max((bn.wcbt - bl.bcbt).abs());
        self.round_same_source(chains[i].head(), chains[j].head(), o)
    }

    /// Theorem 2 over the pair truncated at its last joint task (the
    /// **S-diff** leg). Returns the bound and the analyzed task.
    fn theorem2_truncated(
        &self,
        chains: &[Chain],
        tables: &[Arc<ChainTable>],
        i: usize,
        j: usize,
        scratch: &mut Scratch,
    ) -> (Duration, TaskId) {
        let ti = chains[i].tasks();
        let tj = chains[j].tasks();
        // Last joint task: both chains end at the analyzed task, so the
        // longest common suffix is non-empty and the truncated tails are
        // its first element.
        let k = ti
            .iter()
            .rev()
            .zip(tj.iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        debug_assert!(k >= 1, "chains ending at the same task share a suffix");
        let lam_end = ti.len() - k;
        let nu_end = tj.len() - k;
        let analyzed_at = ti[lam_end];

        // The common tasks o_1 … o_c of the truncated pair (graph sources
        // excluded) are the tasks of ν's prefix that the position map
        // places on λ. Chains are simple paths, so a task before ν's
        // truncation point is not on the shared suffix and hence lies on
        // λ's prefix too. On a DAG the common tasks keep one order on both
        // chains, so walking ν back from its truncated tail meets o_c
        // (= `analyzed_at`), o_{c−1}, …, o_1: the order in which the x/y
        // recursion of Theorem 2 (`decompose`) consumes them, so the
        // recursion runs on scalars during the walk.
        scratch.focus(self.graph, chains, i);
        debug_assert_eq!(
            scratch.pos[analyzed_at.index()] as usize,
            lam_end,
            "the shared tail must be the last common task"
        );
        let record = disparity_obs::is_enabled();
        // o_{k+1} (the latest common task met) on λ and ν, and x_{k+1},
        // y_{k+1}; x_c = y_c = 0.
        let (mut p_next, mut q_next) = (lam_end, nu_end);
        let (mut x, mut y) = (0i64, 0i64);
        let mut c = 1usize;
        if record {
            scratch.obs.window_span.record(0);
        }
        for q in (0..nu_end).rev() {
            let p = scratch.pos[tj[q].index()];
            if p == ABSENT {
                continue;
            }
            let p = p as usize;
            debug_assert!(p < p_next, "common tasks keep their order on a DAG");
            // o_k = (p, q). The sub-chains α_{k+1} / β_{k+1} run from o_k
            // to o_{k+1}: two prefix-table lookups each.
            let alpha = tables[i].bounds(self.rt, ti[p_next], p, p_next);
            let beta = tables[j].bounds(self.rt, tj[q_next], q, q_next);
            let t_j = self.graph.task(ti[p]).period();
            let t_next = self.graph.task(ti[p_next]).period();
            let num_x = alpha.bcbt - beta.wcbt + t_next * x;
            let num_y = alpha.wcbt - beta.bcbt + t_next * y;
            x = div_ceil(num_x.as_nanos(), t_j.as_nanos());
            y = div_floor(num_y.as_nanos(), t_j.as_nanos());
            if record {
                scratch.obs.window_span.record(y.saturating_sub(x));
            }
            (p_next, q_next) = (p, q);
            c += 1;
        }

        if record {
            scratch.obs.decompositions += 1;
            scratch.obs.recursion_steps += c as u64 - 1;
            scratch
                .obs
                .common_tasks
                .record(i64::try_from(c).unwrap_or(i64::MAX));
        }

        // Lemma 3 at o_1 with the window [x_1, y_1] (`offset_bound`);
        // α_1 / β_1 run from each chain's head to o_1.
        let a = tables[i].bounds(self.rt, ti[p_next], 0, p_next);
        let b = tables[j].bounds(self.rt, tj[q_next], 0, q_next);
        let t1 = self.graph.task(ti[p_next]).period();
        let o = (b.wcbt - a.bcbt - t1 * x)
            .abs()
            .max((b.bcbt - a.wcbt - t1 * y).abs());
        (self.round_same_source(ti[0], tj[0], o), analyzed_at)
    }

    /// Same-source rounding (second case of Theorems 1 and 2).
    fn round_same_source(&self, head_a: TaskId, head_b: TaskId, o: Duration) -> Duration {
        if head_a == head_b {
            let t = self.graph.task(head_a).period();
            t * o.div_floor(t)
        } else {
            o
        }
    }

    // srclint: hot-path-end

    /// Bounds the worst-case disparity of **every** task with at least
    /// two incoming chains, sharing the hop-bound cache and response
    /// times across sinks. Mirrors
    /// [`analyze_all_tasks`](crate::disparity::analyze_all_tasks).
    ///
    /// # Errors
    ///
    /// Propagates pairwise-analysis errors; enumeration-budget overruns
    /// are collected into the second return value, not raised.
    pub fn analyze_all_tasks(
        &self,
        config: AnalysisConfig,
    ) -> Result<(Vec<DisparityReport>, Vec<TaskId>), AnalysisError> {
        self.analyze_all_tasks_with_tables(config)
            .map(|(reports, _, skipped)| (reports, skipped))
    }

    /// [`Self::analyze_all_tasks`] returning each report's chain tables
    /// (in report order), so the delta engine can seed its table
    /// carry-over from a cold run.
    #[allow(clippy::type_complexity)]
    pub(crate) fn analyze_all_tasks_with_tables(
        &self,
        config: AnalysisConfig,
    ) -> Result<(Vec<DisparityReport>, Vec<Vec<Arc<ChainTable>>>, Vec<TaskId>), AnalysisError> {
        let mut reports = Vec::new();
        let mut tables = Vec::new();
        let mut skipped = Vec::new();
        for task in self.graph.tasks() {
            match self.worst_case_disparity_with_tables(task.id(), config) {
                Ok((report, t)) => {
                    if report.chains.len() >= 2 {
                        reports.push(report);
                        tables.push(t);
                    }
                }
                Err(AnalysisError::Model(ModelError::ChainLimitExceeded { .. })) => {
                    skipped.push(task.id());
                }
                Err(e) => return Err(e),
            }
        }
        Ok((reports, tables, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::backward_bounds;
    use crate::disparity::worst_case_disparity_direct;
    use disparity_model::builder::SystemBuilder;
    use disparity_model::task::TaskSpec;
    use disparity_sched::wcrt::response_times;

    fn ms(v: i64) -> Duration {
        Duration::from_millis(v)
    }

    /// The paper's Fig. 2 topology.
    fn fig2() -> (CauseEffectGraph, TaskId) {
        let mut b = SystemBuilder::new();
        let e1 = b.add_ecu("ecu1");
        let e2 = b.add_ecu("ecu2");
        let t1 = b.add_task(TaskSpec::periodic("t1", ms(10)));
        let t2 = b.add_task(TaskSpec::periodic("t2", ms(20)));
        let t3 = b.add_task(
            TaskSpec::periodic("t3", ms(10))
                .execution(ms(1), ms(2))
                .on_ecu(e1),
        );
        let t4 = b.add_task(
            TaskSpec::periodic("t4", ms(20))
                .execution(ms(2), ms(4))
                .on_ecu(e1),
        );
        let t5 = b.add_task(
            TaskSpec::periodic("t5", ms(30))
                .execution(ms(2), ms(5))
                .on_ecu(e2),
        );
        let t6 = b.add_task(
            TaskSpec::periodic("t6", ms(30))
                .execution(ms(3), ms(6))
                .on_ecu(e2),
        );
        b.connect(t1, t3);
        b.connect(t2, t3);
        b.connect(t3, t4);
        b.connect(t3, t5);
        b.connect(t4, t6);
        b.connect(t5, t6);
        (b.build().unwrap(), t6)
    }

    /// A wide fan-in: `n_sources` sources, each through its own relay
    /// (eight relays per ECU, so every size is schedulable) into one sink.
    /// `n` sources give `n` chains and `n(n−1)/2` pairs.
    fn wide(n_sources: usize) -> (CauseEffectGraph, TaskId) {
        let mut b = SystemBuilder::new();
        let e = b.add_ecu("e");
        let sink = b.add_task(
            TaskSpec::periodic("sink", ms(40))
                .execution(ms(1), ms(1))
                .on_ecu(e),
        );
        let mut relay_ecu = e;
        for i in 0..n_sources {
            if i % 8 == 0 {
                relay_ecu = b.add_ecu(format!("relays{i}"));
            }
            let s = b.add_task(TaskSpec::periodic(
                format!("s{i}"),
                ms(10 + 10 * (i as i64 % 4)),
            ));
            let relay = b.add_task(
                TaskSpec::periodic(format!("r{i}"), ms(20))
                    .execution(ms(1), ms(1))
                    .on_ecu(relay_ecu),
            );
            b.connect(s, relay);
            b.connect(relay, sink);
        }
        (b.build().unwrap(), sink)
    }

    /// The fewest `wide` sources whose pairs reach [`PAR_THRESHOLD`], so
    /// a multi-worker engine takes the parallel path.
    fn parallel_sources() -> usize {
        (2..)
            .find(|n| n * (n - 1) / 2 >= PAR_THRESHOLD)
            .expect("some fan-in reaches the threshold")
    }

    fn assert_reports_identical(a: &DisparityReport, b: &DisparityReport) {
        assert_eq!(a.task, b.task);
        assert_eq!(a.method, b.method);
        assert_eq!(a.bound, b.bound);
        assert_eq!(a.chains, b.chains);
        assert_eq!(a.pairs.len(), b.pairs.len());
        for (x, y) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!(x.lambda, y.lambda);
            assert_eq!(x.nu, y.nu);
            assert_eq!(x.analyzed_at, y.analyzed_at);
            assert_eq!(x.bound, y.bound, "pair ({}, {})", x.lambda, x.nu);
        }
    }

    #[test]
    fn engine_matches_direct_path_on_fig2() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        for method in [Method::Independent, Method::ForkJoin, Method::Combined] {
            let config = AnalysisConfig {
                method,
                ..Default::default()
            };
            let direct = worst_case_disparity_direct(&g, t6, &rt, config).unwrap();
            let cached = engine.worst_case_disparity(t6, config).unwrap();
            assert_reports_identical(&direct, &cached);
        }
    }

    #[test]
    fn parallel_reduction_is_bit_identical_to_serial() {
        let (g, sink) = wide(parallel_sources());
        let rt = response_times(&g).unwrap();
        for method in [Method::Independent, Method::ForkJoin, Method::Combined] {
            let config = AnalysisConfig {
                method,
                ..Default::default()
            };
            let serial = AnalysisEngine::new(&g, &rt)
                .with_workers(1)
                .worst_case_disparity(sink, config)
                .unwrap();
            for workers in [2, 3, 8] {
                let parallel = AnalysisEngine::new(&g, &rt)
                    .with_workers(workers)
                    .worst_case_disparity(sink, config)
                    .unwrap();
                assert_reports_identical(&serial, &parallel);
            }
            let direct = worst_case_disparity_direct(&g, sink, &rt, config).unwrap();
            assert_reports_identical(&direct, &serial);
        }
    }

    #[test]
    fn pair_at_decodes_the_row_major_triangle() {
        for n in 2..12 {
            let mut flat = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(pair_at(n, flat), (i, j), "n={n}, flat={flat}");
                    flat += 1;
                }
            }
        }
    }

    #[test]
    fn engine_backward_bounds_match_direct_fold() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        for chain in g.chains_to(t6, 64).unwrap() {
            assert_eq!(
                engine.backward_bounds(&chain).unwrap(),
                backward_bounds(&g, &chain, &rt)
            );
        }
    }

    #[test]
    fn engine_backward_bounds_reject_foreign_chains() {
        let (g, _) = fig2();
        let (g2, sink2) = wide(3);
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        let foreign = g2.chains_to(sink2, 16).unwrap().remove(0);
        assert!(matches!(
            engine.backward_bounds(&foreign),
            Err(AnalysisError::Model(_))
        ));
    }

    #[test]
    fn analyze_all_tasks_matches_free_function() {
        let (g, _) = fig2();
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        let config = AnalysisConfig::default();
        let (reports, skipped) = engine.analyze_all_tasks(config).unwrap();
        let (free_reports, free_skipped) =
            crate::disparity::analyze_all_tasks(&g, &rt, config).unwrap();
        assert_eq!(skipped, free_skipped);
        assert_eq!(reports.len(), free_reports.len());
        for (a, b) in reports.iter().zip(&free_reports) {
            assert_reports_identical(a, b);
        }
    }

    #[test]
    fn shared_hop_cache_amortizes_across_engines() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        let cache = HopCache::new();
        assert!(cache.is_empty());
        let first = AnalysisEngine::new(&g, &rt)
            .with_hop_cache(cache.clone())
            .worst_case_disparity(t6, AnalysisConfig::default())
            .unwrap();
        let warmed = cache.len();
        assert!(warmed > 0, "the first engine fills the shared cache");
        // A second engine over the same graph reuses the warmed cache and
        // produces the identical report.
        let second = AnalysisEngine::new(&g, &rt)
            .with_hop_cache(cache.clone())
            .worst_case_disparity(t6, AnalysisConfig::default())
            .unwrap();
        assert_eq!(cache.len(), warmed, "no new edges on the warm path");
        assert_reports_identical(&first, &second);
        let direct = worst_case_disparity_direct(&g, t6, &rt, AnalysisConfig::default()).unwrap();
        assert_reports_identical(&direct, &second);
    }

    #[test]
    fn hop_cache_handle_shares_storage() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        let handle = engine.hop_cache();
        engine
            .worst_case_disparity(t6, AnalysisConfig::default())
            .unwrap();
        assert!(!handle.is_empty(), "handle observes the engine's fills");
        assert!(format!("{handle:?}").contains("entries"));
    }

    #[test]
    fn budget_hook_stops_serial_and_parallel_loops() {
        let (g, sink) = wide(parallel_sources()); // the parallel path engages
        let rt = response_times(&g).unwrap();
        let stop = || false;
        for workers in [1, 4] {
            let err = AnalysisEngine::new(&g, &rt)
                .with_workers(workers)
                .with_budget_hook(&stop)
                .worst_case_disparity(sink, AnalysisConfig::default())
                .unwrap_err();
            assert!(
                matches!(err, AnalysisError::BudgetExhausted),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn generous_budget_hook_changes_nothing() {
        let (g, sink) = wide(parallel_sources());
        let rt = response_times(&g).unwrap();
        let keep_going = || true;
        let config = AnalysisConfig::default();
        let plain = AnalysisEngine::new(&g, &rt)
            .with_workers(1)
            .worst_case_disparity(sink, config)
            .unwrap();
        let hooked = AnalysisEngine::new(&g, &rt)
            .with_workers(2)
            .with_budget_hook(&keep_going)
            .worst_case_disparity(sink, config)
            .unwrap();
        assert_reports_identical(&plain, &hooked);
    }

    #[test]
    fn budget_hook_can_fire_mid_analysis() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = parallel_sources();
        let (g, sink) = wide(n);
        let rt = response_times(&g).unwrap();
        // Allow the entry check, one check per chain table and the first
        // pair-loop check, then cut the budget: the stop comes from a
        // stride check inside the serial loop or a parallel worker.
        for workers in [1, 2] {
            let calls = AtomicUsize::new(0);
            let hook = move || calls.fetch_add(1, Ordering::Relaxed) < n + 2;
            let err = AnalysisEngine::new(&g, &rt)
                .with_workers(workers)
                .with_budget_hook(&hook)
                .worst_case_disparity(sink, AnalysisConfig::default())
                .unwrap_err();
            assert!(matches!(err, AnalysisError::BudgetExhausted), "workers={workers}");
        }
    }

    #[test]
    fn hop_cache_hits_accumulate() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        disparity_obs::reset();
        disparity_obs::enable();
        let engine = AnalysisEngine::new(&g, &rt);
        engine
            .worst_case_disparity(t6, AnalysisConfig::default())
            .unwrap();
        let snap = disparity_obs::snapshot();
        disparity_obs::disable();
        disparity_obs::reset();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        // Other tests may record concurrently while obs is enabled, so
        // only monotone lower bounds are safe to assert. 6 edges shared
        // by 4 chains guarantee both misses (first touch) and hits
        // (every re-use).
        assert!(counter("engine.hop_cache.misses") >= 1);
        assert!(counter("engine.hop_cache.hits") >= 1);
        assert!(counter("engine.chain_tables") >= 4);
        assert!(counter("engine.pairs") >= 6);
    }
}
