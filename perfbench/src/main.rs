//! The repository benchmark: served-request latency, throughput and CPU
//! cost of `disparity-service` on three workloads, plus a traced per-layer
//! ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics against an
//! in-process server (`disparity_service::server::serve` on
//! `127.0.0.1:0`, default config with one worker per core) driven by a
//! closed-loop client with one connection per core. With `--trace 1` it
//! measures the per-layer metrics instead (see `ledger.rs`). Every
//! response is compared byte for byte with an answer computed directly
//! through the library; any mismatch makes the run exit 1. The last line
//! of standard output is the JSON result.

mod client;
mod ledger;
mod stats;
mod workloads;

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use disparity_service::server::{serve, ServerHandle};
use disparity_service::service::{Service, ServiceConfig};

use crate::client::{buffers, closed_loop, send_checked, Window, SAMPLES_PER_CONN};
use crate::stats::{median, percentile, sorted};
use crate::workloads::{generate, oracles, OpKind, Workload};

/// Set-up repeats at least this many times per run, and until it has
/// taken a second in all (at most `MAX_SETUPS` times); `setup_s` is the
/// median. A set-up of a few milliseconds is thus timed hundreds of
/// times, a slow one nine times.
const MIN_SETUPS: usize = 9;

/// Upper limit on set-up repeats.
const MAX_SETUPS: usize = 201;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Worker threads and client connections: one per core.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Starts the server the benchmark measures.
fn start_server(workers: usize) -> Result<ServerHandle, String> {
    let service = Service::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    serve("127.0.0.1:0", Arc::clone(&service)).map_err(|e| {
        service.shutdown();
        format!("bind 127.0.0.1:0: {e}")
    })
}

/// Generates the workload and its oracles, then sets up repeatedly
/// (generation, server start, cache seating) and returns the last server
/// with the median set-up time in seconds.
fn set_up(args: &Args) -> Result<(Workload, ServerHandle, f64), String> {
    let mut workload = generate(&args.workload, args.seed)?;
    let threads = cores();
    oracles(&mut workload.seat, &workload.specs, threads)?;
    oracles(&mut workload.stream, &workload.specs, threads)?;
    let mut times: Vec<f64> = Vec::new();
    let mut server: Option<ServerHandle> = None;
    while times.len() < MIN_SETUPS || (times.iter().sum::<f64>() < 1.0 && times.len() < MAX_SETUPS)
    {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let begun = Instant::now();
        std::hint::black_box(generate(&args.workload, args.seed)?);
        let handle = start_server(threads)?;
        let seated = send_checked(handle.addr(), &workload.seat);
        times.push(begun.elapsed().as_secs_f64());
        if let Err(e) = seated {
            handle.shutdown();
            return Err(e);
        }
        server = Some(handle);
    }
    let server = server.ok_or("no set-up ran")?;
    Ok((workload, server, median(&times)))
}

/// A second is calm when the host stole at most this share of the
/// machine's CPU time in it.
const CALM_STEAL: f64 = 0.025;

/// The untraced run: every end-to-end metric, over the run's calm
/// seconds. The run is cut into seconds; a second in which the host
/// stole more than `CALM_STEAL` of the machine's CPU time, and more than
/// in the run's quietest quarter of seconds, is left out, and the metrics
/// are taken over the rest (at least a quarter of the run): throughput is
/// the median of their per-second rates, latency the median of their
/// responses, CPU cost their process CPU time per response. Steal comes
/// from the host, not from the program, so the selection does not favour
/// a faster or slower program; on the shared 2-core VM this was built
/// on, a second with a fifth of the CPU stolen served `design-loop` at
/// two thirds of the rate of a second without. Per-second figures and
/// the whole-run metrics go to standard error.
fn end_to_end(
    args: &Args,
    workload: &Workload,
    addr: SocketAddr,
    setup_s: f64,
) -> Result<(Vec<Metric>, u64, u64, Option<String>), String> {
    let run = closed_loop(
        addr,
        &workload.stream,
        buffers(cores(), SAMPLES_PER_CONN),
        Duration::from_secs(args.seconds),
        usize::MAX,
    )?;
    for kind in [OpKind::Disparity, OpKind::Patch, OpKind::Optimize] {
        let l = sorted(&run.latencies_of(Some(kind)));
        if !l.is_empty() {
            eprintln!(
                "perfbench:   {kind:?}: {} ok, p50 {:.1} us, p90 {:.1} us, max {:.1} us",
                l.len(),
                percentile(&l, 0.5),
                percentile(&l, 0.9),
                percentile(&l, 1.0)
            );
        }
    }
    let windows = run.windows();
    let show = |name: &str, v: &[f64]| {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.0}")).collect();
        eprintln!("perfbench: per-second {name}: {}", v.join(" "));
    };
    let rate = |w: &Window| w.latencies_us.len() as f64 / w.seconds;
    let steal_share = |w: &Window| w.steal_ms / (1e3 * w.seconds * cores() as f64);
    let steal: Vec<f64> = windows.iter().map(|w| w.steal_ms).collect();
    show("ok rate", &windows.iter().map(rate).collect::<Vec<_>>());
    show(
        "p50 us",
        &windows
            .iter()
            .map(|w| median(&w.latencies_us))
            .collect::<Vec<_>>(),
    );
    show("steal ms", &steal);
    let ok = run.ok.max(1) as f64;
    eprintln!(
        "perfbench: whole run: {:.1} ok/s, p50 {:.1} us, {:.1} cpu us per ok",
        ok / run.ticks.last().map_or(1.0, |t| t.at),
        median(&run.latencies_of(None)),
        run.cpu_us() / ok
    );
    let shares = sorted(&windows.iter().map(steal_share).collect::<Vec<_>>());
    let calm = percentile(&shares, 0.25).max(CALM_STEAL);
    let calm: Vec<&Window> = windows.iter().filter(|w| steal_share(w) <= calm).collect();
    let latencies: Vec<f64> = calm
        .iter()
        .flat_map(|w| w.latencies_us.iter().copied())
        .collect();
    let cpu_us: f64 = calm.iter().map(|w| w.cpu_us).sum();
    eprintln!(
        "perfbench: {} of {} seconds calm",
        calm.len(),
        windows.len()
    );
    let metrics = vec![
        metric(
            "throughput_rps",
            median(&calm.iter().map(|w| rate(w)).collect::<Vec<_>>()),
            "1/s",
        ),
        metric("latency_p50_us", median(&latencies), "us"),
        metric(
            "cpu_us_per_req",
            cpu_us / latencies.len().max(1) as f64,
            "us",
        ),
        metric("setup_s", setup_s, "s"),
    ];
    Ok((metrics, run.attempted, run.failed(), run.first_failure))
}

fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let (workload, server, setup_s) = set_up(&args)?;
    let outcome = if args.trace {
        ledger::run(&workload, &server, args.seed, args.seconds)
    } else {
        end_to_end(&args, &workload, server.addr(), setup_s)
    };
    server.shutdown();
    let (metrics, attempted, failed, first_failure) = outcome?;
    let correct = failed == 0 && first_failure.is_none();
    for m in &metrics {
        println!("{} {:>16.3} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac {:.6} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(failure) = &first_failure {
        eprintln!("perfbench: {failure}");
    }
    println!("{}", render(correct, attempted.max(1), failed, &metrics)?);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
