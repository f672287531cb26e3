//! The closed-loop client: `conns` connections, each sending its next
//! request only after the previous response line arrived, as a design
//! tool waiting on its answer does. All connections draw from one shared
//! cursor, so the stream is cycled in order across them.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use disparity_service::proto::is_trace_id;

use crate::stats::{host_steal_ms, process_cpu_us, rss_mb};
use crate::workloads::{Item, OpKind};

/// Samples each connection can record without reallocating. Buffers are
/// allocated and touched before the run, so the client's own sample
/// storage does not grow the process's resident set while it measures.
pub const SAMPLES_PER_CONN: usize = 1 << 19;

/// One matching response.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position of the request in the stream.
    pub item: u32,
    /// Latency in ns (saturating).
    latency_ns: u32,
    /// Completion time in µs since the loop began (saturating).
    at_us: u32,
    /// Operation.
    kind: OpKind,
}

fn saturate(v: u128) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

impl Sample {
    fn at_secs(self) -> f64 {
        f64::from(self.at_us) / 1e6
    }

    /// Latency in microseconds.
    pub fn latency_us(self) -> f64 {
        f64::from(self.latency_ns) / 1e3
    }
}

/// Sample buffers for `conns` connections, allocated and touched.
pub fn buffers(conns: usize, capacity: usize) -> Vec<Vec<Sample>> {
    (0..conns)
        .map(|_| {
            let filler = Sample {
                item: u32::MAX,
                latency_ns: u32::MAX,
                at_us: u32::MAX,
                kind: OpKind::Disparity,
            };
            let mut buffer = vec![filler; capacity];
            buffer.clear();
            buffer
        })
        .collect()
}

/// A process reading taken while the loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Seconds since the loop began.
    pub at: f64,
    /// Process user+sys CPU time, µs.
    pub cpu_us: f64,
    /// Resident set, MiB.
    pub rss_mb: f64,
    /// Host steal so far, ms (see [`host_steal_ms`]).
    pub steal_ms: f64,
}

fn tick(at: Duration) -> Result<Tick, String> {
    Ok(Tick {
        at: at.as_secs_f64(),
        cpu_us: process_cpu_us()?,
        rss_mb: rss_mb()?,
        steal_ms: host_steal_ms()?,
    })
}

/// The responses completed between two ticks.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window length.
    pub seconds: f64,
    /// Host steal in the window, ms.
    pub steal_ms: f64,
    /// Process CPU time in the window, µs.
    pub cpu_us: f64,
    /// Latency of every matching response completed in the window.
    pub latencies_us: Vec<f64>,
}

/// What one closed-loop run observed.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Requests sent.
    pub attempted: u64,
    /// Responses byte-identical to their oracle.
    pub ok: u64,
    /// One sample per matching response, per connection.
    pub samples: Vec<Vec<Sample>>,
    /// Process readings about once a second, from the start to the end.
    pub ticks: Vec<Tick>,
    /// The first mismatching or missing response, for the error report.
    pub first_failure: Option<String>,
}

impl LoopResult {
    /// Requests that failed (non-`ok`, mismatched, or unanswered).
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Process CPU time spent during the run, µs.
    pub fn cpu_us(&self) -> f64 {
        match (self.ticks.first(), self.ticks.last()) {
            (Some(a), Some(b)) => b.cpu_us - a.cpu_us,
            _ => 0.0,
        }
    }

    /// The run cut at its ticks into windows of about a second.
    pub fn windows(&self) -> Vec<Window> {
        let mut windows: Vec<Window> = self
            .ticks
            .windows(2)
            .map(|pair| Window {
                seconds: pair[1].at - pair[0].at,
                steal_ms: pair[1].steal_ms - pair[0].steal_ms,
                cpu_us: pair[1].cpu_us - pair[0].cpu_us,
                latencies_us: Vec::new(),
            })
            .collect();
        for sample in self.samples.iter().flatten() {
            let at = sample.at_secs();
            let index = self.ticks.partition_point(|t| t.at <= at).saturating_sub(1);
            if let Some(w) = windows.get_mut(index) {
                w.latencies_us.push(sample.latency_us());
            }
        }
        windows.retain(|w| w.seconds > 0.5);
        windows
    }

    /// Latencies of one op kind (all kinds with `None`), in microseconds.
    pub fn latencies_of(&self, kind: Option<OpKind>) -> Vec<f64> {
        self.samples
            .iter()
            .flatten()
            .filter(|s| kind.is_none_or(|want| s.kind == want))
            .map(|s| s.latency_us())
            .collect()
    }
}

/// Whether the wire response `got` is `want` plus a trailing trace id
/// (the check `split_trace` + compare makes, without allocating).
fn matches(got: &str, want: &str) -> bool {
    const MARK: &str = ",\"trace_id\":\"";
    let (Some(at), Some(body)) = (got.rfind(MARK), want.strip_suffix('}')) else {
        return false;
    };
    got[..at] == *body
        && got[at + MARK.len()..]
            .strip_suffix("\"}")
            .is_some_and(is_trace_id)
}

/// Sends every item once, in order, on one connection, and checks each
/// response.
pub fn send_checked(addr: SocketAddr, items: &[Item]) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream;
    let mut response = String::new();
    for item in items {
        response.clear();
        writer
            .write_all(item.line.as_bytes())
            .and_then(|()| reader.read_line(&mut response))
            .map_err(|e| format!("seat request: {e}"))?;
        if !matches(response.trim_end(), &item.want) {
            return Err(format!(
                "seat response mismatch\n  sent: {}\n  want: {}\n  got:  {}",
                item.line.trim_end(),
                item.want,
                response.trim_end()
            ));
        }
    }
    Ok(())
}

struct ConnResult {
    attempted: u64,
    ok: u64,
    samples: Vec<Sample>,
    first_failure: Option<String>,
}

fn run_connection(
    addr: SocketAddr,
    items: &[Item],
    cursor: &AtomicUsize,
    start: &Barrier,
    deadline: Duration,
    limit: usize,
    samples: Vec<Sample>,
) -> Result<ConnResult, String> {
    let connected = TcpStream::connect(addr)
        .and_then(|s| s.set_nodelay(true).map(|()| s))
        .and_then(|s| s.try_clone().map(|r| (BufReader::new(r), s)));
    // Every connection passes the barrier, connected or not, so one
    // failed connect cannot leave the others waiting.
    start.wait();
    let (mut reader, mut writer) = connected.map_err(|e| format!("connect: {e}"))?;
    let mut out = ConnResult {
        attempted: 0,
        ok: 0,
        samples,
        first_failure: None,
    };
    let mut response = String::new();
    let begun = Instant::now();
    while begun.elapsed() < deadline {
        // conc: a work-distribution ticket; it publishes no data
        let ticket = cursor.fetch_add(1, Ordering::Relaxed);
        if ticket >= limit {
            break;
        }
        let item = &items[ticket % items.len()];
        response.clear();
        out.attempted += 1;
        let sent = Instant::now();
        let io = writer
            .write_all(item.line.as_bytes())
            .and_then(|()| reader.read_line(&mut response));
        let latency = sent.elapsed();
        let got = match io {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(response.trim_end()),
        };
        if got.is_some_and(|got| matches(got, &item.want)) {
            out.ok += 1;
            out.samples.push(Sample {
                item: u32::try_from(ticket % items.len()).unwrap_or(u32::MAX),
                latency_ns: saturate(latency.as_nanos()),
                at_us: saturate(begun.elapsed().as_micros()),
                kind: item.kind,
            });
        } else {
            if out.first_failure.is_none() {
                out.first_failure = Some(format!(
                    "response mismatch\n  sent: {}\n  want: {}\n  got:  {}",
                    item.line.trim_end(),
                    item.want,
                    got.unwrap_or("<connection closed>")
                ));
            }
            if got.is_none() {
                break;
            }
        }
    }
    Ok(out)
}

/// Runs the closed loop over `items`, one connection per sample buffer,
/// for `duration` or `limit` requests, whichever ends first.
pub fn closed_loop(
    addr: SocketAddr,
    items: &[Item],
    buffers: Vec<Vec<Sample>>,
    duration: Duration,
    limit: usize,
) -> Result<LoopResult, String> {
    let cursor = AtomicUsize::new(0);
    let start = Barrier::new(buffers.len() + 1);
    let (results, ticks) = std::thread::scope(|scope| {
        let handles: Vec<_> = buffers
            .into_iter()
            .map(|samples| {
                let (cursor, start) = (&cursor, &start);
                scope.spawn(move || {
                    run_connection(addr, items, cursor, start, duration, limit, samples)
                })
            })
            .collect();
        start.wait();
        let begun = Instant::now();
        // Sample process CPU time and resident set once a second while
        // the connections run.
        let mut ticks = Vec::new();
        let mut next = Duration::ZERO;
        while !handles
            .iter()
            .all(std::thread::ScopedJoinHandle::is_finished)
        {
            let now = begun.elapsed();
            if now >= next {
                ticks.push(tick(now));
                next += Duration::from_secs(1);
            }
            std::thread::sleep((next.saturating_sub(now)).min(Duration::from_millis(5)));
        }
        ticks.push(tick(begun.elapsed()));
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (results, ticks)
    });
    let mut total = LoopResult {
        ticks: ticks.into_iter().collect::<Result<_, _>>()?,
        ..LoopResult::default()
    };
    for r in results {
        let r = r?;
        total.attempted += r.attempted;
        total.ok += r.ok;
        total.samples.push(r.samples);
        if total.first_failure.is_none() {
            total.first_failure = r.first_failure;
        }
    }
    Ok(total)
}
