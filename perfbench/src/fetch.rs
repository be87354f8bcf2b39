//! Closed-loop block fetches against an in-process [`Server`].
//!
//! Each client owns one connection over an in-memory duplex pipe and
//! sends its next `decode_block` request only after the previous answer
//! arrived, the way a refill engine waits for its cache line.  The
//! request stream is split into one contiguous slice per client, so each
//! client replays a stretch of the fetch trace with its locality intact.

use crate::tracer::Span;
use cce_core::serve::fault::duplex;
use cce_core::serve::{Client, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one closed-loop phase measured.
pub struct FetchOutcome {
    /// Per-request latency in nanoseconds, failures as `u64::MAX` (a
    /// failed request misses every latency limit).
    pub latencies_ns: Vec<u64>,
    /// When each request completed, in nanoseconds from the phase start
    /// (same order as `latencies_ns`).
    pub done_ns: Vec<u64>,
    /// Wall time of the whole phase.
    pub wall_s: f64,
    /// Host steal ticks read at the phase start, at the end of every full
    /// [`WINDOW_S`] window after it, and at the phase end.
    pub steal_ticks: Vec<u64>,
    /// Requests whose answer was an error or differed from the text.
    pub failed: u64,
    /// Per-request spans (`fetch.request` with a `fetch.verify` child,
    /// sharing the request id), when recording.
    pub spans: Vec<Span>,
}

/// Where each block's bytes sit in the original text.
pub struct BlockMap<'a> {
    /// The original text.
    pub text: &'a [u8],
    /// Block start offsets, plus the text length at the end.
    pub offsets: Vec<usize>,
}

impl BlockMap<'_> {
    fn expected(&self, block: u64) -> Option<&[u8]> {
        let i = usize::try_from(block).ok()?;
        Some(&self.text[*self.offsets.get(i)?..*self.offsets.get(i + 1)?])
    }
}

/// Runs `requests` through `clients` closed-loop clients and checks each
/// answer against `map`.  Timestamps in recorded spans count from `epoch`.
pub fn closed_loop(
    server: &Server,
    requests: &[u64],
    map: &BlockMap<'_>,
    clients: usize,
    epoch: Option<Instant>,
) -> FetchOutcome {
    let per_client = requests.len().div_ceil(clients.max(1)).max(1);
    let start = Instant::now();
    let running = AtomicBool::new(true);
    let (results, steal_ticks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_steal(start, &running));
        let handles: Vec<_> = requests
            .chunks(per_client)
            .enumerate()
            .map(|(c, slice)| {
                let (client_end, server_end) = duplex();
                let (reader, writer) = server_end.split();
                scope.spawn(move || server.handle_connection(reader, writer));
                let first_id = (c * per_client) as u64;
                let client = Client::new(client_end);
                scope.spawn(move || run_client(client, slice, first_id, map, start, epoch))
            })
            .collect();
        let results: Vec<ClientResult> =
            handles.into_iter().map(|h| h.join().expect("fetch client panicked")).collect();
        running.store(false, Ordering::SeqCst);
        (results, sampler.join().expect("steal sampler panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut outcome = FetchOutcome {
        latencies_ns: Vec::new(),
        done_ns: Vec::new(),
        wall_s,
        steal_ticks,
        failed: 0,
        spans: Vec::new(),
    };
    for ClientResult { latencies, done, failed, spans } in results {
        outcome.latencies_ns.extend(latencies);
        outcome.done_ns.extend(done);
        outcome.failed += failed;
        let base = outcome.spans.len();
        outcome.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    outcome
}

/// Reads the host steal ticks at `start`, at every window boundary
/// after it while `running`, and once more at the end.
fn sample_steal(start: Instant, running: &AtomicBool) -> Vec<u64> {
    let mut ticks = vec![crate::host::steal_ticks()];
    let window = Duration::from_secs_f64(WINDOW_S);
    let mut boundary = start + window;
    while running.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now >= boundary {
            ticks.push(crate::host::steal_ticks());
            boundary += window;
        } else {
            // Short naps, so the sampler ends soon after the clients.
            std::thread::sleep((boundary - now).min(Duration::from_millis(5)));
        }
    }
    // Closes a phase shorter than one window.
    ticks.push(crate::host::steal_ticks());
    ticks
}

struct ClientResult {
    latencies: Vec<u64>,
    done: Vec<u64>,
    failed: u64,
    spans: Vec<Span>,
}

/// One client's loop; dropping the client at the end hangs up, which
/// ends the server's handler for this connection.
fn run_client<S: std::io::Read + std::io::Write>(
    mut client: Client<S>,
    slice: &[u64],
    first_id: u64,
    map: &BlockMap<'_>,
    start: Instant,
    epoch: Option<Instant>,
) -> ClientResult {
    let mut latencies = Vec::with_capacity(slice.len());
    let mut done = Vec::with_capacity(slice.len());
    let mut spans = Vec::with_capacity(if epoch.is_some() { 2 * slice.len() } else { 0 });
    let mut failed = 0;
    let ns = |at: Instant, epoch: Instant| at.duration_since(epoch).as_nanos() as u64;
    for (i, &block) in slice.iter().enumerate() {
        let sent = Instant::now();
        let answer = client.decode_block(block);
        let answered = Instant::now();
        let ok = matches!((&answer, map.expected(block)), (Ok(bytes), Some(want)) if bytes == want);
        let verified = Instant::now();
        done.push(answered.duration_since(start).as_nanos() as u64);
        if ok {
            latencies.push(answered.duration_since(sent).as_nanos() as u64);
        } else {
            failed += 1;
            latencies.push(u64::MAX);
            // The first failure per client is enough to diagnose; the
            // count goes into the result.
            if failed == 1 {
                match answer {
                    Err(e) => eprintln!("perfbench: fetch of block {block} failed: {e}"),
                    Ok(_) => eprintln!("perfbench: fetch of block {block} returned wrong bytes"),
                }
            }
        }
        if let Some(epoch) = epoch {
            let request = Some(first_id + i as u64);
            let parent = spans.len();
            spans.push(Span {
                name: "fetch.request",
                start_ns: ns(sent, epoch),
                end_ns: ns(verified, epoch),
                parent: None,
                request,
            });
            spans.push(Span {
                name: "fetch.verify",
                start_ns: ns(answered, epoch),
                end_ns: ns(verified, epoch),
                parent: Some(parent),
                request,
            });
        }
    }
    ClientResult { latencies, done, failed, spans }
}

/// Length of the windows a fetch phase is cut into.
const WINDOW_S: f64 = 0.1;

/// One [`WINDOW_S`] window of a fetch phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Median latency of the requests completed in the window (µs).
    pub p50_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
    /// Requests completed per second.
    pub rps: f64,
    /// Whether the hypervisor stole CPU time during the window (or the
    /// window's steal was not sampled).
    pub stolen: bool,
}

/// Every full [`WINDOW_S`] window of the phase, by completion time; a
/// phase shorter than one window is one window.
pub fn windows(outcome: &FetchOutcome) -> Vec<Window> {
    let full = (outcome.wall_s / WINDOW_S) as usize;
    let (count, width_s) = if full == 0 { (1, outcome.wall_s) } else { (full, WINDOW_S) };
    let width_ns = ((width_s * 1e9) as u64).max(1);
    let mut buckets = vec![Vec::new(); count];
    for (&latency, &done) in outcome.latencies_ns.iter().zip(&outcome.done_ns) {
        // Requests past the last full window are dropped; a short
        // phase's single window takes every request.
        let slot = if full == 0 { 0 } else { usize::try_from(done / width_ns).unwrap_or(count) };
        if let Some(bucket) = buckets.get_mut(slot) {
            bucket.push(latency);
        }
    }
    let ticks = &outcome.steal_ticks;
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(i, mut b)| {
            b.sort_unstable();
            let us = |q| crate::stats::quantile_sorted(&b, q) as f64 / 1e3;
            let stolen = match (ticks.get(i), ticks.get(i + 1)) {
                (Some(before), Some(after)) => after > before,
                _ => true,
            };
            Window { p50_us: us(0.5), p99_us: us(0.99), rps: b.len() as f64 / width_s, stolen }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cut_by_completion_time_and_flag_steal() {
        let ms = 1_000_000u64;
        let outcome = FetchOutcome {
            latencies_ns: vec![10_000, 20_000, 30_000, 40_000, 50_000],
            done_ns: vec![4 * ms, 40 * ms, 104 * ms, 160 * ms, 204 * ms],
            wall_s: 0.208,
            steal_ticks: vec![7, 7, 9],
            failed: 0,
            spans: Vec::new(),
        };
        // Two full windows; the request done at 204 ms is in neither.
        let w = |p50_us, p99_us, stolen| Window { p50_us, p99_us, rps: 20.0, stolen };
        assert_eq!(windows(&outcome), [w(10.0, 20.0, false), w(30.0, 40.0, true)]);
        let short = FetchOutcome { wall_s: 0.05, steal_ticks: vec![3, 3], ..outcome };
        let one = windows(&short);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].rps, 5.0 / 0.05);
        assert!(!one[0].stolen);
    }
}
