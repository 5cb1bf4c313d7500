//! Live observability plane: a sampler thread streaming metrics snapshots
//! while the runtime serves traffic.
//!
//! End-of-run numbers ([`RunMetrics`](crate::RunMetrics), the Table 1
//! harness) answer *"what happened?"*; an operated deployment also needs
//! *"what is happening?"*.  [`RuntimeBuilder::observe`](crate::RuntimeBuilder::observe)
//! starts one background **sampler thread** that, every
//! [`ObserveConfig::sample_interval`], takes a point-in-time view of the
//! runtime's existing instrumentation — the sharded operation counters
//! ([`CounterSnapshot`]), the scheduler's [`PoolStats`], the arenas'
//! [`ArenaMemoryStats`](promise_core::ArenaMemoryStats) and live/peak
//! task+promise gauges, and the alarm sink — and exposes it two ways:
//!
//! * **JSONL append feed** ([`ObserveConfig::jsonl`]): one self-contained
//!   JSON object per line, suitable for `tail -f` and the same
//!   hand-rolled-JSON schema family as the chaos event log's export.
//!   `{"type":"metrics",...}` lines carry both cumulative counters and the
//!   per-interval delta; `{"type":"alarm",...}` lines stream every alarm
//!   exactly once (the sampler keeps a *private* cursor via
//!   [`Context::read_new_alarms`], so it never steals alarms from
//!   [`AlarmTail`] consumers).
//! * **Prometheus-style text exposition** ([`ObserveConfig::serve_metrics`]):
//!   a minimal blocking TCP listener answering `GET /metrics` with the
//!   standard `# TYPE` / sample-line text format, rendered fresh per scrape.
//!   The bound address (useful with port 0) is
//!   [`Runtime::observe_addr`](crate::Runtime::observe_addr).
//!
//! # Cost discipline
//!
//! Same rule as chaos and the event log: **zero hot-path cost when off**.
//! The plane is pull-based — the sampler reads counters that the hot paths
//! already maintain; no task, `get`, or `set` ever checks whether
//! observation is enabled, so the disabled cost is not even a branch, and
//! the enabled cost is one background thread touching shared counters a few
//! times per second.
//!
//! # Shutdown integration
//!
//! Both [`Runtime::shutdown`](crate::Runtime::shutdown) and
//! [`Runtime::shutdown_with_deadline`](crate::Runtime::shutdown_with_deadline)
//! stop the sampler *after* the pool drains, and the sampler emits one final
//! sample (draining any not-yet-streamed alarms) before exiting — the feed's
//! last `metrics` line is the run's end state, so `tail -f` readers see the
//! full story.

use std::io::{BufWriter, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use promise_core::{Alarm, Context, CounterSnapshot};

use crate::pool::PoolStats;

/// Configuration of the streaming observability plane (see the
/// [module docs](self) and [`RuntimeBuilder::observe`](crate::RuntimeBuilder::observe)).
#[derive(Clone, Debug, Default)]
pub struct ObserveConfig {
    /// How often the sampler takes a snapshot (and appends a JSONL line).
    /// `Duration::ZERO` (the `Default`) means the default of 100 ms.
    pub sample_interval: Duration,
    /// Append the JSONL feed to this file (created if absent).  `None`
    /// disables the feed.
    pub jsonl_path: Option<PathBuf>,
    /// Serve the Prometheus-style text exposition on this address (`GET
    /// /metrics`).  Use port 0 for an ephemeral port and read it back via
    /// [`Runtime::observe_addr`](crate::Runtime::observe_addr).  `None`
    /// disables the listener.
    pub metrics_addr: Option<SocketAddr>,
}

impl ObserveConfig {
    /// Default sampler interval when none is set.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(100);

    /// A config with neither surface enabled (the sampler still runs, so
    /// counters keep folding — but usually you enable at least one).
    pub fn new() -> ObserveConfig {
        ObserveConfig::default()
    }

    /// Sets the sampling interval.
    pub fn sample_interval(mut self, interval: Duration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Enables the JSONL append feed at `path`.
    pub fn jsonl(mut self, path: impl Into<PathBuf>) -> Self {
        self.jsonl_path = Some(path.into());
        self
    }

    /// Enables the `/metrics` listener on `addr`.
    pub fn serve_metrics(mut self, addr: SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    /// Enables the `/metrics` listener on `127.0.0.1` with an ephemeral
    /// port (read it back via
    /// [`Runtime::observe_addr`](crate::Runtime::observe_addr)).
    pub fn serve_metrics_local(self) -> Self {
        self.serve_metrics(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    fn interval(&self) -> Duration {
        if self.sample_interval.is_zero() {
            Self::DEFAULT_INTERVAL
        } else {
            self.sample_interval
        }
    }
}

/// A live, exactly-once consumer of the runtime's alarms (see
/// [`Runtime::alarm_tail`](crate::Runtime::alarm_tail)).
///
/// Each recorded alarm is yielded by exactly one [`next`](Iterator::next)
/// call across *all* concurrently tailing consumers (the shared take-cursor
/// of [`promise_core::AlarmSink::claim_next`]), so an alarm recorded while
/// another is being read is neither dropped nor seen twice.  `None` means
/// *nothing new right now*, never exhaustion — keep the tail and poll again
/// later, like `tail -f`.  The tail is independent of the observability
/// sampler's feed (which uses a private cursor) and of
/// [`Context::alarms`] snapshots.
pub struct AlarmTail {
    ctx: Arc<Context>,
}

impl AlarmTail {
    pub(crate) fn new(ctx: Arc<Context>) -> AlarmTail {
        AlarmTail { ctx }
    }

    /// Takes the next not-yet-claimed alarm, or `None` when nothing new is
    /// available right now.
    pub fn try_next(&self) -> Option<Alarm> {
        self.ctx.claim_next_alarm()
    }
}

impl Iterator for AlarmTail {
    type Item = Alarm;

    fn next(&mut self) -> Option<Alarm> {
        self.try_next()
    }
}

impl std::fmt::Debug for AlarmTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlarmTail").finish_non_exhaustive()
    }
}

/// Everything a snapshot reads from.  Shared by the sampler thread and the
/// `/metrics` listener (which renders fresh per scrape).
struct Sources {
    ctx: Arc<Context>,
    pool_stats: Box<dyn Fn() -> PoolStats + Send + Sync>,
}

impl Sources {
    /// Renders the Prometheus text exposition (version 0.0.4): `# TYPE`
    /// lines plus one sample line per family, all prefixed `promise_`.
    fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let counters = self.ctx.counter_snapshot();
        for (name, value) in counters.named_fields() {
            push_family(&mut out, &format!("promise_{name}_total"), "counter", value);
        }
        let gauges: [(&str, u64); 4] = [
            ("promise_live_tasks", self.ctx.live_tasks() as u64),
            ("promise_live_promises", self.ctx.live_promises() as u64),
            ("promise_peak_live_tasks", self.ctx.peak_live_tasks() as u64),
            (
                "promise_peak_live_promises",
                self.ctx.peak_live_promises() as u64,
            ),
        ];
        for (name, value) in gauges {
            push_family(&mut out, name, "gauge", value);
        }
        let pool = (self.pool_stats)();
        for (name, value, kind) in [
            ("promise_pool_workers", pool.current_workers as u64, "gauge"),
            (
                "promise_pool_idle_workers",
                pool.idle_workers as u64,
                "gauge",
            ),
            (
                "promise_pool_blocked_workers",
                pool.blocked_workers as u64,
                "gauge",
            ),
            (
                "promise_pool_peak_workers",
                pool.peak_workers as u64,
                "gauge",
            ),
            (
                "promise_pool_threads_started_total",
                pool.threads_started as u64,
                "counter",
            ),
            (
                "promise_pool_jobs_executed_total",
                pool.jobs_executed as u64,
                "counter",
            ),
            (
                "promise_pool_jobs_stolen_total",
                pool.jobs_stolen as u64,
                "counter",
            ),
            (
                "promise_pool_steal_probes_total",
                pool.steal_probes as u64,
                "counter",
            ),
            (
                "promise_pool_jobs_helped_total",
                pool.jobs_helped as u64,
                "counter",
            ),
            ("promise_pool_queued_jobs", pool.queued_jobs as u64, "gauge"),
            ("promise_pool_panics_total", pool.panics as u64, "counter"),
        ] {
            push_family(&mut out, name, kind, value);
        }
        let memory = self.ctx.memory_stats();
        for (name, value, kind) in [
            (
                "promise_memory_resident_bytes",
                memory.resident_bytes as u64,
                "gauge",
            ),
            (
                "promise_memory_peak_resident_bytes",
                memory.peak_resident_bytes as u64,
                "gauge",
            ),
            (
                "promise_memory_bytes_freed_total",
                memory.bytes_freed,
                "counter",
            ),
            (
                "promise_memory_chunks_reclaimed_total",
                memory.chunks_reclaimed,
                "counter",
            ),
            (
                "promise_arena_magazine_ops_total",
                memory.magazine_ops,
                "counter",
            ),
            (
                "promise_arena_shared_path_total",
                memory.shared_path_ops,
                "counter",
            ),
        ] {
            push_family(&mut out, name, kind, value);
        }
        push_family(
            &mut out,
            "promise_alarms_total",
            "counter",
            self.ctx.alarm_count() as u64,
        );
        out
    }
}

fn push_family(out: &mut String, name: &str, kind: &str, value: u64) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Appends `"name":value` (raw JSON value, pre-rendered) to an object body.
fn push_json_field(out: &mut String, name: &str, value: impl std::fmt::Display) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

/// Appends `"name":"escaped"` to an object body.
fn push_json_str(out: &mut String, name: &str, value: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_counter_object(out: &mut String, name: &str, snap: &CounterSnapshot) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":{");
    for (field, value) in snap.named_fields() {
        push_json_field(out, field, value);
    }
    out.push('}');
}

/// The stop signal shared by the sampler and listener threads: a flag the
/// listener polls plus a condvar that wakes the sampler promptly.
struct StopSignal {
    flag: AtomicBool,
    lock: parking_lot::Mutex<()>,
    cv: parking_lot::Condvar,
}

impl StopSignal {
    fn raise(&self) {
        self.flag.store(true, Ordering::Release);
        let _guard = self.lock.lock();
        self.cv.notify_all();
    }

    fn raised(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The running observability plane: the sampler thread, the optional
/// `/metrics` listener thread, and their shared stop signal.  Owned by
/// [`Runtime`](crate::Runtime); stopping is prompt and idempotent.
pub(crate) struct Observer {
    stop: Arc<StopSignal>,
    sampler: Option<std::thread::JoinHandle<()>>,
    listener: Option<std::thread::JoinHandle<()>>,
    addr: Option<SocketAddr>,
}

impl Observer {
    /// Starts the plane.
    ///
    /// # Panics
    /// At build time (not on any hot path) when the JSONL file cannot be
    /// opened or the metrics address cannot be bound — a misconfigured
    /// observability surface should fail loudly, not silently observe
    /// nothing.
    pub(crate) fn spawn(
        config: ObserveConfig,
        ctx: Arc<Context>,
        pool_stats: Box<dyn Fn() -> PoolStats + Send + Sync>,
    ) -> Observer {
        let sources = Arc::new(Sources { ctx, pool_stats });
        let stop = Arc::new(StopSignal {
            flag: AtomicBool::new(false),
            lock: parking_lot::Mutex::new(()),
            cv: parking_lot::Condvar::new(),
        });
        let writer = config.jsonl_path.as_ref().map(|path| {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| panic!("observe: cannot open JSONL feed {path:?}: {e}"));
            BufWriter::new(file)
        });
        let (listener, addr) = match config.metrics_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr)
                    .unwrap_or_else(|e| panic!("observe: cannot bind /metrics on {addr}: {e}"));
                let bound = listener
                    .local_addr()
                    .expect("bound listener has a local address");
                listener
                    .set_nonblocking(true)
                    .expect("observe: cannot set the listener nonblocking");
                let stop2 = Arc::clone(&stop);
                let sources2 = Arc::clone(&sources);
                let join = std::thread::Builder::new()
                    .name("promise-observe-http".to_string())
                    .spawn(move || listener_loop(listener, sources2, stop2))
                    .expect("failed to spawn observe listener thread");
                (Some(join), Some(bound))
            }
            None => (None, None),
        };
        let interval = config.interval();
        let stop2 = Arc::clone(&stop);
        let sampler = std::thread::Builder::new()
            .name("promise-observe".to_string())
            .spawn(move || sampler_loop(sources, writer, interval, stop2))
            .expect("failed to spawn observe sampler thread");
        Observer {
            stop,
            sampler: Some(sampler),
            listener,
            addr,
        }
    }

    /// Bound address of the `/metrics` listener, if one was configured.
    pub(crate) fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Stops both threads, letting the sampler take its final (drain)
    /// sample first.  Idempotent; also runs on drop.
    pub(crate) fn stop(&mut self) {
        self.stop.raise();
        if let Some(join) = self.sampler.take() {
            let _ = join.join();
        }
        if let Some(join) = self.listener.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Observer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The sampler thread: one snapshot per interval, plus a final drain sample
/// once the stop signal is raised.
fn sampler_loop(
    sources: Arc<Sources>,
    mut writer: Option<BufWriter<std::fs::File>>,
    interval: Duration,
    stop: Arc<StopSignal>,
) {
    let started = Instant::now();
    let mut prev = sources.ctx.counter_snapshot();
    let mut alarm_cursor = 0usize;
    let mut seq = 0u64;
    loop {
        let stopping = {
            let mut guard = stop.lock.lock();
            if !stop.raised() {
                stop.cv.wait_for(&mut guard, interval);
            }
            stop.raised()
        };
        let now = sources.ctx.counter_snapshot();
        if let Some(writer) = writer.as_mut() {
            let mut line = String::with_capacity(1024);
            line.push('{');
            push_json_str(&mut line, "type", "metrics");
            push_json_field(&mut line, "seq", seq);
            push_json_field(&mut line, "elapsed_ms", started.elapsed().as_millis());
            push_counter_object(&mut line, "counters", &now);
            push_counter_object(&mut line, "delta", &now.since(&prev));
            let pool = (sources.pool_stats)();
            line.push_str(",\"pool\":{");
            push_json_field(&mut line, "current_workers", pool.current_workers);
            push_json_field(&mut line, "idle_workers", pool.idle_workers);
            push_json_field(&mut line, "blocked_workers", pool.blocked_workers);
            push_json_field(&mut line, "peak_workers", pool.peak_workers);
            push_json_field(&mut line, "threads_started", pool.threads_started);
            push_json_field(&mut line, "jobs_executed", pool.jobs_executed);
            push_json_field(&mut line, "jobs_stolen", pool.jobs_stolen);
            push_json_field(&mut line, "steal_probes", pool.steal_probes);
            push_json_field(&mut line, "jobs_helped", pool.jobs_helped);
            push_json_field(&mut line, "queued_jobs", pool.queued_jobs);
            push_json_field(&mut line, "panics", pool.panics);
            line.push('}');
            let memory = sources.ctx.memory_stats();
            line.push_str(",\"memory\":{");
            push_json_field(&mut line, "resident_bytes", memory.resident_bytes);
            push_json_field(&mut line, "peak_resident_bytes", memory.peak_resident_bytes);
            push_json_field(&mut line, "bytes_freed", memory.bytes_freed);
            push_json_field(&mut line, "chunks_reclaimed", memory.chunks_reclaimed);
            push_json_field(&mut line, "magazine_ops", memory.magazine_ops);
            push_json_field(&mut line, "shared_path_ops", memory.shared_path_ops);
            line.push('}');
            line.push_str(",\"tasks\":{");
            push_json_field(&mut line, "live", sources.ctx.live_tasks());
            push_json_field(&mut line, "peak", sources.ctx.peak_live_tasks());
            line.push('}');
            line.push_str(",\"promises\":{");
            push_json_field(&mut line, "live", sources.ctx.live_promises());
            push_json_field(&mut line, "peak", sources.ctx.peak_live_promises());
            line.push('}');
            line.push('}');
            line.push('\n');
            // The sampler's alarm feed advances a *private* cursor, so it
            // observes every alarm exactly once without consuming from the
            // shared `AlarmTail`.
            alarm_cursor = sources.ctx.read_new_alarms(alarm_cursor, |alarm| {
                line.push('{');
                push_json_str(&mut line, "type", "alarm");
                push_json_field(&mut line, "elapsed_ms", started.elapsed().as_millis());
                push_json_str(&mut line, "kind", alarm.kind());
                push_json_str(&mut line, "detail", &alarm.to_string());
                line.push('}');
                line.push('\n');
            });
            let _ = writer.write_all(line.as_bytes());
            let _ = writer.flush();
        }
        prev = now;
        seq += 1;
        if stopping {
            break;
        }
    }
}

/// The `/metrics` listener: a nonblocking accept loop that renders the
/// exposition fresh per scrape and polls the stop flag between accepts.
fn listener_loop(listener: TcpListener, sources: Arc<Sources>, stop: Arc<StopSignal>) {
    while !stop.raised() {
        match listener.accept() {
            Ok((stream, _)) => serve_scrape(stream, &sources),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

/// Answers one HTTP exchange: `GET /metrics` gets the exposition, anything
/// else a 404.  Deliberately minimal — one request per connection, no
/// keep-alive, bounded reads.
fn serve_scrape(mut stream: TcpStream, sources: &Sources) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut request = [0u8; 1024];
    let mut filled = 0usize;
    // Read until the header terminator (or the buffer/timeout gives up —
    // the request line is all we route on).
    while filled < request.len() {
        match stream.read(&mut request[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if request[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&request[..filled]);
    let (status, body) = if head.starts_with("GET /metrics") {
        ("200 OK", sources.render_prometheus())
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_sources() -> Sources {
        Sources {
            ctx: Context::new_verified(),
            pool_stats: Box::new(PoolStats::default),
        }
    }

    #[test]
    fn exposition_is_well_formed_and_covers_core_families() {
        let sources = test_sources();
        let text = sources.render_prometheus();
        for family in [
            "promise_gets_total",
            "promise_sets_total",
            "promise_tasks_spawned_total",
            "promise_live_tasks",
            "promise_pool_workers",
            "promise_pool_steal_probes_total",
            "promise_memory_resident_bytes",
            "promise_arena_shared_path_total",
            "promise_alarms_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing TYPE line for {family}"
            );
            assert!(
                text.lines().any(|l| {
                    l.strip_prefix(family)
                        .and_then(|rest| rest.strip_prefix(' '))
                        .is_some_and(|v| v.parse::<u64>().is_ok())
                }),
                "missing sample line for {family}"
            );
        }
        // Well-formedness: every line is either a comment or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(' ');
            let name = parts.next().unwrap();
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            assert!(parts.next().unwrap().parse::<u64>().is_ok());
            assert!(parts.next().is_none());
        }
    }

    #[test]
    fn json_helpers_escape_and_separate_fields() {
        let mut out = String::from("{");
        push_json_str(&mut out, "a", "x\"y\\z\n");
        push_json_field(&mut out, "b", 7);
        out.push('}');
        assert_eq!(out, "{\"a\":\"x\\\"y\\\\z\\n\",\"b\":7}");
    }

    #[test]
    fn scrape_serves_metrics_and_404s_everything_else() {
        let sources = Arc::new(test_sources());
        let stop = Arc::new(StopSignal {
            flag: AtomicBool::new(false),
            lock: parking_lot::Mutex::new(()),
            cv: parking_lot::Condvar::new(),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let (s2, st2) = (Arc::clone(&sources), Arc::clone(&stop));
        let join = std::thread::spawn(move || listener_loop(listener, s2, st2));
        let scrape = |path: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        let ok = scrape("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("promise_gets_total"));
        let missing = scrape("/nope");
        assert!(
            missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{missing}"
        );
        stop.raise();
        join.join().unwrap();
    }
}
