//! A TCP server exposing [`crate::MiniRedis`] over RESP2.
//!
//! Thread-per-connection with the store behind a mutex — the concurrency
//! model real Redis avoids, but sufficient to validate KRR against a cache
//! reached through an actual wire protocol (§5.7 ran against a live Redis
//! instance). Supported commands: `GET`, `SET`, `DEL`, `DBSIZE`, `INFO`,
//! `METRICS`, `MRC`, `PING`, `SHUTDOWN`, `BGSAVE`, `TRACE DUMP`,
//! `SLOWLOG GET|LEN|RESET`, and `CONFIG GET|SET` for
//! `slowlog-log-slower-than`, `expo-port`, and `forensics`.
//!
//! `CONFIG SET expo-port <port>` starts an embedded
//! [`krr_core::expo::ExpoServer`] on `127.0.0.1:<port>` serving the store's
//! metrics registry as OpenMetrics text (`/metrics`, with tail-latency
//! exemplars), the live profiler curve (`/mrc`, refreshed every
//! [`crate::store::EXPO_REFRESH_EVERY`] GETs), the flight recorder
//! (`/trace`), the exemplar ring (`/exemplars`), the phase profiler
//! (`/profile`), and `/healthz`; `CONFIG SET expo-port 0` stops it. The
//! same data also lands in `INFO`'s `# memory` section via the shared
//! registry.
//!
//! Tail-latency forensics: every command draws a request id from an
//! [`krr_core::forensics::ExemplarRing`]; commands whose latency lands in
//! the top histogram bucket (≈p99+) are captured with their tenant,
//! command tag, and a counter-context join (ring parks, deep-chain work,
//! scrape-in-progress). `CONFIG SET forensics off` disables both the
//! exemplar ring and the phase profiler, leaving only the flight
//! recorder — the baseline side of `BENCH_doctor.json`. Slow-log entries
//! and `Command` trace spans carry the connection's tenant so fleet-mode
//! tails are attributable.
//!
//! `BGSAVE` writes an atomic `krr-ckpt-v1` checkpoint of the whole store
//! (keyspace, counters, profiler, watchdog) to the path configured with
//! [`MiniRedis::set_checkpoint_path`]; start a server from
//! [`MiniRedis::restore_from`] to resume from one.
//!
//! `MRC` returns the online KRR profiler's current miss-ratio curve as a
//! `cache_size,miss_ratio` CSV bulk string (an error if the store was built
//! without [`MiniRedis::enable_mrc_profiling`]).
//!
//! `INFO` renders the store's counters plus the full metrics snapshot in
//! Redis's `# section` / `key:value` text form; `METRICS` returns the same
//! snapshot as one JSON document (`krr-metrics-v1`).
//!
//! Every server carries an always-on [`FlightRecorder`]: each connection
//! thread records a [`Phase::Command`] span per command into its own
//! lock-free ring, and the store's profiler/watchdog rings are attached at
//! startup. `TRACE DUMP` drains everything as Chrome trace-event JSON.
//! Commands slower than a configurable threshold (default 10 000 µs, the
//! Redis default) also land in the slow log, queryable with `SLOWLOG GET`
//! in Redis's reply shape: `[id, start_µs, duration_µs, argv]`, where
//! `start_µs` is measured from server start rather than the unix epoch
//! (the hermetic test suite forbids wall-clock timestamps).

use crate::resp::{read_value, write_value, Value};
use crate::store::MiniRedis;
use krr_core::expo::{ExpoServer, ExpoSources, MrcCell};
use krr_core::forensics::{Exemplar, ExemplarRing};
use krr_core::obs::{FlightRecorder, Phase};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum retained slow-log entries (Redis's `slowlog-max-len` default).
pub const SLOWLOG_MAX_LEN: usize = 128;
/// Default `slowlog-log-slower-than` threshold in microseconds.
pub const SLOWLOG_DEFAULT_THRESHOLD_US: u64 = 10_000;

/// One slow command.
#[derive(Debug, Clone)]
struct SlowEntry {
    id: u64,
    /// Microseconds since server start when the command began.
    start_us: u64,
    dur_us: u64,
    argv: Vec<Vec<u8>>,
    /// Tenant selected on the connection when the command ran, so
    /// fleet-mode slow queries are attributable.
    tenant: Option<u64>,
}

/// The server's slow log: commands whose handling exceeded the threshold.
#[derive(Debug)]
struct SlowLog {
    entries: Mutex<VecDeque<SlowEntry>>,
    next_id: AtomicU64,
    /// Threshold in microseconds; commands strictly slower are logged.
    threshold_us: AtomicU64,
}

impl SlowLog {
    fn new() -> Self {
        Self {
            entries: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
            threshold_us: AtomicU64::new(SLOWLOG_DEFAULT_THRESHOLD_US),
        }
    }

    fn offer(&self, start_ns: u64, dur_ns: u64, argv: &[&[u8]], tenant: Option<u64>) {
        if dur_ns <= self.threshold_us.load(Ordering::Relaxed) * 1_000 {
            return;
        }
        let entry = SlowEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_us: start_ns / 1_000,
            dur_us: dur_ns / 1_000,
            argv: argv.iter().map(|a| a.to_vec()).collect(),
            tenant,
        };
        let mut entries = self.entries.lock().expect("slowlog poisoned");
        if entries.len() == SLOWLOG_MAX_LEN {
            entries.pop_front();
        }
        entries.push_back(entry);
    }
}

/// Observability state shared by all connection threads.
struct ServerObs {
    recorder: Arc<FlightRecorder>,
    slowlog: SlowLog,
    /// Tail-request exemplar ring: every command gets a request id, p99+
    /// commands are captured with their counter context.
    exemplars: Arc<ExemplarRing>,
    next_conn: AtomicU64,
    /// Sources handed to the exposition server when `expo-port` is set.
    expo_sources: ExpoSources,
    /// The running exposition server, if `CONFIG SET expo-port` started one.
    expo: Mutex<Option<ExpoServer>>,
}

impl ServerObs {
    /// Builds the observability state and attaches its flight recorder and
    /// live cells to `store`, so profiler/watchdog activity shows up in
    /// `TRACE DUMP` alongside per-command spans.
    fn attach(store: &mut MiniRedis) -> Self {
        let recorder = Arc::new(FlightRecorder::new());
        store.set_recorder(Arc::clone(&recorder));
        let mrc_cell = Arc::new(MrcCell::new());
        store.set_mrc_cell(Arc::clone(&mrc_cell));
        let fleet_cell = Arc::new(krr_core::fleet::FleetCell::new());
        store.set_fleet_cell(Arc::clone(&fleet_cell));
        let exemplars = Arc::new(ExemplarRing::new());
        let expo_sources = ExpoSources {
            metrics: Some(Arc::clone(store.metrics())),
            mrc: Some(mrc_cell),
            stats: None,
            trace: Some(Arc::clone(&recorder)),
            tenants: Some(fleet_cell),
            exemplars: Some(Arc::clone(&exemplars)),
            profiler: Some(Arc::clone(recorder.profiler())),
        };
        Self {
            recorder,
            slowlog: SlowLog::new(),
            exemplars,
            next_conn: AtomicU64::new(0),
            expo_sources,
            expo: Mutex::new(None),
        }
    }
}

/// Socket read timeout of a connection thread: it lets idle workers
/// notice the stop flag instead of blocking forever in `read` (which would
/// deadlock `shutdown` while a client holds its connection open).
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Handle to a running server.
pub struct Server {
    addr: std::net::SocketAddr,
    store: Arc<Mutex<MiniRedis>>,
    stop: Arc<AtomicBool>,
    obs: Arc<ServerObs>,
    /// Connection threads not yet joined. The accept loop joins the
    /// finished ones whenever a new connection arrives; `shutdown` joins
    /// the rest.
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server on an ephemeral localhost port. The server's flight
    /// recorder is attached to the store, so profiler/watchdog activity
    /// shows up in `TRACE DUMP` alongside per-command spans.
    pub fn start(mut store: MiniRedis) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let obs = Arc::new(ServerObs::attach(&mut store));
        let store = Arc::new(Mutex::new(store));
        let stop = Arc::new(AtomicBool::new(false));
        let workers = Arc::new(Mutex::new(Vec::new()));
        let accept_store = Arc::clone(&store);
        let accept_stop = Arc::clone(&stop);
        let accept_obs = Arc::clone(&obs);
        let accept_workers = Arc::clone(&workers);
        let accept_thread = std::thread::spawn(move || {
            // Non-blocking accept loop so SHUTDOWN can terminate us.
            listener.set_nonblocking(true).expect("set_nonblocking");
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        let mut workers = accept_workers.lock().expect("workers poisoned");
                        reap_finished(&mut workers);
                        if conn.set_nodelay(true).is_err()
                            || conn.set_read_timeout(Some(READ_TIMEOUT)).is_err()
                        {
                            continue;
                        }
                        let store = Arc::clone(&accept_store);
                        let stop = Arc::clone(&accept_stop);
                        let obs = Arc::clone(&accept_obs);
                        workers.push(std::thread::spawn(move || {
                            let _ = serve_connection(conn, &store, &stop, &obs);
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(Server {
            addr,
            store,
            stop,
            obs,
            workers,
            accept_thread: Some(accept_thread),
        })
    }

    /// The exposition server's address, if `CONFIG SET expo-port` started
    /// one.
    #[must_use]
    pub fn expo_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs
            .expo
            .lock()
            .expect("expo poisoned")
            .as_ref()
            .map(ExpoServer::addr)
    }

    /// The server's flight recorder (drained by `TRACE DUMP`, or directly
    /// by an embedding test/benchmark).
    #[must_use]
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.obs.recorder
    }

    /// The server's socket address.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Snapshot of the store's counters.
    #[must_use]
    pub fn stats(&self) -> crate::store::StoreStats {
        self.store.lock().expect("store poisoned").stats()
    }

    /// Stops the accept loop, waits for workers, and shuts down the
    /// exposition server if one is running (releasing its port).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for w in workers {
            let _ = w.join();
        }
        if let Some(mut expo) = self.obs.expo.lock().expect("expo poisoned").take() {
            expo.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Joins every connection thread in `workers` that has already exited,
/// so connection churn does not pile up exited threads and their stacks.
fn reap_finished(workers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < workers.len() {
        if workers[i].is_finished() {
            let _ = workers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn parse_key(data: &[u8]) -> Option<u64> {
    std::str::from_utf8(data).ok()?.parse().ok()
}

/// Most reply bytes a connection holds before writing them out.
const PENDING_CAP: usize = 64 << 10;

/// A connection's byte stream plus the replies not yet written to it.
///
/// Replies are appended to `pending`, which goes out in one write just
/// before any read from the stream, as soon as the connection loop has
/// consumed all buffered input, and when it reaches [`PENDING_CAP`].
/// Writing before every read is what makes batching safe: the thread
/// never blocks for input while replies wait, even when the read buffer
/// ends in a partial command.
struct Conn<S> {
    stream: S,
    pending: Vec<u8>,
}

impl<S: Write> Conn<S> {
    fn new(stream: S) -> Self {
        Self {
            stream,
            pending: Vec::new(),
        }
    }

    /// Writes the pending replies in one call.
    fn drain(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            self.stream.write_all(&self.pending)?;
            self.pending.clear();
        }
        Ok(())
    }
}

impl<S: Read + Write> Read for Conn<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.drain()?;
        self.stream.read(buf)
    }
}

impl<S: Write> Write for Conn<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.pending.len() + buf.len() > PENDING_CAP {
            self.drain()?;
        }
        if buf.len() >= PENDING_CAP {
            self.stream.write_all(buf)?;
        } else {
            self.pending.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.drain()?;
        self.stream.flush()
    }
}

/// Serves one connection until EOF, a protocol error, an I/O error or the
/// stop flag, then writes whatever replies are still pending.
fn serve_connection<S: Read + Write>(
    stream: S,
    store: &Mutex<MiniRedis>,
    stop: &AtomicBool,
    obs: &ServerObs,
) -> io::Result<()> {
    let mut reader = BufReader::new(Conn::new(stream));
    let served = serve_requests(&mut reader, store, stop, obs);
    let written = reader.get_mut().flush();
    served.and(written)
}

fn serve_requests<S: Read + Write>(
    reader: &mut BufReader<Conn<S>>,
    store: &Mutex<MiniRedis>,
    stop: &AtomicBool,
    obs: &ServerObs,
) -> io::Result<()> {
    let conn_id = obs.next_conn.fetch_add(1, Ordering::Relaxed);
    let rec = obs.recorder.register(&format!("conn-{conn_id}"));
    // Grabbed once so the exemplar capture path never takes the store lock.
    let metrics = Arc::clone(store.lock().expect("store poisoned").metrics());
    // Per-connection tenant selection (`TENANT` command), like a Redis
    // `SELECT`ed database: it scopes this connection's GETs for fleet
    // profiling and resets when the connection closes.
    let mut tenant: Option<u64> = None;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        // Probe for data without committing to a full-message read; a
        // timeout mid-probe keeps the buffered stream consistent.
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // clean EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
        let request = match read_value(reader) {
            Ok(v) => v,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Protocol violation (oversized claim, bad tag, broken
                // framing): report it like redis does, then hang up —
                // the byte stream cannot be resynchronized.
                return write_value(
                    reader.get_mut(),
                    &Value::Error(format!("ERR Protocol error: {e}")),
                );
            }
            Err(e) => return Err(e),
        };
        let request_id = obs.exemplars.next_request_id();
        let t0 = rec.now_ns();
        let command = Request::decode(&request);
        let reply = match &command {
            Ok(req) => handle(req, store, stop, obs, &mut tenant),
            Err(msg) => Value::Error((*msg).into()),
        };
        let dur = rec.now_ns() - t0;
        write_value(reader.get_mut(), &reply)?;
        if reader.buffer().is_empty() {
            reader.get_mut().drain()?;
        }
        // Forensics run after the reply is queued and, for a lone command
        // or the last of a pipelined batch, written: the capture cost (it
        // lands on exactly the tail requests) must not inflate the latency
        // the client observes. `dur` was taken before the write, so it
        // remains pure service time.
        let Ok(req) = &command else { continue };
        let tag = req.cmd.map_or(0, Command::tag);
        // Pack the tenant into the span arg (0 = none) so trace spans
        // are attributable in fleet mode; the trace writer unpacks it.
        let span_arg = match tenant {
            Some(t) => tag | ((t + 1) << 8),
            None => tag,
        };
        rec.record(Phase::Command, t0, dur, span_arg);
        obs.slowlog.offer(t0, dur, &req.argv, tenant);
        if obs.exemplars.observe(dur) {
            // Tail request: first write the replies queued ahead of the
            // capture, then join the span key with the counter context a
            // post-mortem needs. All reads are lock-free.
            reader.get_mut().drain()?;
            obs.exemplars.capture(&Exemplar {
                request_id,
                tenant,
                latency_ns: dur,
                start_ns: t0,
                command_tag: tag as u8,
                scrape_in_progress: obs.exemplars.scrape_in_progress(),
                router_parks: metrics.pipeline_router_parks.get(),
                worker_parks: metrics.pipeline_worker_parks.get(),
                deep_chains: metrics.chain_len.count(),
            });
        }
    }
}

/// A command the server knows. The discriminant is the stable numeric tag
/// that trace spans, slow-log consumers and exemplars carry (0 = unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Ping = 1,
    Get = 2,
    Set = 3,
    Del = 4,
    Dbsize = 5,
    Info = 6,
    Metrics = 7,
    Mrc = 8,
    Shutdown = 9,
    Trace = 10,
    Slowlog = 11,
    Config = 12,
    Bgsave = 13,
    Tenant = 14,
}

/// Every command with its name, matched case-insensitively.
const COMMANDS: [(&[u8], Command); 14] = [
    (b"PING", Command::Ping),
    (b"GET", Command::Get),
    (b"SET", Command::Set),
    (b"DEL", Command::Del),
    (b"DBSIZE", Command::Dbsize),
    (b"INFO", Command::Info),
    (b"METRICS", Command::Metrics),
    (b"MRC", Command::Mrc),
    (b"SHUTDOWN", Command::Shutdown),
    (b"TRACE", Command::Trace),
    (b"SLOWLOG", Command::Slowlog),
    (b"CONFIG", Command::Config),
    (b"BGSAVE", Command::Bgsave),
    (b"TENANT", Command::Tenant),
];

impl Command {
    /// Looks a command name up without allocating.
    fn decode(name: &[u8]) -> Option<Command> {
        COMMANDS
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(_, cmd)| cmd)
    }

    fn tag(self) -> u64 {
        self as u64
    }
}

/// A request as an argument vector, with its command name decoded once.
struct Request<'a> {
    argv: Vec<&'a [u8]>,
    cmd: Option<Command>,
}

impl<'a> Request<'a> {
    /// Splits a command array of bulk strings, or names what is wrong.
    fn decode(request: &'a Value) -> Result<Self, &'static str> {
        let Value::Array(parts) = request else {
            return Err("ERR expected command array");
        };
        let argv = parts
            .iter()
            .map(|p| match p {
                Value::Bulk(Some(data)) => Ok(data.as_slice()),
                _ => Err("ERR expected bulk-string arguments"),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cmd = argv.first().and_then(|name| Command::decode(name));
        Ok(Self { argv, cmd })
    }
}

fn handle(
    req: &Request<'_>,
    store: &Mutex<MiniRedis>,
    stop: &AtomicBool,
    obs: &ServerObs,
    tenant: &mut Option<u64>,
) -> Value {
    let Some((name, rest)) = req.argv.split_first() else {
        return Value::Error("ERR empty command".into());
    };
    let Some(cmd) = req.cmd else {
        return Value::Error(format!(
            "ERR unknown command {:?}",
            String::from_utf8_lossy(&name.to_ascii_uppercase())
        ));
    };
    match cmd {
        Command::Ping => Value::Simple("PONG".into()),
        Command::Get => {
            let [key] = rest else {
                return Value::Error("ERR wrong arity for GET".into());
            };
            let Some(key) = parse_key(key) else {
                return Value::Error("ERR keys are u64 in mini-redis".into());
            };
            let hit = store.lock().expect("store poisoned").get_for(*tenant, key);
            if hit {
                // The store tracks sizes, not payloads; return a marker.
                Value::bulk(b"1".to_vec())
            } else {
                Value::null()
            }
        }
        Command::Set => {
            let [key, value] = rest else {
                return Value::Error("ERR wrong arity for SET".into());
            };
            let Some(key) = parse_key(key) else {
                return Value::Error("ERR keys are u64 in mini-redis".into());
            };
            store
                .lock()
                .expect("store poisoned")
                .set(key, value.len() as u32);
            Value::Simple("OK".into())
        }
        Command::Del => {
            // Mini-redis has no user-facing delete; report 0 like a miss.
            Value::Integer(0)
        }
        Command::Dbsize => Value::Integer(store.lock().expect("store poisoned").len() as i64),
        Command::Info => {
            let s = store.lock().expect("store poisoned");
            s.publish_footprint();
            let stats = s.stats();
            let mut body = format!(
                "# mini-redis\r\nkeys:{}\r\nused_memory:{}\r\nhits:{}\r\nmisses:{}\r\nevictions:{}\r\n",
                s.len(),
                s.used_memory(),
                stats.hits,
                stats.misses,
                stats.evictions
            );
            body.push_str("\r\n");
            body.push_str(&s.metrics().snapshot().render_info());
            Value::bulk(body.into_bytes())
        }
        Command::Metrics => {
            let s = store.lock().expect("store poisoned");
            s.publish_footprint();
            let snap = s.metrics().snapshot();
            Value::bulk(snap.to_json().into_bytes())
        }
        Command::Mrc => match store.lock().expect("store poisoned").mrc_profile() {
            Some(mrc) => {
                let mut body = String::from("cache_size,miss_ratio\n");
                for &(x, y) in mrc.points().iter().filter(|&&(x, _)| x > 0.0) {
                    body.push_str(&format!("{x:.0},{y:.5}\n"));
                }
                Value::bulk(body.into_bytes())
            }
            None => Value::Error("ERR MRC profiling not enabled".into()),
        },
        Command::Tenant => match rest {
            // TENANT        -> current selection (nil if none)
            // TENANT <id>   -> scope this connection's GETs to tenant <id>
            // TENANT NONE   -> back to unscoped (aggregate-only) profiling
            [] => match tenant {
                Some(id) => Value::bulk(id.to_string().into_bytes()),
                None => Value::null(),
            },
            [arg] if arg.eq_ignore_ascii_case(b"NONE") => {
                *tenant = None;
                Value::Simple("OK".into())
            }
            [arg] => match parse_key(arg) {
                Some(id) => {
                    *tenant = Some(id);
                    Value::Simple("OK".into())
                }
                None => Value::Error("ERR tenant ids are u64 in mini-redis".into()),
            },
            _ => Value::Error("ERR usage: TENANT [id|NONE]".into()),
        },
        Command::Shutdown => {
            stop.store(true, Ordering::Relaxed);
            Value::Simple("OK".into())
        }
        Command::Bgsave => {
            // Synchronous under the store lock: mini-redis has no fork, so
            // "background" saving is a consistent foreground snapshot.
            match store.lock().expect("store poisoned").bgsave() {
                Ok(()) => Value::Simple("OK".into()),
                Err(e) => Value::Error(format!("ERR BGSAVE: {e}")),
            }
        }
        Command::Trace => match rest {
            [sub] if sub.eq_ignore_ascii_case(b"DUMP") => {
                Value::bulk(obs.recorder.chrome_trace_json().into_bytes())
            }
            _ => Value::Error("ERR usage: TRACE DUMP".into()),
        },
        Command::Slowlog => {
            let Some((sub, sub_rest)) = rest.split_first() else {
                return Value::Error("ERR usage: SLOWLOG GET|LEN|RESET".into());
            };
            match sub.to_ascii_uppercase().as_slice() {
                b"GET" => {
                    let count = match sub_rest {
                        [] => SLOWLOG_MAX_LEN,
                        [n] => match std::str::from_utf8(n).ok().and_then(|s| s.parse().ok()) {
                            Some(n) => n,
                            None => return Value::Error("ERR invalid SLOWLOG GET count".into()),
                        },
                        _ => return Value::Error("ERR usage: SLOWLOG GET [count]".into()),
                    };
                    let entries = obs.slowlog.entries.lock().expect("slowlog poisoned");
                    // Newest first, like Redis.
                    let items = entries
                        .iter()
                        .rev()
                        .take(count)
                        .map(|e| {
                            Value::Array(vec![
                                Value::Integer(e.id as i64),
                                Value::Integer(e.start_us as i64),
                                Value::Integer(e.dur_us as i64),
                                Value::Array(
                                    e.argv.iter().map(|a| Value::bulk(a.clone())).collect(),
                                ),
                                match e.tenant {
                                    Some(t) => Value::Integer(t as i64),
                                    None => Value::Bulk(None),
                                },
                            ])
                        })
                        .collect();
                    Value::Array(items)
                }
                b"LEN" => Value::Integer(
                    obs.slowlog.entries.lock().expect("slowlog poisoned").len() as i64,
                ),
                b"RESET" => {
                    obs.slowlog
                        .entries
                        .lock()
                        .expect("slowlog poisoned")
                        .clear();
                    Value::Simple("OK".into())
                }
                _ => Value::Error("ERR usage: SLOWLOG GET|LEN|RESET".into()),
            }
        }
        Command::Config => match rest {
            [sub, param] if sub.eq_ignore_ascii_case(b"GET") => {
                if param.eq_ignore_ascii_case(b"slowlog-log-slower-than") {
                    let v = obs.slowlog.threshold_us.load(Ordering::Relaxed);
                    Value::Array(vec![
                        Value::bulk(b"slowlog-log-slower-than".to_vec()),
                        Value::bulk(v.to_string().into_bytes()),
                    ])
                } else if param.eq_ignore_ascii_case(b"expo-port") {
                    let port = obs
                        .expo
                        .lock()
                        .expect("expo poisoned")
                        .as_ref()
                        .map_or(0, |e| e.addr().port());
                    Value::Array(vec![
                        Value::bulk(b"expo-port".to_vec()),
                        Value::bulk(port.to_string().into_bytes()),
                    ])
                } else if param.eq_ignore_ascii_case(b"forensics") {
                    let on = obs.exemplars.enabled();
                    Value::Array(vec![
                        Value::bulk(b"forensics".to_vec()),
                        Value::bulk(if on { b"on".to_vec() } else { b"off".to_vec() }),
                    ])
                } else {
                    Value::Array(Vec::new())
                }
            }
            [sub, param, value] if sub.eq_ignore_ascii_case(b"SET") => {
                if param.eq_ignore_ascii_case(b"slowlog-log-slower-than") {
                    return match std::str::from_utf8(value).ok().and_then(|s| s.parse().ok()) {
                        Some(us) => {
                            obs.slowlog.threshold_us.store(us, Ordering::Relaxed);
                            Value::Simple("OK".into())
                        }
                        None => Value::Error("ERR value must be microseconds (u64)".into()),
                    };
                }
                if param.eq_ignore_ascii_case(b"expo-port") {
                    let Some(port) = std::str::from_utf8(value)
                        .ok()
                        .and_then(|s| s.parse::<u16>().ok())
                    else {
                        return Value::Error("ERR expo-port must be a u16 (0 stops)".into());
                    };
                    // Stop any running server first so the old port is
                    // released before a new bind (and so port 0 = stop).
                    let mut slot = obs.expo.lock().expect("expo poisoned");
                    if let Some(mut running) = slot.take() {
                        running.shutdown();
                    }
                    if port == 0 {
                        return Value::Simple("OK".into());
                    }
                    // Refresh the gauges so the first scrape has data.
                    store.lock().expect("store poisoned").publish_footprint();
                    match ExpoServer::start(("127.0.0.1", port), obs.expo_sources.clone()) {
                        Ok(server) => {
                            *slot = Some(server);
                            Value::Simple("OK".into())
                        }
                        Err(e) => Value::Error(format!("ERR expo-port bind: {e}")),
                    }
                } else if param.eq_ignore_ascii_case(b"forensics") {
                    // One switch for both forensic subsystems: the exemplar
                    // ring and the phase profiler. Used by the overhead
                    // bench to get a recorder-only baseline.
                    let on = match value.to_ascii_lowercase().as_slice() {
                        b"on" => true,
                        b"off" => false,
                        _ => return Value::Error("ERR forensics must be on|off".into()),
                    };
                    obs.exemplars.set_enabled(on);
                    obs.recorder.profiler().set_enabled(on);
                    Value::Simple("OK".into())
                } else {
                    Value::Error("ERR unknown CONFIG parameter".into())
                }
            }
            _ => Value::Error(
                "ERR usage: CONFIG GET|SET slowlog-log-slower-than|expo-port|forensics [value]"
                    .into(),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn get_set_over_the_wire() {
        let mut server = Server::start(MiniRedis::new(100_000, 5, 1)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.ping().unwrap());
        assert!(!client.get(42).unwrap());
        client.set(42, 200).unwrap();
        assert!(client.get(42).unwrap());
        assert_eq!(client.dbsize().unwrap(), 1);
        let info = client.info().unwrap();
        assert!(info.contains("keys:1"), "{info}");
        server.shutdown();
    }

    #[test]
    fn eviction_happens_over_the_wire() {
        let mut server = Server::start(MiniRedis::new(2_000, 5, 2)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for key in 0..100u64 {
            client.set(key, 100).unwrap();
        }
        let n = client.dbsize().unwrap();
        assert!(n <= 20, "dbsize {n} exceeds memory budget");
        server.shutdown();
    }

    #[test]
    fn multiple_clients() {
        let mut server = Server::start(MiniRedis::new(1_000_000, 5, 3)).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4u64)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..200u64 {
                        client.set(c * 1_000 + i, 50).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.dbsize().unwrap(), 800);
        server.shutdown();
    }

    #[test]
    fn mrc_command_over_the_wire() {
        let mut store = MiniRedis::new(1_000_000, 5, 9);
        store.enable_mrc_profiling(&krr_core::KrrConfig::new(5.0).seed(7), 2);
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for _ in 0..3 {
            for key in 0..500u64 {
                let _ = client.access(key, 50).unwrap();
            }
        }
        let csv = client.mrc().unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("cache_size,miss_ratio"));
        assert!(lines.next().is_some(), "curve has data points: {csv}");
        server.shutdown();
    }

    #[test]
    fn mrc_without_profiling_is_an_error() {
        let mut server = Server::start(MiniRedis::new(10_000, 5, 5)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.mrc().is_err());
        assert!(client.ping().unwrap(), "connection survives the error");
        server.shutdown();
    }

    #[test]
    fn bgsave_then_restore_on_start_resumes_the_dataset() {
        let dir = std::env::temp_dir().join(format!("krr-srv-bgsave-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.ckpt");
        let mut store = MiniRedis::new(1_000_000, 5, 31);
        store.set_checkpoint_path(&path);
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for key in 0..50u64 {
            client.set(key, 100).unwrap();
        }
        client.bgsave().unwrap();
        server.shutdown();

        let restored = MiniRedis::restore_from(&path).unwrap();
        let mut server = Server::start(restored).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.dbsize().unwrap(), 50);
        assert!(client.get(7).unwrap());
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bgsave_without_path_is_an_error() {
        let mut server = Server::start(MiniRedis::new(10_000, 5, 32)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.bgsave().is_err());
        assert!(client.ping().unwrap(), "connection survives the error");
        server.shutdown();
    }

    #[test]
    fn expo_port_serves_openmetrics_and_stops_cleanly() {
        let mut store = MiniRedis::new(1_000_000, 5, 40);
        store.enable_mrc_profiling(&krr_core::KrrConfig::new(5.0).seed(7), 2);
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for key in 0..500u64 {
            let _ = client.access(key, 50).unwrap();
        }
        // Find a free port, then ask the server to bind it.
        let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        let reply = client
            .raw(&[b"CONFIG", b"SET", b"expo-port", port.to_string().as_bytes()])
            .unwrap();
        assert!(
            matches!(&reply, Value::Simple(s) if s == "OK"),
            "CONFIG SET expo-port failed: {reply:?}"
        );
        let addr = server.expo_addr().expect("expo server running");
        assert_eq!(addr.port(), port);
        let (status, ctype, body) = krr_core::expo::http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(ctype.starts_with("application/openmetrics-text"));
        assert!(body.contains("krr_accesses_total"), "{body}");
        assert!(body.contains("krr_footprint_total_bytes"), "{body}");
        assert!(body.ends_with("# EOF\n"));
        // INFO shares the same registry, so the gauges show up there too.
        let info = client.info().unwrap();
        assert!(info.contains("# memory"), "{info}");
        // Port 0 stops the server and releases the port.
        let reply = client
            .raw(&[b"CONFIG", b"SET", b"expo-port", b"0"])
            .unwrap();
        assert!(matches!(&reply, Value::Simple(s) if s == "OK"));
        assert!(server.expo_addr().is_none());
        assert!(
            std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(200))
                .is_err(),
            "expo port should be closed after expo-port 0"
        );
        server.shutdown();
    }

    #[test]
    fn slowlog_entries_carry_the_connection_tenant() {
        let mut store = MiniRedis::new(1_000_000, 5, 8);
        store.enable_fleet_profiling(krr_core::fleet::FleetConfig::new(
            krr_core::KrrConfig::new(5.0).seed(7),
        ));
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.set_slowlog_threshold_us(0).unwrap();
        client.tenant(3).unwrap();
        let _ = client.get(42).unwrap();
        client.tenant_none().unwrap();
        let _ = client.get(42).unwrap();
        let entries = client.slowlog_get().unwrap();
        let gets: Vec<Option<i64>> = entries
            .iter()
            .filter(|e| e.3.first().map(Vec::as_slice) == Some(b"GET"))
            .map(|e| e.4)
            .collect();
        // Newest first: the tenant-less GET, then the tenant-3 GET.
        assert_eq!(gets, [None, Some(3)], "slowlog tenants: {entries:?}");
        server.shutdown();
    }

    #[test]
    fn forensics_toggle_and_exemplar_capture() {
        let mut server = Server::start(MiniRedis::new(1_000_000, 5, 6)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        // The threshold starts at 0 (everything is "tail" until the
        // histogram warms up), so early commands capture exemplars.
        for key in 0..50u64 {
            let _ = client.access(key, 50).unwrap();
        }
        let reply = client.raw(&[b"CONFIG", b"GET", b"forensics"]).unwrap();
        let Value::Array(kv) = &reply else {
            panic!("CONFIG GET forensics: {reply:?}")
        };
        assert!(matches!(&kv[1], Value::Bulk(Some(v)) if v == b"on"));
        // Toggle off: no new exemplars are recorded, and the connection
        // round-trips both states.
        let reply = client
            .raw(&[b"CONFIG", b"SET", b"forensics", b"off"])
            .unwrap();
        assert!(matches!(&reply, Value::Simple(s) if s == "OK"));
        let reply = client.raw(&[b"CONFIG", b"GET", b"forensics"]).unwrap();
        let Value::Array(kv) = &reply else {
            panic!("CONFIG GET forensics: {reply:?}")
        };
        assert!(matches!(&kv[1], Value::Bulk(Some(v)) if v == b"off"));
        let reply = client
            .raw(&[b"CONFIG", b"SET", b"forensics", b"banana"])
            .unwrap();
        assert!(matches!(reply, Value::Error(_)));
        let reply = client
            .raw(&[b"CONFIG", b"SET", b"forensics", b"on"])
            .unwrap();
        assert!(matches!(&reply, Value::Simple(s) if s == "OK"));
        server.shutdown();
    }

    #[test]
    fn unknown_command_is_an_error_not_a_hangup() {
        let mut server = Server::start(MiniRedis::new(10_000, 5, 4)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client.raw(&[b"FLUBBER"]).unwrap();
        assert!(matches!(err, crate::resp::Value::Error(_)));
        assert!(client.ping().unwrap(), "connection must survive errors");
        server.shutdown();
    }

    #[test]
    fn connection_churn_leaves_few_unjoined_threads() {
        let mut server = Server::start(MiniRedis::new(10_000, 5, 7)).unwrap();
        for _ in 0..300 {
            let mut client = Client::connect(server.addr()).unwrap();
            assert!(client.ping().unwrap());
        }
        let held = server.workers.lock().unwrap().len();
        assert!(held <= 8, "{held} connection threads left unjoined");
        server.shutdown();
        assert!(server.workers.lock().unwrap().is_empty());
    }

    /// One I/O call a scripted connection saw.
    #[derive(Debug, PartialEq)]
    enum Io {
        Read,
        Write(Vec<u8>),
    }

    /// A byte stream that hands out scripted input chunks (EOF once they
    /// run out) and logs every read and write call in order.
    struct Scripted {
        input: VecDeque<Vec<u8>>,
        log: Vec<Io>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.log.push(Io::Read);
            let Some(mut chunk) = self.input.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.input.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.log.push(Io::Write(buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The wire form of `commands`, back to back.
    fn wire(commands: &[&[&[u8]]]) -> Vec<u8> {
        let mut out = Vec::new();
        for parts in commands {
            write_value(&mut out, &Value::command(parts)).unwrap();
        }
        out
    }

    const PING: &[&[u8]] = &[b"PING"];

    /// Serves `chunks` (one per read) on a store holding the even keys
    /// below 32, and returns the I/O log and whether the stop flag was set.
    fn serve_script(chunks: Vec<Vec<u8>>, forensics: bool) -> (Vec<Io>, bool) {
        let mut store = MiniRedis::new(1_000_000, 5, 1);
        for key in (0..32).step_by(2) {
            store.set(key, 8);
        }
        let obs = ServerObs::attach(&mut store);
        obs.exemplars.set_enabled(forensics);
        let store = Mutex::new(store);
        let stop = AtomicBool::new(false);
        let mut stream = Scripted {
            input: chunks.into(),
            log: Vec::new(),
        };
        serve_connection(&mut stream, &store, &stop, &obs).unwrap();
        (stream.log, stop.load(Ordering::Relaxed))
    }

    fn written(bytes: &[u8]) -> Io {
        Io::Write(bytes.to_vec())
    }

    #[test]
    fn pipelined_batch_is_written_once_in_order() {
        // Even keys are stored, so hits and misses alternate.
        let (mut input, mut replies) = (Vec::new(), Vec::new());
        for key in 0..32u64 {
            let get = Value::command(&[b"GET", key.to_string().as_bytes()]);
            write_value(&mut input, &get).unwrap();
            replies.extend_from_slice(if key % 2 == 0 {
                b"$1\r\n1\r\n"
            } else {
                b"$-1\r\n"
            });
        }
        let (log, _) = serve_script(vec![input], false);
        assert_eq!(log, [Io::Read, Io::Write(replies), Io::Read]);
    }

    #[test]
    fn lone_command_is_written_before_the_next_read() {
        let (log, _) = serve_script(vec![wire(&[PING]), wire(&[&[b"GET", b"0"]])], false);
        assert_eq!(
            log,
            [
                Io::Read,
                written(b"+PONG\r\n"),
                Io::Read,
                written(b"$1\r\n1\r\n"),
                Io::Read
            ]
        );
    }

    #[test]
    fn partial_frame_does_not_hold_back_a_finished_reply() {
        let mut first = wire(&[PING]);
        first.extend_from_slice(b"*1\r\n$4\r\nPI");
        let (log, _) = serve_script(vec![first, b"NG\r\n".to_vec()], false);
        assert_eq!(
            log,
            [
                Io::Read,
                written(b"+PONG\r\n"),
                Io::Read,
                written(b"+PONG\r\n"),
                Io::Read
            ]
        );
    }

    #[test]
    fn shutdown_writes_pending_replies_before_returning() {
        let (log, stopped) = serve_script(vec![wire(&[PING, &[b"SHUTDOWN"], PING])], false);
        assert!(stopped);
        assert_eq!(log, [Io::Read, written(b"+PONG\r\n+OK\r\n")]);
    }

    #[test]
    fn protocol_error_follows_earlier_replies_then_closes() {
        let mut input = wire(&[PING, &[b"GET", b"0"], &[b"SET", b"1", b"xx"]]);
        input.extend_from_slice(b"*2\r\n$3\r\nGET\r\n$99999999999\r\n");
        let (log, _) = serve_script(vec![input, wire(&[PING])], false);
        let [Io::Read, Io::Write(out)] = log.as_slice() else {
            panic!("one read, then one write, then close: {log:?}");
        };
        let out = String::from_utf8_lossy(out);
        assert!(
            out.starts_with("+PONG\r\n$1\r\n1\r\n+OK\r\n-ERR Protocol error")
                && out.ends_with("\r\n"),
            "{out:?}"
        );
        assert_eq!(out.matches("\r\n").count(), 5, "{out:?}");
    }

    #[test]
    fn tail_capture_writes_queued_replies_first() {
        // A fresh exemplar ring captures every command until it has seen
        // 64, so each reply of this batch goes out before its capture.
        let (log, _) = serve_script(vec![wire(&[PING, PING, PING])], true);
        let pong = || written(b"+PONG\r\n");
        assert_eq!(log, [Io::Read, pong(), pong(), pong(), Io::Read]);
    }

    #[test]
    fn pending_replies_stay_under_the_cap() {
        let mut stream = Scripted {
            input: VecDeque::new(),
            log: Vec::new(),
        };
        let mut conn = Conn::new(&mut stream);
        for _ in 0..3_000 {
            conn.write_all(&[b'x'; 50]).unwrap();
            assert!(conn.pending.len() <= PENDING_CAP);
        }
        let big = vec![b'y'; PENDING_CAP + 1];
        conn.write_all(&big).unwrap();
        assert!(conn.pending.is_empty());
        conn.write_all(b"z").unwrap();
        conn.flush().unwrap();
        let sizes: Vec<usize> = stream
            .log
            .iter()
            .map(|io| match io {
                Io::Write(b) => b.len(),
                Io::Read => panic!("no reads"),
            })
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 150_000 + PENDING_CAP + 2);
        assert!(sizes.iter().all(|&n| n <= PENDING_CAP + 1), "{sizes:?}");
        assert_eq!(sizes.len(), 150_000 / PENDING_CAP + 3, "{sizes:?}");
    }
}
