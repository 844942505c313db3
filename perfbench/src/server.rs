//! The `server_mixed` workload: mini-Redis with the KRR bank and the fleet
//! arena on, driven over one pipelined RESP connection by `krr_load::run`.
//!
//! Each timed round starts a fresh server (`Server::start` + prefill is the
//! set-up), runs a Poisson open loop at a fixed rate (latency) and then a
//! saturating phase (capacity). Every round replays the same command
//! stream, so the server's counters and profiler curve must equal an
//! in-process `MiniRedis` replay of that stream. The traced run times the
//! in-process layers — `resp` parse/encode, the unprofiled store, the
//! bank, the fleet — and the bank's own stages.

use std::io::{self, BufReader};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use krr_core::rng::Xoshiro256;
use krr_core::{json, FleetCell, FleetConfig, FlightRecorder, KrrConfig, Mrc, MrcCell, Phase};
use krr_load::{Arrival, LoadConfig, Schedule};
use krr_redis::resp::{read_value, write_value, Value};
use krr_redis::{Client, MiniRedis, Server, StoreStats};
use krr_sim::mrc_sim::{simulate_mrc, Policy, Unit};
use krr_trace::ycsb::WorkloadC;
use krr_trace::{Op, Request};

use crate::cpu;
use crate::offline::staged_replay;
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{mean, median};

/// The `server_mixed` parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// YCSB record count.
    pub records: u64,
    /// Commands in the saturating phase.
    pub sat_cmds: usize,
    /// Fewest rounds per run.
    pub min_rounds: usize,
    /// Sanity ceiling on the live profiler's MAE.
    pub mae_ceiling: f64,
}

/// Zipf exponent of the YCSB-C key popularity.
const THETA: f64 = 0.99;
/// Share of commands that are GETs.
const GET_SHARE: f64 = 0.9;
/// SET value size in bytes.
const VALUE_BYTES: u32 = 64;
/// `maxmemory-samples`.
const SAMPLES: usize = 5;
/// Shards of the server's KRR bank.
const SHARDS: usize = 2;
/// K of the bank and of the oracle.
const K: u32 = 5;
/// Store seed (eviction sampling and dict layout).
const STORE_SEED: u64 = 42;
/// Oracle simulator seed.
const ORACLE_SEED: u64 = 0x0AC1E;
/// Oracle capacities.
const ORACLE_CAPS: u64 = 8;
/// Open-loop rate, commands/s.
const OPEN_RATE: f64 = 20_000.0;
/// Commands in the open-loop phase: one second at `OPEN_RATE`, long enough
/// that a host stall delaying the window's last sends stays well under the
/// 2% the rate check allows.
const OPEN_CMDS: usize = 20_000;
/// Offered rate of the saturating phase: far above what one connection
/// can drain, so the sender never waits on the schedule.
const SAT_RATE: f64 = 5_000_000.0;
/// Pipeline depth of the load connection.
const DEPTH: usize = 32;
/// The tenant the load connection selects.
const TENANT: u64 = 0;
/// Lowest acceptable achieved/target rate of the open loop.
const MIN_ACHIEVED: f64 = 0.98;

impl Spec {
    /// The workload (tiny under `smoke`).
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                records: 5_000,
                sat_cmds: 5_000,
                min_rounds: 2,
                mae_ceiling: 0.01,
            }
        } else {
            Self {
                records: 200_000,
                sat_cmds: 150_000,
                min_rounds: 3,
                mae_ceiling: 0.002,
            }
        }
    }

    /// The command stream for `seed`: YCSB-C keys, 90% GET / 10% SET of
    /// 64-byte values. Every request carries the value size so prefill
    /// writes 64-byte values too.
    #[must_use]
    pub fn stream(&self, seed: u64) -> Vec<Request> {
        let keys = WorkloadC::new(self.records, THETA).generate(OPEN_CMDS + self.sat_cmds, seed);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5E70_F0B5);
        keys.into_iter()
            .map(|r| {
                if rng.unit() < GET_SHARE {
                    Request::get(r.key, VALUE_BYTES)
                } else {
                    Request::set(r.key, VALUE_BYTES)
                }
            })
            .collect()
    }
}

/// Which profilers a store runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profiling {
    Off,
    Bank,
    BankAndFleet,
}

fn bank_config() -> KrrConfig {
    KrrConfig::new(f64::from(K))
}

fn new_store(maxmemory: u64, profiling: Profiling) -> MiniRedis {
    let mut store = MiniRedis::new(maxmemory, SAMPLES, STORE_SEED);
    if profiling != Profiling::Off {
        store.enable_mrc_profiling(&bank_config(), SHARDS);
    }
    if profiling == Profiling::BankAndFleet {
        store.enable_fleet_profiling(FleetConfig::new(bank_config()));
    }
    store
}

/// Distinct keys in first-seen order (the order `krr_load::prefill` writes).
fn distinct_in_order(stream: &[Request]) -> Vec<u64> {
    let mut seen = std::collections::HashSet::new();
    stream
        .iter()
        .filter(|r| seen.insert(r.key))
        .map(|r| r.key)
        .collect()
}

/// One live round against a fresh server.
struct Round {
    setup_cpu_s: f64,
    setup_s: f64,
    p50_us: f64,
    p99_us: f64,
    achieved_ratio: f64,
    ops_per_s: f64,
    gets_per_s: f64,
    ops_per_cpu_s: f64,
    gets_per_cpu_s: f64,
    service_p50_us: f64,
    attempted: u64,
    failed: u64,
    /// Counter deltas over the measured phases.
    stats: StoreStats,
    mrc_csv: String,
    model_bytes: f64,
}

fn delta(after: StoreStats, before: StoreStats) -> StoreStats {
    StoreStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    }
}

fn live_round(stream: &[Request], maxmemory: u64, seed: u64) -> io::Result<Round> {
    let (t, c) = (Instant::now(), cpu::process_s());
    let mut server = Server::start(new_store(maxmemory, Profiling::BankAndFleet))?;
    krr_load::prefill(server.addr(), stream)?;
    let setup_cpu_s = cpu::process_s() - c;
    let setup_s = t.elapsed().as_secs_f64();
    let before = server.stats();

    let cfg = LoadConfig {
        connections: 1,
        pipeline_depth: DEPTH,
        tenants: 1,
    };
    let (open, sat) = stream.split_at(OPEN_CMDS);
    let open_sched = Schedule::generate(Arrival::Poisson, OPEN_RATE, open.len(), seed);
    let rec = Arc::clone(server.recorder());
    let (w0, open_report, w1) = (
        rec.now_ns(),
        krr_load::run(server.addr(), &open_sched, open, &cfg)?,
        rec.now_ns(),
    );
    let sat_sched = Schedule::generate(Arrival::Constant, SAT_RATE, sat.len(), seed);
    let c = cpu::process_s();
    let sat_report = krr_load::run(server.addr(), &sat_sched, sat, &cfg)?;
    let sat_cpu_s = cpu::process_s() - c;

    let stats = delta(server.stats(), before);
    let mut client = Client::connect(server.addr())?;
    let metrics = client.metrics()?;
    let mrc_csv = client.mrc()?;
    drop(client);
    // The server's own service time of the open-loop commands: its
    // per-command trace spans (tag 2 = GET, 3 = SET) in that window.
    let (events, _) = rec.collect_events();
    let service: Vec<f64> = events
        .iter()
        .filter(|e| e.phase == Phase::Command && matches!(e.arg & 0xFF, 2 | 3))
        .filter(|e| e.start_ns >= w0 && e.start_ns <= w1)
        .map(|e| e.dur_ns as f64 / 1e3)
        .collect();
    server.shutdown();

    let doc = json::parse(&metrics).map_err(io::Error::other)?;
    let num = |path: &[&str]| doc.path(path).and_then(json::Json::as_num).unwrap_or(0.0);
    let model_bytes = num(&["memory", "total_bytes"]) + num(&["memory", "tenant", "total_bytes"]);

    let span_ns = open_sched.arrivals.last().copied().unwrap_or(0) - open_sched.arrivals[0];
    let target = (open.len() - 1) as f64 * 1e9 / span_ns.max(1) as f64;
    let secs = sat_report.duration_ns.max(1) as f64 / 1e9;
    let sat_gets = sat.iter().filter(|r| r.op == Op::Get).count();
    let failed = open_report.errors + sat_report.errors;
    let sat_ok = (sat.len() as u64 - sat_report.errors) as f64;
    Ok(Round {
        setup_cpu_s,
        setup_s,
        p50_us: open_report.latency_ns.p50_ns / 1e3,
        p99_us: open_report.latency_ns.p99_ns / 1e3,
        achieved_ratio: open_report.achieved_qps / target,
        ops_per_s: sat_ok / secs,
        gets_per_s: sat_gets as f64 / secs,
        ops_per_cpu_s: sat_ok / sat_cpu_s,
        gets_per_cpu_s: sat_gets as f64 / sat_cpu_s,
        service_p50_us: median(&service),
        attempted: stream.len() as u64,
        failed,
        stats,
        mrc_csv,
        model_bytes,
    })
}

/// Parses the `MRC` command's CSV into a curve.
fn parse_mrc_csv(csv: &str) -> Mrc {
    let pts: Vec<(f64, f64)> = csv
        .lines()
        .skip(1)
        .filter_map(|l| {
            let (x, y) = l.split_once(',')?;
            Some((x.parse().ok()?, y.parse().ok()?))
        })
        .collect();
    Mrc::from_points(pts)
}

/// The CSV body the `MRC` command renders for `mrc`.
fn render_mrc_csv(mrc: &Mrc) -> String {
    let mut body = String::from("cache_size,miss_ratio\n");
    for &(x, y) in mrc.points().iter().filter(|&&(x, _)| x > 0.0) {
        body.push_str(&format!("{x:.0},{y:.5}\n"));
    }
    body
}

/// Result of one in-process replay of prefill + stream.
struct Replay {
    stats: StoreStats,
    mrc: Option<Mrc>,
    get_ns: f64,
    set_ns: f64,
    hits: Vec<bool>,
    chain_len_mean: f64,
    positions_scanned_mean: f64,
    wall_ns: f64,
}

/// Replays prefill + stream through a store set up like the server's
/// (flight recorder, MRC cell, fleet cell attached). With `timed`, each
/// maximal run of consecutive GETs is timed as one block and each SET on
/// its own; the calibrated cost of one clock pair is subtracted per block.
fn replay(
    stream: &[Request],
    prefill: &[u64],
    maxmemory: u64,
    profiling: Profiling,
    timed: bool,
    clock_ns: f64,
) -> Replay {
    let mut store = new_store(maxmemory, profiling);
    store.set_recorder(Arc::new(FlightRecorder::new()));
    store.set_mrc_cell(Arc::new(MrcCell::new()));
    store.set_fleet_cell(Arc::new(FleetCell::new()));
    for &key in prefill {
        store.set(key, VALUE_BYTES);
    }
    let before = store.stats();
    let (mut get_ns, mut set_ns, mut gets, mut get_blocks) = (0u64, 0u64, 0usize, 0usize);
    let mut hits = Vec::with_capacity(stream.len());
    let t_wall = Instant::now();
    let mut i = 0;
    while i < stream.len() {
        if stream[i].op == Op::Get {
            let end = stream[i..]
                .iter()
                .position(|r| r.op != Op::Get)
                .map_or(stream.len(), |p| i + p);
            let t = timed.then(Instant::now);
            for r in &stream[i..end] {
                hits.push(store.get_for(Some(TENANT), r.key));
            }
            if let Some(t) = t {
                get_ns += t.elapsed().as_nanos() as u64;
            }
            gets += end - i;
            get_blocks += 1;
            i = end;
        } else {
            let t = timed.then(Instant::now);
            store.set(stream[i].key, stream[i].size);
            if let Some(t) = t {
                set_ns += t.elapsed().as_nanos() as u64;
            }
            hits.push(false);
            i += 1;
        }
    }
    let wall_ns = t_wall.elapsed().as_nanos() as f64;
    let sets = stream.len() - gets;
    let snap = store.metrics().snapshot();
    Replay {
        stats: delta(store.stats(), before),
        mrc: store.mrc_profile(),
        get_ns: (get_ns as f64 - get_blocks as f64 * clock_ns) / gets.max(1) as f64,
        set_ns: (set_ns as f64 - sets as f64 * clock_ns) / sets.max(1) as f64,
        hits,
        chain_len_mean: snap.chain_len.mean(),
        positions_scanned_mean: snap.positions_scanned.mean(),
        wall_ns,
    }
}

/// Cost of one `Instant::now()` + `elapsed()` pair, subtracted from the
/// store timings.
fn clock_cost_ns() -> f64 {
    let n = 200_000u32;
    let t = Instant::now();
    let mut sink = 0u128;
    for _ in 0..n {
        let s = Instant::now();
        sink += s.elapsed().as_nanos();
    }
    std::hint::black_box(sink);
    t.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Runs `server_mixed` for `seconds`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    let mut out = Outcome::new("server_mixed");
    let t = Instant::now();
    let stream = spec.stream(seed);
    let prefill = distinct_in_order(&stream);
    let gets: Vec<Request> = stream.iter().filter(|r| r.op == Op::Get).copied().collect();
    out.info("input.gen_s", t.elapsed().as_secs_f64());
    out.info("input.commands", stream.len());
    let maxmemory = prefill.len() as u64 * u64::from(VALUE_BYTES) / 4;
    out.info("server.maxmemory_bytes", maxmemory);

    // The reference: the same single-connection stream through an
    // in-process store, and the exact K-LRU curve of its GETs.
    let t = Instant::now();
    let reference = replay(
        &stream,
        &prefill,
        maxmemory,
        Profiling::BankAndFleet,
        false,
        0.0,
    );
    let distinct_gets = distinct_in_order(&gets).len() as u64;
    let caps: Vec<u64> = (1..=ORACLE_CAPS)
        .map(|i| (distinct_gets * i / (ORACLE_CAPS + 1)).max(1))
        .collect();
    let oracle = simulate_mrc(&gets, Policy::klru(K), Unit::Objects, &caps, ORACLE_SEED, 2);
    out.info("oracle.s", t.elapsed().as_secs_f64());

    let sets = (stream.len() - gets.len()) as f64;
    let st = reference.stats;
    out.info("profile.distinct_keys", prefill.len());
    out.info("profile.admitted_share", 1.0);
    out.info(
        "profile.hit_ratio",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
    );
    out.info("profile.set_share", sets / stream.len() as f64);
    out.info(
        "profile.evictions_per_set",
        st.evictions as f64 / sets.max(1.0),
    );
    out.info("profile.mean_size_b", VALUE_BYTES);

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let min_rounds = if traced { 2 } else { spec.min_rounds };
    while rounds.len() < min_rounds || (!traced && start.elapsed() < budget) {
        match live_round(&stream, maxmemory, seed) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                out.check("live_round", false, e.to_string());
                return out;
            }
        }
    }
    let expected_csv = render_mrc_csv(reference.mrc.as_ref().expect("profiled"));
    let live = parse_mrc_csv(&rounds[0].mrc_csv);
    let mae = caps
        .iter()
        .map(|&c| (live.eval(c as f64) - oracle.eval(c as f64)).abs())
        .sum::<f64>()
        / caps.len() as f64;
    let col = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    // Rounds replay equal command counts, so the run's achieved rate is
    // the mean of the rounds'; a stall that delays the last send of one
    // short window is diluted rather than voiding the run.
    let achieved = mean(&col(|r| r.achieved_ratio));
    out.info("timed.rounds", rounds.len());
    out.info("timed.open_loop_samples_per_round", OPEN_CMDS);
    let list = |f: fn(&Round) -> f64| {
        col(f)
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.info("timed.p50_us_by_round", list(|r| r.p50_us));
    out.info("timed.p99_us_by_round", list(|r| r.p99_us));
    out.info("timed.ops_per_s_by_round", list(|r| r.ops_per_s));
    out.info("timed.ops_per_cpu_s_by_round", list(|r| r.ops_per_cpu_s));
    out.info(
        "timed.setup_cpu_s_by_round",
        col(|r| r.setup_cpu_s)
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.info(
        "timed.achieved_ratio_by_round",
        col(|r| r.achieved_ratio)
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.attempted = rounds.iter().map(|r| r.attempted).sum();
    out.failed = rounds.iter().map(|r| r.failed).sum();
    out.check(
        "no_missing_replies",
        out.failed == 0,
        format!("{} of {} failed", out.failed, out.attempted),
    );
    out.check(
        "counters_match_replay",
        rounds.iter().all(|r| r.stats == st),
        format!(
            "live hits/misses/evictions == in-process replay {}/{}/{}",
            st.hits, st.misses, st.evictions
        ),
    );
    out.check(
        "live_mrc_matches_replay",
        rounds.iter().all(|r| r.mrc_csv == expected_csv),
        "live profiler curve == in-process replay curve",
    );
    out.check(
        "mrc_mae_ceiling",
        mae <= spec.mae_ceiling,
        format!("mae {mae:.5} <= {}", spec.mae_ceiling),
    );
    out.check(
        "open_loop_rate",
        achieved >= MIN_ACHIEVED,
        format!("achieved/target {achieved:.4} >= {MIN_ACHIEVED}"),
    );

    out.set_layer("e2e.refs_per_s", median(&col(|r| r.gets_per_s)));
    out.set_layer("e2e.ops_per_s", median(&col(|r| r.ops_per_s)));
    out.set_layer("e2e.setup_wall_s", median(&col(|r| r.setup_s)));
    out.set_layer("e2e.p50_us", median(&col(|r| r.p50_us)));
    out.set_layer("e2e.p99_us", median(&col(|r| r.p99_us)));
    out.set_layer("e2e.mrc_mae", mae);
    if traced {
        run_traced(
            &stream, &prefill, &gets, maxmemory, &rounds, &reference, seed, out_dir, &mut out,
        );
        return out;
    }
    out.set_e2e("setup_s", median(&col(|r| r.setup_cpu_s)));
    out.set_e2e("refs_per_cpu_s", median(&col(|r| r.gets_per_cpu_s)));
    out.set_e2e("ops_per_cpu_s", median(&col(|r| r.ops_per_cpu_s)));
    out.set_e2e("model_bytes", median(&col(|r| r.model_bytes)));
    out
}

/// The traced run: one live round for client and service latency, then
/// the in-process layers over the same stream.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    stream: &[Request],
    prefill: &[u64],
    gets: &[Request],
    maxmemory: u64,
    rounds: &[Round],
    reference: &Replay,
    seed: u64,
    out_dir: &Path,
    out: &mut Outcome,
) {
    let mut spans = SpanLog::new();
    let clock_ns = clock_cost_ns();
    out.info("traced.clock_cost_ns", clock_ns);

    // RESP: the client's bytes parsed as the server parses them, and the
    // replies encoded as the server encodes them.
    let payload = vec![b'x'; VALUE_BYTES as usize];
    let mut wire = Vec::new();
    for r in stream {
        let key = r.key.to_string();
        let cmd = match r.op {
            Op::Get => Value::command(&[b"GET", key.as_bytes()]),
            Op::Set => Value::command(&[b"SET", key.as_bytes(), &payload]),
        };
        write_value(&mut wire, &cmd).expect("encode into memory");
    }
    let replies: Vec<Value> = stream
        .iter()
        .zip(&reference.hits)
        .map(|(r, &hit)| match (r.op, hit) {
            (Op::Set, _) => Value::Simple("OK".into()),
            (Op::Get, true) => Value::bulk(b"1".to_vec()),
            (Op::Get, false) => Value::null(),
        })
        .collect();
    let (mut parse, mut encode) = (Vec::new(), Vec::new());
    let mut parsed_ok = true;
    for _ in 0..3 {
        let mut reader = BufReader::new(wire.as_slice());
        let t = spans.now();
        let mut parsed = 0usize;
        while let Ok(v) = read_value(&mut reader) {
            parsed += usize::from(matches!(v, Value::Array(_)));
        }
        parse.push(spans.close("resp.parse", t, None, parsed as u64) as f64);
        parsed_ok &= parsed == stream.len();
        let mut buf = Vec::with_capacity(replies.len() * 8);
        let t = spans.now();
        for v in &replies {
            write_value(&mut buf, v).expect("encode into memory");
        }
        encode.push(spans.close("resp.encode", t, None, replies.len() as u64) as f64);
        std::hint::black_box(&buf);
    }
    let n = stream.len() as f64;
    let parse_ns = median(&parse) / n;
    let encode_ns = median(&encode) / n;

    // Store layers: unprofiled, + bank, + fleet; interleaved repeats.
    let (mut plain, mut bank, mut fleet, mut untimed) = (vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        for (mode, acc, name) in [
            (Profiling::Off, &mut plain, "store.unprofiled"),
            (Profiling::Bank, &mut bank, "store.bank"),
            (Profiling::BankAndFleet, &mut fleet, "store.bank_fleet"),
        ] {
            let t = spans.now();
            let r = replay(stream, prefill, maxmemory, mode, true, clock_ns);
            spans.close(name, t, None, stream.len() as u64);
            acc.push(r);
        }
        untimed.push(
            replay(
                stream,
                prefill,
                maxmemory,
                Profiling::BankAndFleet,
                false,
                0.0,
            )
            .wall_ns,
        );
    }
    let med = |v: &[Replay], f: fn(&Replay) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    let (plain_get, plain_set) = (med(&plain, |r| r.get_ns), med(&plain, |r| r.set_ns));
    let bank_get = med(&bank, |r| r.get_ns);
    let (fleet_get, fleet_set) = (med(&fleet, |r| r.get_ns), med(&fleet, |r| r.set_ns));
    let timed_wall = med(&fleet, |r| r.wall_ns);

    // The bank's own stages over the GET stream.
    let staged = staged_replay(&bank_config(), SHARDS, gets, false, &mut spans);
    let staged_identical = reference
        .mrc
        .as_ref()
        .is_some_and(|m| m.points() == staged.mrc.points());
    let g = gets.len() as f64;

    let get_share = g / n;
    let store_ns = get_share * fleet_get + (1.0 - get_share) * fleet_set;
    let client_p50 = median(&rounds.iter().map(|r| r.p50_us).collect::<Vec<_>>());
    out.set_layer("hashing.ns_per_ref", staged.hash_ns as f64 / g);
    out.set_layer("sampling.ns_per_ref", staged.sample_ns as f64 / g);
    out.set_layer("pipeline.route_ns_per_ref", staged.route_ns as f64 / g);
    out.set_layer(
        "model.ns_per_admitted",
        staged.model_ns as f64 / staged.admitted.max(1) as f64,
    );
    out.set_layer("update.chain_len_mean", bank[0].chain_len_mean);
    out.set_layer(
        "update.positions_scanned_mean",
        bank[0].positions_scanned_mean,
    );
    out.set_layer("resp.parse_ns_per_cmd", parse_ns);
    out.set_layer("resp.encode_ns_per_reply", encode_ns);
    out.set_layer("store.get_ns", plain_get);
    out.set_layer("store.set_ns", plain_set);
    out.set_layer("sharded.ns_per_get", bank_get - plain_get);
    out.set_layer("fleet.ns_per_get", fleet_get - bank_get);
    out.set_layer("server.client_p50_us", client_p50);
    out.set_layer(
        "server.service_p50_us",
        median(&rounds.iter().map(|r| r.service_p50_us).collect::<Vec<_>>()),
    );
    out.set_layer(
        "server.unattributed_us",
        client_p50 - (parse_ns + store_ns + encode_ns) / 1e3,
    );
    out.set_layer("sampling.admit_ratio", staged.admitted as f64 / g);
    out.set_layer(
        "stack.hit_ratio",
        1.0 - staged.distinct as f64 / staged.admitted.max(1) as f64,
    );
    let st = reference.stats;
    out.set_layer(
        "store.hit_ratio",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
    );
    let sets = stream.iter().filter(|r| r.op == Op::Set).count();
    out.set_layer(
        "store.evictions_per_set",
        st.evictions as f64 / sets.max(1) as f64,
    );
    out.set_layer(
        "load.achieved_ratio",
        mean(&rounds.iter().map(|r| r.achieved_ratio).collect::<Vec<_>>()),
    );
    out.set_layer(
        "trace.overhead_pct",
        100.0 * (timed_wall - median(&untimed)) / median(&untimed),
    );
    out.fill_not_applicable();

    out.info(
        "traced.ledger_us",
        format!(
            "client p50 {client_p50:.2} = parse {:.3} + store(profiled) {:.3} + encode {:.3} + unattributed {:.2}",
            parse_ns / 1e3,
            store_ns / 1e3,
            encode_ns / 1e3,
            client_p50 - (parse_ns + store_ns + encode_ns) / 1e3
        ),
    );
    let path = out_dir.join(format!("spans-server_mixed-seed{seed}.json"));
    match spans.write_chrome(&path) {
        Ok(()) => out.info(
            "traced.spans",
            format!("{} spans -> {}", spans.len(), path.display()),
        ),
        Err(e) => out.check("spans_written", false, e.to_string()),
    }
    out.check(
        "resp_roundtrip",
        parsed_ok,
        "every encoded command parsed back",
    );
    out.check(
        "staged_mrc_identical",
        staged_identical,
        "staged bank replay MRC is bit-identical to the store's profiler MRC",
    );
    out.check(
        "layer_replays_agree",
        plain
            .iter()
            .chain(&bank)
            .chain(&fleet)
            .all(|r| r.stats == st),
        "profiling does not change the store's hits/misses/evictions",
    );
}
