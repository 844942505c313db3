//! A/B benchmark for the parallel profiling paths: sequential access loop
//! vs the legacy scan-everything-per-thread `process_parallel_rescan` vs
//! the PR 6-era bounded-channel pipeline (`process_stream_channels`) vs
//! the lock-free SPSC ring + batched hot-path `process_stream` pipeline,
//! over a 1/2/4/8 thread scaling curve.
//!
//! Writes machine-readable results to `BENCH_pipeline.json` at the repo
//! root (schema `krr-bench-pipeline-v2`) so the perf trajectory is tracked
//! across PRs. `KRR_BENCH_FAST=1` shrinks the trace for smoke runs.
//!
//! Besides timing, the run asserts the claims the numbers rest on:
//! bit-identical MRCs across all paths at 1/2/4/8/16 threads, route-once
//! hashing (pipeline hashes N keys total; rescan hashes T×N), a
//! near-stall-free router at the 8-thread tuning, and — in full mode —
//! the ring pipeline beating the PR 6 channel pipeline's recorded
//! 8-thread throughput by at least 1.5×.
//!
//! A separate `metrics_overhead` block times one `KrrModel` with and
//! without a metrics registry attached, in interleaved on/off pairs, and
//! asserts the two MRCs are bit-identical; in full mode the metrics-on
//! throughput must stay within 5% of metrics-off.

use krr_core::metrics::MetricsRegistry;
use krr_core::rng::Xoshiro256;
use krr_core::sharded::ShardedKrr;
use krr_core::{KrrConfig, KrrModel, Mrc};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 16;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

/// The 8-thread full-mode (400K-ref) `refs_per_sec` measured for the
/// PR 6 channel pipeline at its merge commit (`5d32c6a`, rebuilt in a
/// worktree on this hardware) — the fixed baseline for the ring
/// pipeline's ≥1.5× acceptance gate. The PR 6 *committed* artifact was a
/// fast-mode (40K-ref) run at 784,945 refs/s; gating full-mode against
/// fast-mode would compare different traces, so the full-mode
/// measurement is the honest yardstick.
const PR6_CHANNEL_T8_RPS: f64 = 646_188.0;
const GATE_SPEEDUP: f64 = 1.5;

/// Paired metrics-on/off runs of the overhead block, the refs each side
/// processes between hand-offs within a pair, and the smallest accepted
/// ratio of their median throughputs (on / off) in full mode.
const OVERHEAD_PAIRS: usize = 10;
const OVERHEAD_CHUNK: usize = 50_000;
const OVERHEAD_REQUIRED: f64 = 0.95;

fn trace(n: usize) -> Vec<(u64, u32)> {
    let z = krr_trace::Zipf::new(100_000, 0.9);
    let mut rng = Xoshiro256::seed_from_u64(3);
    (0..n).map(|_| (z.sample(&mut rng), 1)).collect()
}

/// Best-of-REPS wall time for one full profiling run.
fn time_best(mut run: impl FnMut() -> ShardedKrr) -> (f64, ShardedKrr) {
    let mut best = f64::INFINITY;
    let mut bank = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let b = run();
        best = best.min(t0.elapsed().as_secs_f64());
        bank = Some(b);
    }
    (best, bank.expect("at least one rep"))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 0 {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The `metrics_overhead` block: one `KrrModel` (K=5) on Zipf 0.9 over
/// 200K keys, timed in `OVERHEAD_PAIRS` metrics-on/off pairs. Within a
/// pair the two models take turns on `OVERHEAD_CHUNK`-ref slices of the
/// trace, alternating which goes first, so slow drift in host speed hits
/// both sides alike. Returns the JSON object.
fn metrics_overhead(fast: bool) -> String {
    let n = if fast { 200_000 } else { 2_000_000 };
    let z = krr_trace::Zipf::new(200_000, 0.9);
    let mut rng = Xoshiro256::seed_from_u64(11);
    let keys: Vec<u64> = (0..n).map(|_| z.sample(&mut rng)).collect();
    let (mut off_rps, mut on_rps) = (Vec::new(), Vec::new());
    let mut golden: Option<Mrc> = None;
    for pair in 0..OVERHEAD_PAIRS {
        let mut models = [false, true].map(|metrics| {
            let mut model = KrrModel::new(KrrConfig::new(5.0).seed(7));
            if metrics {
                model.set_metrics(Arc::new(MetricsRegistry::new()));
            }
            model
        });
        let mut secs = [0.0f64; 2];
        for (i, chunk) in keys.chunks(OVERHEAD_CHUNK).enumerate() {
            let on_first = (pair + i) % 2 == 1;
            for side in [usize::from(on_first), usize::from(!on_first)] {
                let t0 = Instant::now();
                for &key in chunk {
                    models[side].access_key(key);
                }
                secs[side] += t0.elapsed().as_secs_f64();
            }
        }
        for model in &models {
            let mrc = model.mrc();
            let g = golden.get_or_insert_with(|| mrc.clone());
            assert_eq!(mrc.points(), g.points(), "MRC diverged in pair {pair}");
        }
        off_rps.push(n as f64 / secs[0]);
        on_rps.push(n as f64 / secs[1]);
    }
    let (off, on) = (median(off_rps), median(on_rps));
    let ratio = on / off;
    println!(
        "metrics overhead: off {off:.0} refs/s, on {on:.0} refs/s (medians of {OVERHEAD_PAIRS} pairs), on/off {ratio:.3}"
    );
    if !fast {
        assert!(
            ratio >= OVERHEAD_REQUIRED,
            "metrics overhead gate failed: on/off {ratio:.3} < {OVERHEAD_REQUIRED}"
        );
    }
    format!(
        "{{\"refs\":{n},\"keys\":200000,\"k\":5,\"pairs\":{OVERHEAD_PAIRS},\"off_rps_median\":{off:.0},\"on_rps_median\":{on:.0},\"ratio\":{ratio:.3},\"required\":{OVERHEAD_REQUIRED},\"enforced\":{},\"mrc_identical\":true}}",
        !fast
    )
}

struct Row {
    path: &'static str,
    threads: usize,
    secs: f64,
    refs_per_sec: f64,
}

fn main() {
    let fast = std::env::var("KRR_BENCH_FAST").is_ok();
    let n = if fast { 40_000 } else { 400_000 };
    let refs = trace(n);
    let cfg = KrrConfig::new(5.0).seed(7);
    println!("\n== pipeline ==  ({n} refs, {SHARDS} shards, best of {REPS})");

    let mut rows: Vec<Row> = Vec::new();
    let mut record = |path: &'static str, threads: usize, secs: f64| {
        let rps = n as f64 / secs;
        println!(
            "{path:<12} threads={threads}  {secs:>8.4} s  {:>10.2} Mref/s",
            rps / 1e6
        );
        rows.push(Row {
            path,
            threads,
            secs,
            refs_per_sec: rps,
        });
    };

    // Golden: the sequential sharded loop.
    let (t_seq, seq) = time_best(|| {
        let mut bank = ShardedKrr::new(&cfg, SHARDS);
        for &(k, s) in &refs {
            bank.access(k, s);
        }
        bank
    });
    record("sequential", 1, t_seq);
    let golden = seq.mrc();

    for threads in THREADS {
        let (t_old, old) = time_best(|| {
            let mut bank = ShardedKrr::new(&cfg, SHARDS);
            bank.process_parallel_rescan(&refs, threads);
            bank
        });
        assert_eq!(
            old.mrc().points(),
            golden.points(),
            "rescan diverged at threads={threads}"
        );
        record("rescan", threads, t_old);

        let (t_ch, ch) = time_best(|| {
            let mut bank = ShardedKrr::new(&cfg, SHARDS);
            bank.process_stream_channels(refs.iter().copied(), threads);
            bank
        });
        assert_eq!(
            ch.mrc().points(),
            golden.points(),
            "channel pipeline diverged at threads={threads}"
        );
        record("channels", threads, t_ch);

        let (t_new, new) = time_best(|| {
            let mut bank = ShardedKrr::new(&cfg, SHARDS);
            bank.process_stream(refs.iter().copied(), threads);
            bank
        });
        assert_eq!(
            new.mrc().points(),
            golden.points(),
            "pipeline diverged at threads={threads}"
        );
        record("pipeline", threads, t_new);
    }

    // Bit-identity holds past the timing curve: 16 workers, more threads
    // than a 1-per-shard assignment can use.
    let mut t16 = ShardedKrr::new(&cfg, SHARDS);
    t16.process_stream(refs.iter().copied(), 16);
    assert_eq!(
        t16.mrc().points(),
        golden.points(),
        "pipeline diverged at threads=16"
    );

    // Route-once accounting (N hashes for the pipeline, T×N for rescan)
    // and the ring-transport health counters at the 8-thread tuning.
    let count_hashes = |f: &dyn Fn(&mut ShardedKrr)| {
        let reg = Arc::new(MetricsRegistry::new());
        let mut bank = ShardedKrr::new(&cfg, SHARDS);
        bank.set_metrics(Arc::clone(&reg));
        f(&mut bank);
        (reg.snapshot().pipeline_keys_hashed, reg)
    };
    let (pipeline_hashes, _) = count_hashes(&|b| b.process_stream(refs.iter().copied(), 4));
    let (rescan_hashes, _) = count_hashes(&|b| b.process_parallel_rescan(&refs, 4));
    assert_eq!(
        pipeline_hashes, n as u64,
        "pipeline must hash each key once"
    );
    assert_eq!(rescan_hashes, 4 * n as u64, "rescan hashes T×N");
    println!("keys hashed @4 threads: pipeline {pipeline_hashes}, rescan {rescan_hashes}");

    let (_, reg_t8) = count_hashes(&|b| b.process_stream(refs.iter().copied(), 8));
    let snap = reg_t8.snapshot();
    let (stalls, batches) = (snap.pipeline_stalls, snap.pipeline_batches);
    println!(
        "ring @8 threads: batches {batches}, stalls {stalls}, wraps {}, router parks {}, worker parks {}",
        snap.pipeline_ring_wraps, snap.pipeline_router_parks, snap.pipeline_worker_parks
    );
    // The for_threads(8) tuning exists precisely so the router is not the
    // bottleneck: a stall on more than 2% of batches fails the run.
    assert!(
        stalls * 50 <= batches,
        "router stalling at tuned config: {stalls} stalls / {batches} batches"
    );

    let rps_of = |path: &str, threads: usize| {
        rows.iter()
            .find(|r| r.path == path && r.threads == threads)
            .expect("row recorded")
            .refs_per_sec
    };
    for threads in THREADS {
        println!(
            "pipeline speedup over channels @{threads} threads: {:.2}x (over rescan {:.2}x)",
            rps_of("pipeline", threads) / rps_of("channels", threads),
            rps_of("pipeline", threads) / rps_of("rescan", threads),
        );
    }

    // Acceptance gate: ring pipeline vs the PR 6 channel pipeline's
    // committed 8-thread number. Fast mode still reports the ratio but
    // doesn't gate on it (the 40K-ref trace is noise-dominated).
    let t8_rps = rps_of("pipeline", 8);
    let gate_ratio = t8_rps / PR6_CHANNEL_T8_RPS;
    println!(
        "gate: pipeline t8 {t8_rps:.0} refs/s = {gate_ratio:.2}x PR6 channel t8 ({PR6_CHANNEL_T8_RPS:.0})"
    );
    if !fast {
        assert!(
            gate_ratio >= GATE_SPEEDUP,
            "ring pipeline gate failed: {gate_ratio:.2}x < {GATE_SPEEDUP}x over PR6 channel t8"
        );
    }

    let overhead = metrics_overhead(fast);

    let mut json = String::from("{\"schema\":\"krr-bench-pipeline-v2\",");
    let _ = write!(
        json,
        "\"refs\":{n},\"shards\":{SHARDS},\"reps\":{REPS},\"keys_hashed\":{{\"pipeline_t4\":{pipeline_hashes},\"rescan_t4\":{rescan_hashes}}},"
    );
    let _ = write!(
        json,
        "\"ring_t8\":{{\"batches\":{batches},\"stalls\":{stalls},\"wraps\":{},\"router_parks\":{},\"worker_parks\":{},\"depth_hwm\":{:?}}},",
        snap.pipeline_ring_wraps,
        snap.pipeline_router_parks,
        snap.pipeline_worker_parks,
        snap.pipeline_ring_hwm
    );
    let _ = write!(
        json,
        "\"gate\":{{\"pr6_channel_t8_rps\":{PR6_CHANNEL_T8_RPS:.0},\"required\":{GATE_SPEEDUP},\"ratio\":{gate_ratio:.3},\"enforced\":{}}},\"results\":[",
        !fast
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"path\":\"{}\",\"threads\":{},\"seconds\":{:.6},\"refs_per_sec\":{:.0}}}",
            r.path, r.threads, r.secs, r.refs_per_sec
        );
    }
    let _ = write!(json, "],\"speedup_vs_channels\":{{");
    for (i, threads) in THREADS.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"t{threads}\":{:.3}",
            rps_of("pipeline", *threads) / rps_of("channels", *threads)
        );
    }
    let _ = write!(json, "}},\"metrics_overhead\":{overhead}}}");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(out, &json).expect("write BENCH_pipeline.json");
    println!("wrote {out}\n");
}
