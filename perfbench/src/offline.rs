//! The offline profiler workloads: a sharded KRR bank building an MRC from
//! an in-memory trace.
//!
//! The timed run measures `ShardedKrr::process_stream` + `mrc()` from the
//! outside, on the process CPU clock and on the wall clock. The traced run
//! replays the same input stage by stage through the layers' public
//! functions — `hash_keys8` → `shard_of_hash` → `admits_hashed8` →
//! per-shard `KrrModel::access_batch` — and checks that the staged MRC is
//! bit-identical to the pipeline's.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use krr_core::hashing::{hash_key, hash_keys8};
use krr_core::rng::Xoshiro256;
use krr_core::{
    shard_of_hash, Footprint, KrrConfig, KrrModel, MetricsRegistry, Mrc, SdHistogram, ShardedKrr,
    SizeMode, SpatialFilter,
};
use krr_sim::mrc_sim::{simulate_mrc, working_set, Policy, Unit};
use krr_trace::msr::{profile, MsrTrace};
use krr_trace::{Request, Zipf};

use crate::cpu;
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{median, quantile};

/// Where the trace comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Zipf(`alpha`) over `keys` keys, uniform sizes.
    Zipf { keys: u64, alpha: f64 },
    /// The `msr_src1` Type-A profile at working-set `scale`, variable sizes.
    MsrSrc1 { scale: f64 },
}

/// One offline workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// References in the trace.
    pub refs: usize,
    /// Trace generator.
    pub source: Source,
    /// Spatial sampling rate R.
    pub sampling: f64,
    /// Byte-level distances (sizeArray base 2, 4 KiB bins).
    pub byte_level: bool,
    /// Shards of the bank.
    pub shards: usize,
    /// Capacities of the exact K-LRU oracle.
    pub oracle_caps: usize,
    /// Sanity ceiling on `mrc_mae`.
    pub mae_ceiling: f64,
    /// Fewest timed passes per run.
    pub min_passes: usize,
}

/// K of the modeled K-LRU cache (and of the oracle).
const K: u32 = 5;
/// Seed of the oracle simulator, fixed so the oracle depends on the input
/// only.
const ORACLE_SEED: u64 = 0x0AC1E;
/// Pipeline worker threads. One worker beside the routing thread keeps
/// the pipeline within a two-vCPU host: with two, three busy threads share
/// two cores and throughput turns bimodal.
const WORKERS: usize = 1;
/// Threads of the oracle simulation (set-up, not timed).
const ORACLE_THREADS: usize = 2;
/// `ShardedKrr::new` calls timed per pass for `setup_s`.
const SETUP_REPS: usize = 25;
/// `mrc()` queries timed per pass for `e2e.p50_us`/`e2e.p99_us`.
const QUERIES_PER_PASS: usize = 100;
/// References per staged-replay chunk.
const CHUNK: usize = 1 << 16;

impl Spec {
    /// `offline_zipf` (tiny under `smoke`).
    #[must_use]
    pub fn zipf(smoke: bool) -> Self {
        Self {
            name: "offline_zipf",
            refs: if smoke { 20_000 } else { 2_000_000 },
            source: Source::Zipf {
                keys: if smoke { 10_000 } else { 1_000_000 },
                alpha: 0.9,
            },
            sampling: 1.0,
            byte_level: false,
            shards: 16,
            oracle_caps: 8,
            mae_ceiling: if smoke { 0.01 } else { 0.002 },
            min_passes: if smoke { 2 } else { 5 },
        }
    }

    /// `offline_msr_bytes` (tiny under `smoke`).
    #[must_use]
    pub fn msr_bytes(smoke: bool) -> Self {
        Self {
            name: "offline_msr_bytes",
            refs: if smoke { 200_000 } else { 20_000_000 },
            source: Source::MsrSrc1 {
                scale: if smoke { 0.01 } else { 1.0 },
            },
            sampling: if smoke { 0.1 } else { 0.01 },
            byte_level: true,
            shards: 16,
            oracle_caps: 4,
            mae_ceiling: if smoke { 0.08 } else { 0.03 },
            min_passes: if smoke { 2 } else { 5 },
        }
    }

    /// The bank's template configuration.
    #[must_use]
    pub fn config(&self) -> KrrConfig {
        let cfg = KrrConfig::new(f64::from(K)).sampling(self.sampling);
        if self.byte_level {
            cfg.byte_level(2, 4096)
        } else {
            cfg
        }
    }

    /// Generates the trace for `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Vec<Request> {
        match self.source {
            Source::Zipf { keys, alpha } => {
                let zipf = Zipf::new(keys, alpha);
                let mut rng = Xoshiro256::seed_from_u64(seed);
                (0..self.refs)
                    .map(|_| Request::unit(zipf.sample(&mut rng)))
                    .collect()
            }
            Source::MsrSrc1 { scale } => {
                profile(MsrTrace::Src1).generate_var_size(self.refs, seed, scale)
            }
        }
    }
}

fn refs_of(trace: &[Request]) -> impl Iterator<Item = (u64, u32)> + '_ {
    trace.iter().map(|r| (r.key, r.size))
}

/// Exact K-LRU miss ratios at the oracle capacities: evenly spaced
/// strictly inside the working set. Cached per workload and seed under
/// `out_dir`, since the simulation dominates a run's set-up.
fn oracle(spec: &Spec, trace: &[Request], seed: u64, out_dir: &Path) -> (Vec<u64>, Vec<f64>, bool) {
    let (distinct, bytes) = working_set(trace);
    let (unit, max) = if spec.byte_level {
        (Unit::Bytes, bytes)
    } else {
        (Unit::Objects, distinct)
    };
    let n = spec.oracle_caps as u64;
    let mut caps: Vec<u64> = (1..=n).map(|i| (max * i / (n + 1)).max(1)).collect();
    caps.dedup();
    let path = out_dir.join(format!("oracle-{}-{seed}-{}.csv", spec.name, spec.refs));
    if let Ok(text) = std::fs::read_to_string(&path) {
        let rows: Vec<(u64, f64)> = text
            .lines()
            .filter_map(|l| {
                let (c, m) = l.split_once(',')?;
                Some((c.parse().ok()?, m.parse().ok()?))
            })
            .collect();
        if rows.iter().map(|r| r.0).eq(caps.iter().copied()) {
            return (caps, rows.iter().map(|r| r.1).collect(), true);
        }
    }
    let mrc = simulate_mrc(
        trace,
        Policy::klru(K),
        unit,
        &caps,
        ORACLE_SEED,
        ORACLE_THREADS,
    );
    let misses: Vec<f64> = caps.iter().map(|&c| mrc.eval(c as f64)).collect();
    let text: String = caps
        .iter()
        .zip(&misses)
        .map(|(c, m)| format!("{c},{m}\n"))
        .collect();
    let _ = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, text));
    (caps, misses, false)
}

fn mae(mrc: &Mrc, caps: &[u64], misses: &[f64]) -> f64 {
    caps.iter()
        .zip(misses)
        .map(|(&c, &m)| (mrc.eval(c as f64) - m).abs())
        .sum::<f64>()
        / caps.len() as f64
}

/// Runs one offline workload for `seconds` and reports its end-to-end
/// metrics (or, `traced`, its per-layer metrics).
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    let mut out = Outcome::new(spec.name);
    let t = Instant::now();
    let trace = spec.generate(seed);
    out.info("input.gen_s", t.elapsed().as_secs_f64());
    out.info("input.refs", trace.len());

    let t = Instant::now();
    let (caps, misses, cached) = oracle(spec, &trace, seed, out_dir);
    out.info(
        "oracle.s",
        format!(
            "{:.3}{}",
            t.elapsed().as_secs_f64(),
            if cached { " (cached)" } else { "" }
        ),
    );
    out.info("oracle.capacities", caps.len());
    traffic_profile(spec, &trace, &caps, &misses, &mut out);

    if traced {
        run_traced(
            spec, seed, &trace, &caps, &misses, seconds, out_dir, &mut out,
        );
    } else {
        run_timed(spec, &trace, &caps, &misses, seconds, &mut out);
    }
    out
}

fn traffic_profile(
    spec: &Spec,
    trace: &[Request],
    caps: &[u64],
    misses: &[f64],
    out: &mut Outcome,
) {
    let (distinct, bytes) = working_set(trace);
    let filter = filter_for(&spec.config());
    let admitted = trace
        .iter()
        .filter(|r| filter.admits_hashed(hash_key(r.key)))
        .count();
    let mid = caps.len() / 2;
    out.info("profile.distinct_keys", distinct);
    out.info("profile.working_set_bytes", bytes);
    out.info(
        "profile.admitted_share",
        admitted as f64 / trace.len() as f64,
    );
    out.info(
        "profile.hit_ratio",
        format!(
            "{} (exact K-LRU at {} of {} units)",
            1.0 - misses[mid],
            caps[mid],
            if spec.byte_level { bytes } else { distinct }
        ),
    );
    out.info("profile.set_share", 0);
    out.info("profile.evictions_per_set", "n/a (no SETs)");
    out.info(
        "profile.mean_size_b",
        trace.iter().map(|r| f64::from(r.size)).sum::<f64>() / trace.len() as f64,
    );
}

fn filter_for(cfg: &KrrConfig) -> SpatialFilter {
    if cfg.sampling_rate >= 1.0 {
        SpatialFilter::all()
    } else {
        SpatialFilter::with_rate(cfg.sampling_rate)
    }
}

/// Interleaved timed passes: set-up, build, queries, repeated until
/// `seconds` have passed (and at least `min_passes` ran).
fn run_timed(
    spec: &Spec,
    trace: &[Request],
    caps: &[u64],
    misses: &[f64],
    seconds: f64,
    out: &mut Outcome,
) {
    let cfg = spec.config();
    let budget = Duration::from_secs_f64(seconds);
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let (mut per_cpu_s, mut per_wall_s, mut query_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Mrc> = None;
    let mut repeatable = true;
    let mut model_bytes = 0usize;
    let start = Instant::now();
    let mut passes = 0;
    while passes < spec.min_passes || start.elapsed() < budget {
        let mut bank = ShardedKrr::new(&cfg, spec.shards);
        for _ in 0..SETUP_REPS {
            let (t, c) = (Instant::now(), cpu::process_s());
            let fresh = ShardedKrr::new(&cfg, spec.shards);
            setup_cpu.push(cpu::process_s() - c);
            setup_wall.push(t.elapsed().as_secs_f64());
            bank = fresh;
        }
        let (t, c) = (Instant::now(), cpu::process_s());
        bank.process_stream(refs_of(trace), WORKERS);
        let mrc = bank.mrc();
        per_cpu_s.push(trace.len() as f64 / (cpu::process_s() - c));
        per_wall_s.push(trace.len() as f64 / t.elapsed().as_secs_f64());
        for _ in 0..QUERIES_PER_PASS {
            let t = Instant::now();
            std::hint::black_box(bank.mrc());
            query_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        model_bytes = bank.deep_bytes();
        match &first {
            None => first = Some(mrc),
            Some(f) => repeatable &= f.points() == mrc.points(),
        }
        passes += 1;
    }
    let mrc = first.expect("at least one pass");
    let err = mae(&mrc, caps, misses);
    out.info("timed.passes", passes);
    out.info("timed.setup_samples", setup_cpu.len());
    out.info("timed.query_samples", query_us.len());
    let list = |v: &[f64]| {
        v.iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.info("timed.refs_per_cpu_s_by_pass", list(&per_cpu_s));
    out.info("timed.refs_per_s_by_pass", list(&per_wall_s));
    // Each offered reference is one operation of the offline profiler.
    let (rate_cpu, rate_wall) = (median(&per_cpu_s), median(&per_wall_s));
    out.set_e2e("setup_s", median(&setup_cpu));
    out.set_e2e("refs_per_cpu_s", rate_cpu);
    out.set_e2e("ops_per_cpu_s", rate_cpu);
    out.set_e2e("model_bytes", model_bytes as f64);
    out.set_layer("e2e.refs_per_s", rate_wall);
    out.set_layer("e2e.ops_per_s", rate_wall);
    out.set_layer("e2e.setup_wall_s", median(&setup_wall));
    out.set_layer("e2e.p50_us", quantile(&query_us, 0.50));
    out.set_layer("e2e.p99_us", quantile(&query_us, 0.99));
    out.set_layer("e2e.mrc_mae", err);
    out.attempted = (passes * trace.len()) as u64;
    out.check(
        "mrc_repeatable",
        repeatable,
        format!("{passes} passes gave bit-identical MRCs"),
    );
    out.check(
        "mrc_mae_ceiling",
        err <= spec.mae_ceiling,
        format!("mae {err:.5} <= {}", spec.mae_ceiling),
    );
}

/// Per-stage time totals of one staged replay.
#[derive(Debug)]
pub struct Staged {
    /// `hash_keys8` time.
    pub hash_ns: u64,
    /// `shard_of_hash` + per-shard buffering time.
    pub route_ns: u64,
    /// `admits_hashed8` time.
    pub sample_ns: u64,
    /// Per-shard `KrrModel::access_batch` time on admitted refs.
    pub model_ns: u64,
    /// The same admitted refs through uniform-size models (byte-level
    /// workloads only; isolates the sizeArray).
    pub uniform_ns: u64,
    /// References the spatial filter admitted.
    pub admitted: u64,
    /// Distinct keys on the shard stacks (admitted refs that missed).
    pub distinct: u64,
    /// Wall time of the replay, without the uniform replica.
    pub wall_ns: u64,
    /// The merged MRC, built the way `ShardedKrr::mrc` builds it.
    pub mrc: Mrc,
}

/// Replays `input` through the bank's layers one stage at a time, with
/// per-shard seeds derived as `ShardedKrr::new` derives them. The shard
/// models run at R=1 on the refs the stage-level filter admitted; their
/// histograms equal the sampled models' histograms, and the merge applies
/// the same count adjustment and scale, so the MRC is bit-identical to
/// the pipeline's.
pub fn staged_replay(
    cfg: &KrrConfig,
    shards: usize,
    input: &[Request],
    uniform_replica: bool,
    spans: &mut SpanLog,
) -> Staged {
    let filter = filter_for(cfg);
    let shard_cfg = |i: usize, uniform: bool| {
        let mut c = cfg.clone();
        c.seed = cfg.seed ^ ((i as u64 + 1) << 48);
        c.sampling_rate = 1.0;
        if uniform {
            c.size_mode = SizeMode::Uniform;
            c.bin_width = 1;
        }
        c
    };
    let mut models: Vec<KrrModel> = (0..shards)
        .map(|i| KrrModel::new(shard_cfg(i, false)))
        .collect();
    let mut uniform: Vec<KrrModel> = if uniform_replica {
        (0..shards)
            .map(|i| KrrModel::new(shard_cfg(i, true)))
            .collect()
    } else {
        Vec::new()
    };
    let mut hashes: Vec<u64> = Vec::with_capacity(CHUNK);
    let mut routed: Vec<Vec<(u64, u32, u64)>> = (0..shards).map(|_| Vec::new()).collect();
    let mut admitted_buf: Vec<(u64, u32, u64)> = Vec::new();
    let (mut hash_ns, mut route_ns, mut sample_ns, mut model_ns, mut uniform_ns) = (0, 0, 0, 0, 0);
    let mut admitted = 0u64;
    let t_wall = spans.now();
    let pass = spans.open("replay", None);
    for chunk in input.chunks(CHUNK) {
        let n = chunk.len() as u64;
        let c = spans.open("chunk", Some(pass));

        let t = spans.now();
        hashes.clear();
        let mut blocks = chunk.chunks_exact(8);
        for b in &mut blocks {
            hashes.extend_from_slice(&hash_keys8(std::array::from_fn(|i| b[i].key)));
        }
        hashes.extend(blocks.remainder().iter().map(|r| hash_key(r.key)));
        hash_ns += spans.close("hashing", t, Some(c), n);

        let t = spans.now();
        for (r, &h) in chunk.iter().zip(&hashes) {
            routed[shard_of_hash(h, shards)].push((r.key, r.size, h));
        }
        route_ns += spans.close("route", t, Some(c), n);

        for s in 0..shards {
            let buf = &routed[s];
            let t = spans.now();
            let adm: &[(u64, u32, u64)] = if filter.admits_all() {
                buf
            } else {
                admitted_buf.clear();
                let mut blocks = buf.chunks_exact(8);
                for b in &mut blocks {
                    let h8: [u64; 8] = std::array::from_fn(|i| b[i].2);
                    let mut mask = filter.admits_hashed8(&h8);
                    while mask != 0 {
                        let i = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        admitted_buf.push(b[i]);
                    }
                }
                admitted_buf.extend(
                    blocks
                        .remainder()
                        .iter()
                        .filter(|r| filter.admits_hashed(r.2)),
                );
                &admitted_buf
            };
            sample_ns += spans.close("sampling", t, Some(c), buf.len() as u64);
            admitted += adm.len() as u64;

            let t = spans.now();
            models[s].access_batch(adm);
            model_ns += spans.close("model", t, Some(c), adm.len() as u64);

            if uniform_replica {
                let t = spans.now();
                uniform[s].access_batch(adm);
                uniform_ns += spans.close("model.uniform_replica", t, Some(c), adm.len() as u64);
            }
        }
        for b in &mut routed {
            b.clear();
        }
        spans.finish(c, n);
    }
    spans.finish(pass, input.len() as u64);
    let wall_ns = (spans.now() - t_wall).saturating_sub(uniform_ns);
    let mrc = merged_mrc(cfg, &models, input.len() as u64, admitted, filter.rate());
    Staged {
        hash_ns,
        route_ns,
        sample_ns,
        model_ns,
        uniform_ns,
        admitted,
        distinct: models.iter().map(|m| m.stats().distinct).sum(),
        wall_ns,
        mrc,
    }
}

/// The bank MRC from per-shard models, as `ShardedKrr::mrc` computes it:
/// summed histograms, the SHARDS count adjustment at the merged level,
/// and the size axis expanded by `shards / R`.
fn merged_mrc(
    cfg: &KrrConfig,
    models: &[KrrModel],
    processed: u64,
    sampled: u64,
    rate: f64,
) -> Mrc {
    let mut merged = SdHistogram::new(cfg.bin_width);
    for m in models {
        merged.merge(m.histogram());
    }
    if cfg.spatial_adjustment {
        let expected = (processed as f64 * rate).round() as i64;
        merged.apply_count_adjustment(expected - sampled as i64);
    }
    let mut mrc = Mrc::from_histogram(&merged, models.len() as f64 / rate);
    mrc.make_monotone();
    mrc
}

/// The traced run: untraced pipeline passes interleaved with staged
/// replays, then one pass with a `MetricsRegistry` for the exact counts.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    spec: &Spec,
    seed: u64,
    trace: &[Request],
    caps: &[u64],
    misses: &[f64],
    seconds: f64,
    out_dir: &Path,
    out: &mut Outcome,
) {
    let cfg = spec.config();
    let n = trace.len() as f64;
    let budget = Duration::from_secs_f64(seconds);
    // Every round is traced; the first round's spans are written out.
    let mut first_spans: Option<SpanLog> = None;
    let (mut e2e, mut hash, mut route, mut sample, mut model, mut uni, mut wall, mut plain) = (
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
    );
    let mut reference: Option<Mrc> = None;
    let (mut query_us, mut setup) = (Vec::new(), Vec::new());
    let (mut staged_identical, mut admitted) = (true, 0u64);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed() < budget {
        let t = Instant::now();
        let mut bank = ShardedKrr::new(&cfg, spec.shards);
        setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        bank.process_stream(refs_of(trace), WORKERS);
        let mrc = bank.mrc();
        e2e.push(t.elapsed().as_nanos() as f64);
        let reference = reference.get_or_insert(mrc);
        for _ in 0..QUERIES_PER_PASS {
            let t = Instant::now();
            std::hint::black_box(bank.mrc());
            query_us.push(t.elapsed().as_secs_f64() * 1e6);
        }

        let mut spans = SpanLog::new();
        let st = staged_replay(&cfg, spec.shards, trace, spec.byte_level, &mut spans);
        first_spans.get_or_insert(spans);
        staged_identical &= st.mrc.points() == reference.points();
        hash.push(st.hash_ns as f64);
        route.push(st.route_ns as f64);
        sample.push(st.sample_ns as f64);
        model.push(st.model_ns as f64);
        uni.push(st.uniform_ns as f64);
        wall.push(st.wall_ns as f64);
        admitted = st.admitted;

        // The same replay with no clock reads: the tracing overhead.
        let t = Instant::now();
        std::hint::black_box(staged_replay(
            &cfg,
            spec.shards,
            trace,
            false,
            &mut SpanLog::disabled(),
        ));
        plain.push(t.elapsed().as_nanos() as f64);
        rounds += 1;
    }
    let reference = reference.expect("at least one round");

    // Counts come from a separate pass with metrics attached, because
    // attaching metrics moves the stack onto its two-pass update path.
    let reg = Arc::new(MetricsRegistry::new());
    let mut bank = ShardedKrr::new(&cfg, spec.shards);
    bank.set_metrics(Arc::clone(&reg));
    bank.process_stream(refs_of(trace), WORKERS);
    let metrics_identical = bank.mrc().points() == reference.points();
    let snap = reg.snapshot();

    let err = mae(&reference, caps, misses);
    out.set_layer("e2e.refs_per_s", n * 1e9 / median(&e2e));
    out.set_layer("e2e.ops_per_s", n * 1e9 / median(&e2e));
    out.set_layer("e2e.setup_wall_s", median(&setup));
    out.set_layer("e2e.p50_us", quantile(&query_us, 0.50));
    out.set_layer("e2e.p99_us", quantile(&query_us, 0.99));
    out.set_layer("e2e.mrc_mae", err);
    out.check(
        "mrc_mae_ceiling",
        err <= spec.mae_ceiling,
        format!("mae {err:.5} <= {}", spec.mae_ceiling),
    );
    let adm = admitted.max(1) as f64;
    let (hash_r, route_r, sample_r) = (median(&hash) / n, median(&route) / n, median(&sample) / n);
    let model_ns = median(&model);
    let e2e_r = median(&e2e) / n;
    let staged_r = hash_r + route_r + sample_r + model_ns / n;
    let unattributed = e2e_r - staged_r;
    out.set_layer("hashing.ns_per_ref", hash_r);
    out.set_layer("sampling.ns_per_ref", sample_r);
    out.set_layer("pipeline.route_ns_per_ref", route_r);
    if spec.byte_level {
        let uniform_ns = median(&uni);
        out.set_layer("model.ns_per_admitted", uniform_ns / adm);
        out.set_layer("sizearray.ns_per_admitted", (model_ns - uniform_ns) / adm);
    } else {
        out.set_layer("model.ns_per_admitted", model_ns / adm);
    }
    out.set_layer("pipeline.e2e_ns_per_ref", e2e_r);
    out.set_layer("pipeline.unattributed_ns_per_ref", unattributed);
    out.set_layer("pipeline.unattributed_share", unattributed / e2e_r);
    out.set_layer("pipeline.stalls", snap.pipeline_stalls as f64);
    out.set_layer("pipeline.router_parks", snap.pipeline_router_parks as f64);
    out.set_layer("pipeline.worker_parks", snap.pipeline_worker_parks as f64);
    out.set_layer("update.chain_len_mean", snap.chain_len.mean());
    out.set_layer(
        "update.positions_scanned_mean",
        snap.positions_scanned.mean(),
    );
    out.set_layer("sampling.admit_ratio", admitted as f64 / n);
    let touched = (snap.hits + snap.cold_misses).max(1);
    out.set_layer("stack.hit_ratio", snap.hits as f64 / touched as f64);
    out.set_layer(
        "trace.overhead_pct",
        100.0 * (median(&wall) - median(&plain)) / median(&plain),
    );
    out.fill_not_applicable();

    out.info("traced.rounds", rounds);
    out.info(
        "traced.ledger_ns_per_ref",
        format!(
            "e2e {e2e_r:.1} = hash {hash_r:.1} + route {route_r:.1} + sampling {sample_r:.1} + model {:.1} + unattributed {unattributed:.1}",
            model_ns / n
        ),
    );
    let path = out_dir.join(format!("spans-{}-seed{seed}.json", spec.name));
    let spans = first_spans.expect("at least one round");
    match spans.write_chrome(&path) {
        Ok(()) => out.info(
            "traced.spans",
            format!("{} spans -> {}", spans.len(), path.display()),
        ),
        Err(e) => out.check("spans_written", false, e.to_string()),
    }
    out.attempted = (rounds * trace.len()) as u64;
    out.check(
        "staged_mrc_identical",
        staged_identical,
        "staged replay MRC is bit-identical to the pipeline MRC",
    );
    out.check(
        "metrics_mrc_identical",
        metrics_identical,
        "metrics-attached pipeline MRC is bit-identical",
    );
}
