//! Lock-free metrics for the KRR pipeline: atomic counters and
//! log-bucketed histograms, aggregated in a [`MetricsRegistry`] that every
//! stage (model, updaters, shards, simulators, mini-Redis) can share
//! through an `Arc`.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost.** A production MRC profiler is judged by its
//!    per-access overhead (Byrne's MRC survey; Inoue's multi-step LRU), so
//!    every record is a handful of `Relaxed` atomic RMWs — no locks, no
//!    allocation, no branching beyond one `Option` check in the caller.
//!    Latency timing is *sampled* (callers time ~1/64 of accesses) because
//!    reading the clock costs more than the work being measured.
//! 2. **Concurrency.** Shard workers and server connection threads record
//!    into the same registry concurrently; `AtomicU64` everywhere makes
//!    that safe. Snapshots are *not* atomic across fields — they are
//!    monotone-consistent, which is what monitoring needs.
//! 3. **No dependencies.** Snapshots export to Redis-`INFO`-style text and
//!    hand-rolled JSON; both formats are documented in DESIGN.md.
//!
//! ```
//! use krr_core::metrics::MetricsRegistry;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(MetricsRegistry::new());
//! reg.accesses.inc();
//! reg.chain_len.record(17);
//! let snap = reg.snapshot();
//! assert_eq!(snap.accesses, 1);
//! assert_eq!(snap.chain_len.count, 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of buckets in a [`LogHistogram`]: bucket 0 holds value 0, bucket
/// `b >= 1` holds values with `ilog2(v) == b - 1`, i.e. `[2^(b-1), 2^b)`.
pub const LOG_BUCKETS: usize = 65;

/// A monotone event counter (`Relaxed` atomics; ~1 ns per increment).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (`Relaxed` store/load). Unlike a [`Counter`] it
/// can move both ways — used for live readings such as the accuracy
/// watchdog's current MAE.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Overwrites the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` values (chain lengths, scan counts,
/// nanosecond latencies, candidate ages). Recording is 3 `Relaxed` RMWs,
/// plus a fourth only when the value sets a new maximum.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    match v.checked_ilog2() {
        None => 0,
        Some(b) => b as usize + 1,
    }
}

/// Inclusive upper bound of bucket `b` (the value reported for percentile
/// estimates).
#[inline]
#[must_use]
pub fn bucket_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // `fetch_max` is a compare-exchange loop; the max only grows.
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Values recorded so far.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Adds a snapshot's contents into this histogram (bucket counts,
    /// count and sum accumulate; max raises the running maximum). Used to
    /// carry metrics across a checkpoint/restore: restoring into a fresh
    /// registry makes the counters continue where the crashed run left
    /// off.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        for (b, &c) in self.buckets.iter().zip(&snap.buckets) {
            if c > 0 {
                b.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }
}

/// Non-atomic copy of a [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_of`]).
    pub buckets: [u64; LOG_BUCKETS],
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-resolution percentile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `p` (0 < p <= 1) of the total.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return bucket_bound(b).min(self.max);
            }
        }
        self.max
    }

    /// Percentile estimate with linear interpolation inside the winning
    /// log2 bucket. [`HistogramSnapshot::percentile`] quantizes to bucket
    /// upper bounds, so adjacent runs of the same workload can disagree by
    /// a full power of two; interpolating by rank position within the
    /// bucket smooths that out, which matters when two runs are *compared*
    /// (the load harness gates A/B p99 deltas on this). Still a bucket
    /// estimate — not more accurate, just continuous.
    #[must_use]
    pub fn percentile_interp(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lower = if b == 0 { 0 } else { bucket_bound(b - 1) + 1 };
                let upper = bucket_bound(b).min(self.max);
                let frac = (target - cum) as f64 / c as f64;
                return lower as f64 + frac * (upper.saturating_sub(lower)) as f64;
            }
            cum += c;
        }
        self.max as f64
    }

    /// Windowed difference `self - earlier` for two snapshots of the same
    /// histogram: bucket counts, count and sum subtract (saturating, so a
    /// mismatched pair degrades to zeros instead of wrapping); `max` stays
    /// the absolute maximum, since a windowed max is not recoverable from
    /// two cumulative snapshots. Used by the stats timeline.
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// `(bucket_upper_bound, count)` for occupied buckets.
    #[must_use]
    pub fn occupied(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_bound(b), c))
            .collect()
    }

    /// Serializes the snapshot into a `krr-ckpt-v1` payload.
    pub fn save_state(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_u64(self.count).put_u64(self.sum).put_u64(self.max);
        for &b in &self.buckets {
            enc.put_u64(b);
        }
    }

    /// Reconstructs a snapshot from a [`HistogramSnapshot::save_state`]
    /// payload.
    pub fn load_state(dec: &mut crate::checkpoint::Dec<'_>) -> std::io::Result<Self> {
        let count = dec.u64()?;
        let sum = dec.u64()?;
        let max = dec.u64()?;
        let mut buckets = [0u64; LOG_BUCKETS];
        for b in &mut buckets {
            *b = dec.u64()?;
        }
        Ok(Self {
            buckets,
            count,
            sum,
            max,
        })
    }
}

/// One tenant's observability row, published by a
/// [`crate::fleet::FleetArena`] at its publish cadence and carried through
/// every export format (JSON `tenant.rows`, `INFO # tenant`, OpenMetrics
/// `{tenant="..."}` labels).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant id.
    pub id: u64,
    /// References routed to this tenant's model.
    pub refs: u64,
    /// Distinct sampled objects resident in the tenant's model.
    pub resident: u64,
    /// Deep bytes of the tenant's model ([`crate::footprint`] accounting).
    pub resident_bytes: u64,
    /// Modeled miss ratio at the fleet's budget, in parts per million.
    pub miss_ratio_ppm: u64,
    /// Watchdog drift events recorded against this tenant.
    pub drift_events: u64,
    /// Latest watchdog MAE for this tenant, in parts per million (0 when
    /// the tenant is not shadowed).
    pub mae_ppm: u64,
    /// Whether the accuracy watchdog currently shadows this tenant (only
    /// the top-K tenants by traffic are).
    pub shadowed: bool,
}

impl TenantRow {
    /// The row as one JSON object — the element shape of the snapshot's
    /// `tenant.rows` array and of `/tenants`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"refs\":{},\"resident\":{},\"resident_bytes\":{},\"miss_ratio_ppm\":{},\"drift_events\":{},\"mae_ppm\":{},\"shadowed\":{}}}",
            self.id,
            self.refs,
            self.resident,
            self.resident_bytes,
            self.miss_ratio_ppm,
            self.drift_events,
            self.mae_ppm,
            self.shadowed
        )
    }
}

/// The shared registry: one instance observes a whole pipeline.
///
/// Sections (mirrored by [`MetricsSnapshot`] and the export formats):
///
/// * **model** — reference flow through [`crate::KrrModel`]: offered,
///   spatially filtered, hits, cold misses.
/// * **updater** — per-update work: swap-chain length and positions
///   examined by the configured update strategy.
/// * **latency** — sampled per-access wall time in nanoseconds.
/// * **shards** — per-shard access balance and histogram merge cost for
///   [`crate::ShardedKrr`].
/// * **pipeline** — the streaming route-once profiling pipeline
///   (`crate::pipeline`): batches routed, bounded-channel stalls, keys
///   hashed by the router (route-once ⇒ equals references routed),
///   router/worker busy time, and per-shard queue-depth high-water marks.
/// * **eviction** — simulator/store-side: evictions performed and the
///   age (idle time) of sampled eviction candidates.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// References offered to the model (`KrrModel::access` calls).
    pub accesses: Counter,
    /// References rejected by the spatial filter.
    pub spatial_rejected: Counter,
    /// Re-references (finite stack distance).
    pub hits: Counter,
    /// First references (cold misses).
    pub cold_misses: Counter,
    /// Swap-chain length per stack update.
    pub chain_len: LogHistogram,
    /// Stack positions examined per update (the updater's work).
    pub positions_scanned: LogHistogram,
    /// Sampled per-access latency in nanoseconds (~1/64 of accesses).
    pub access_ns: LogHistogram,
    /// Histogram merges performed by `ShardedKrr::mrc`.
    pub merges: Counter,
    /// Total nanoseconds spent merging shard histograms.
    pub merge_ns: Counter,
    /// Evictions performed by a simulator or store.
    pub evictions: Counter,
    /// Idle time / age of sampled eviction candidates.
    pub candidate_age: LogHistogram,
    /// Batches handed to shard workers by the pipeline router.
    pub pipeline_batches: Counter,
    /// Bounded-channel-full events seen by the router (back-pressure: the
    /// router had to block until a worker drained a batch).
    pub pipeline_stalls: Counter,
    /// Keys hashed while routing. The streaming pipeline hashes each
    /// reference exactly once, so after a pipeline run this equals the
    /// reference count N — the legacy rescan path records T·N instead.
    pub pipeline_keys_hashed: Counter,
    /// Nanoseconds the router thread spent hashing, batching and sending.
    pub pipeline_router_busy_ns: Counter,
    /// Total nanoseconds workers spent draining batches into shard models.
    pub pipeline_worker_busy_ns: Counter,
    /// Times the router exhausted its spin budget and parked on a full
    /// worker ring (`crate::ring`) — sustained back-pressure, the SPSC
    /// analogue of a blocking channel send. Near zero in a healthy run.
    pub pipeline_router_parks: Counter,
    /// Times a worker parked on an empty batch ring (starvation: the
    /// router could not keep that worker fed).
    pub pipeline_worker_parks: Counter,
    /// Completed slot-buffer cycles summed over the router→worker rings
    /// (`pushes / capacity` per ring) — how hard the bounded transport was
    /// reused, the steady-state counterpart of allocating queue memory.
    pub pipeline_ring_wraps: Counter,
    /// Shadow-vs-KRR comparisons performed by the accuracy watchdog.
    pub watchdog_checks: Counter,
    /// References admitted into the watchdog's shadow Olken profiler.
    pub watchdog_shadow_refs: Counter,
    /// Checks whose MAE exceeded the configured drift threshold.
    pub watchdog_drift_events: Counter,
    /// Latest MAE between the KRR MRC and the shadow Olken MRC, in parts
    /// per million of miss ratio (MAE 0.0123 → 12300).
    pub watchdog_mae_ppm: Gauge,
    /// Deep bytes of every KRR stack (entries + key index), summed across
    /// shards; refreshed at footprint publish points (see
    /// [`crate::footprint`]).
    pub footprint_stack_bytes: Gauge,
    /// Deep bytes of the stack-distance histograms, summed across shards.
    pub footprint_hist_bytes: Gauge,
    /// Deep bytes of the byte-level `sizeArray`s (0 in uniform-size mode).
    pub footprint_sizes_bytes: Gauge,
    /// Resident bytes of the streaming pipeline's routing buffers
    /// (`shards × batch_size × 24 B`), set when a pipeline run starts and
    /// retaining the most recent run's value.
    pub footprint_pipeline_bytes: Gauge,
    /// Deep bytes of the accuracy watchdog's shadow Olken profiler.
    pub footprint_shadow_bytes: Gauge,
    /// Sum of every published footprint gauge — the profiler's modeled
    /// space cost (§5.6–5.7).
    pub footprint_total_bytes: Gauge,
    /// Live heap bytes from the counting allocator (0 unless the
    /// `alloc-stats` feature is on and [`crate::heap::CountingAlloc`] is
    /// installed).
    pub heap_live_bytes: Gauge,
    /// Peak heap bytes from the counting allocator (same caveat).
    pub heap_peak_bytes: Gauge,
    shard_accesses: OnceLock<Box<[Counter]>>,
    queue_hwm: OnceLock<Box<[AtomicU64]>>,
    ring_hwm: OnceLock<Box<[AtomicU64]>>,
    shard_resident: OnceLock<Box<[AtomicU64]>>,
    shard_depth: OnceLock<Box<[AtomicU64]>>,
    // Per-tenant rows, replaced wholesale by a fleet arena at its publish
    // cadence — Mutex, not atomics, because this is never on the access
    // hot path.
    tenant_rows: Mutex<Vec<TenantRow>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `n` per-shard access counters and queue-depth high-water
    /// marks. First caller wins; later calls with a different count are
    /// ignored (the registry observes one sharded pipeline).
    pub fn init_shards(&self, n: usize) {
        let _ = self
            .shard_accesses
            .set((0..n).map(|_| Counter::new()).collect());
        let _ = self
            .queue_hwm
            .set((0..n).map(|_| AtomicU64::new(0)).collect());
        let _ = self
            .shard_resident
            .set((0..n).map(|_| AtomicU64::new(0)).collect());
        let _ = self
            .shard_depth
            .set((0..n).map(|_| AtomicU64::new(0)).collect());
    }

    /// Records an access routed to shard `i` (no-op before
    /// [`MetricsRegistry::init_shards`]).
    #[inline]
    pub fn shard_access(&self, i: usize) {
        self.shard_access_n(i, 1);
    }

    /// Records `n` accesses routed to shard `i` — the batched pipeline
    /// counts a whole batch with one RMW instead of one per reference.
    #[inline]
    pub fn shard_access_n(&self, i: usize, n: u64) {
        if let Some(shards) = self.shard_accesses.get() {
            if let Some(c) = shards.get(i) {
                c.add(n);
            }
        }
    }

    /// Raises shard `i`'s queue-depth high-water mark to `depth` if it is a
    /// new maximum (no-op before [`MetricsRegistry::init_shards`]). `depth`
    /// is the number of batches in flight for that shard after a send.
    #[inline]
    pub fn record_queue_depth(&self, i: usize, depth: u64) {
        if let Some(hwm) = self.queue_hwm.get() {
            if let Some(a) = hwm.get(i) {
                a.fetch_max(depth, Ordering::Relaxed);
            }
        }
    }

    /// Per-shard queue-depth high-water marks (empty before `init_shards`).
    #[must_use]
    pub fn queue_depth_hwm(&self) -> Vec<u64> {
        self.queue_hwm
            .get()
            .map(|s| s.iter().map(|a| a.load(Ordering::Relaxed)).collect())
            .unwrap_or_default()
    }

    /// Allocates `n` per-*worker* ring-occupancy high-water marks (one per
    /// router→worker SPSC ring, unlike the per-*shard* queue gauges).
    /// First caller wins, like [`MetricsRegistry::init_shards`].
    pub fn init_rings(&self, n: usize) {
        let _ = self
            .ring_hwm
            .set((0..n).map(|_| AtomicU64::new(0)).collect());
    }

    /// Raises worker `w`'s ring-occupancy high-water mark to `depth` if it
    /// is a new maximum (no-op before [`MetricsRegistry::init_rings`]).
    /// The pipeline publishes each ring's producer-side observation when a
    /// run finishes.
    #[inline]
    pub fn record_ring_depth(&self, w: usize, depth: u64) {
        if let Some(hwm) = self.ring_hwm.get() {
            if let Some(a) = hwm.get(w) {
                a.fetch_max(depth, Ordering::Relaxed);
            }
        }
    }

    /// Per-worker ring-occupancy high-water marks (empty before
    /// `init_rings`).
    #[must_use]
    pub fn ring_depth_hwm(&self) -> Vec<u64> {
        self.ring_hwm
            .get()
            .map(|s| s.iter().map(|a| a.load(Ordering::Relaxed)).collect())
            .unwrap_or_default()
    }

    /// Per-shard access counts (empty before `init_shards`).
    #[must_use]
    pub fn shard_counts(&self) -> Vec<u64> {
        self.shard_accesses
            .get()
            .map(|s| s.iter().map(Counter::get).collect())
            .unwrap_or_default()
    }

    /// Sets shard `i`'s resident-object gauge — the number of distinct
    /// objects its KRR stack currently tracks (no-op before
    /// [`MetricsRegistry::init_shards`]). Workers publish this at batch
    /// boundaries; the sequential path after every access.
    #[inline]
    pub fn set_shard_resident(&self, i: usize, objects: u64) {
        if let Some(res) = self.shard_resident.get() {
            if let Some(a) = res.get(i) {
                a.store(objects, Ordering::Relaxed);
            }
        }
    }

    /// Raises shard `i`'s stack-depth high-water mark to `depth` — the
    /// deepest 1-based stack position a re-reference has hit on that shard
    /// (no-op before [`MetricsRegistry::init_shards`]).
    #[inline]
    pub fn record_shard_depth(&self, i: usize, depth: u64) {
        if let Some(d) = self.shard_depth.get() {
            if let Some(a) = d.get(i) {
                a.fetch_max(depth, Ordering::Relaxed);
            }
        }
    }

    /// Replaces the per-tenant observability rows wholesale. Called by a
    /// [`crate::fleet::FleetArena`] when it publishes (batch boundaries /
    /// refresh cadence), never per access.
    pub fn set_tenant_rows(&self, rows: Vec<TenantRow>) {
        *self.tenant_rows.lock().expect("tenant rows poisoned") = rows;
    }

    /// Copy of the current per-tenant rows (empty without a fleet arena).
    #[must_use]
    pub fn tenant_rows(&self) -> Vec<TenantRow> {
        self.tenant_rows
            .lock()
            .expect("tenant rows poisoned")
            .clone()
    }

    /// Per-shard resident-object gauges (empty before `init_shards`).
    #[must_use]
    pub fn shard_resident(&self) -> Vec<u64> {
        self.shard_resident
            .get()
            .map(|s| s.iter().map(|a| a.load(Ordering::Relaxed)).collect())
            .unwrap_or_default()
    }

    /// Per-shard stack-depth high-water marks (empty before `init_shards`).
    #[must_use]
    pub fn shard_depth_hwm(&self) -> Vec<u64> {
        self.shard_depth
            .get()
            .map(|s| s.iter().map(|a| a.load(Ordering::Relaxed)).collect())
            .unwrap_or_default()
    }

    /// Publishes a footprint breakdown (see [`crate::footprint`]) into the
    /// memory gauges. Recognized part labels map onto the dedicated gauges
    /// (`stack_entries`/`stack_index`/`stack_scratch` → stack,
    /// `histogram` → hist, `size_array` → sizes, `shadow_*` → shadow); a
    /// gauge is only overwritten when its labels appear in the report, so
    /// independent publishers (the profiler, the watchdog's shadow) don't
    /// stomp each other. The total gauge is recomputed as the sum of the
    /// five component gauges after the update, and the heap gauges are
    /// refreshed from [`crate::heap`] on every publish.
    pub fn publish_footprint(&self, report: &crate::footprint::FootprintReport) {
        let has = |label: &str| report.parts().iter().any(|&(l, _)| l == label);
        if has("stack_entries") || has("stack_index") || has("stack_scratch") {
            let stack = report.get("stack_entries")
                + report.get("stack_index")
                + report.get("stack_scratch");
            self.footprint_stack_bytes.set(stack as u64);
        }
        if has("histogram") {
            self.footprint_hist_bytes
                .set(report.get("histogram") as u64);
        }
        if has("size_array") {
            self.footprint_sizes_bytes
                .set(report.get("size_array") as u64);
        }
        let shadow_parts: Vec<_> = report
            .parts()
            .iter()
            .filter(|(l, _)| l.starts_with("shadow_"))
            .collect();
        if !shadow_parts.is_empty() {
            let shadow: usize = shadow_parts.iter().map(|&&(_, b)| b).sum();
            self.footprint_shadow_bytes.set(shadow as u64);
        }
        self.footprint_total_bytes.set(
            self.footprint_stack_bytes.get()
                + self.footprint_hist_bytes.get()
                + self.footprint_sizes_bytes.get()
                + self.footprint_shadow_bytes.get()
                + self.footprint_pipeline_bytes.get(),
        );
        self.heap_live_bytes.set(crate::heap::live_bytes());
        self.heap_peak_bytes.set(crate::heap::peak_bytes());
    }

    /// Point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accesses: self.accesses.get(),
            spatial_rejected: self.spatial_rejected.get(),
            hits: self.hits.get(),
            cold_misses: self.cold_misses.get(),
            chain_len: self.chain_len.snapshot(),
            positions_scanned: self.positions_scanned.snapshot(),
            access_ns: self.access_ns.snapshot(),
            merges: self.merges.get(),
            merge_ns: self.merge_ns.get(),
            evictions: self.evictions.get(),
            candidate_age: self.candidate_age.snapshot(),
            shard_accesses: self.shard_counts(),
            pipeline_batches: self.pipeline_batches.get(),
            pipeline_stalls: self.pipeline_stalls.get(),
            pipeline_keys_hashed: self.pipeline_keys_hashed.get(),
            pipeline_router_busy_ns: self.pipeline_router_busy_ns.get(),
            pipeline_worker_busy_ns: self.pipeline_worker_busy_ns.get(),
            pipeline_router_parks: self.pipeline_router_parks.get(),
            pipeline_worker_parks: self.pipeline_worker_parks.get(),
            pipeline_ring_wraps: self.pipeline_ring_wraps.get(),
            pipeline_queue_hwm: self.queue_depth_hwm(),
            pipeline_ring_hwm: self.ring_depth_hwm(),
            watchdog_checks: self.watchdog_checks.get(),
            watchdog_shadow_refs: self.watchdog_shadow_refs.get(),
            watchdog_drift_events: self.watchdog_drift_events.get(),
            watchdog_mae_ppm: self.watchdog_mae_ppm.get(),
            shard_resident: self.shard_resident(),
            shard_depth_hwm: self.shard_depth_hwm(),
            footprint_stack_bytes: self.footprint_stack_bytes.get(),
            footprint_hist_bytes: self.footprint_hist_bytes.get(),
            footprint_sizes_bytes: self.footprint_sizes_bytes.get(),
            footprint_pipeline_bytes: self.footprint_pipeline_bytes.get(),
            footprint_shadow_bytes: self.footprint_shadow_bytes.get(),
            // The pipeline sets its component gauge directly between
            // publish_footprint calls, so the stored total can lag; a
            // scrape must never read total < the live parts.
            footprint_total_bytes: self.footprint_total_bytes.get().max(
                self.footprint_stack_bytes.get()
                    + self.footprint_hist_bytes.get()
                    + self.footprint_sizes_bytes.get()
                    + self.footprint_shadow_bytes.get()
                    + self.footprint_pipeline_bytes.get(),
            ),
            heap_live_bytes: self.heap_live_bytes.get(),
            heap_peak_bytes: self.heap_peak_bytes.get(),
            tenant_rows: self.tenant_rows(),
        }
    }

    /// Adds a snapshot's contents into this registry: counters and
    /// histograms accumulate, gauges take the snapshot value, and the
    /// per-shard vectors claim `init_shards` at the snapshot's shard count
    /// before accumulating. Restoring a checkpointed
    /// [`MetricsSnapshot`] into a fresh registry this way makes every
    /// counter continue from where the interrupted run stopped.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        self.accesses.add(snap.accesses);
        self.spatial_rejected.add(snap.spatial_rejected);
        self.hits.add(snap.hits);
        self.cold_misses.add(snap.cold_misses);
        self.chain_len.absorb(&snap.chain_len);
        self.positions_scanned.absorb(&snap.positions_scanned);
        self.access_ns.absorb(&snap.access_ns);
        self.merges.add(snap.merges);
        self.merge_ns.add(snap.merge_ns);
        self.evictions.add(snap.evictions);
        self.candidate_age.absorb(&snap.candidate_age);
        self.pipeline_batches.add(snap.pipeline_batches);
        self.pipeline_stalls.add(snap.pipeline_stalls);
        self.pipeline_keys_hashed.add(snap.pipeline_keys_hashed);
        self.pipeline_router_busy_ns
            .add(snap.pipeline_router_busy_ns);
        self.pipeline_worker_busy_ns
            .add(snap.pipeline_worker_busy_ns);
        self.pipeline_router_parks.add(snap.pipeline_router_parks);
        self.pipeline_worker_parks.add(snap.pipeline_worker_parks);
        self.pipeline_ring_wraps.add(snap.pipeline_ring_wraps);
        if !snap.pipeline_ring_hwm.is_empty() {
            self.init_rings(snap.pipeline_ring_hwm.len());
            for (w, &d) in snap.pipeline_ring_hwm.iter().enumerate() {
                self.record_ring_depth(w, d);
            }
        }
        self.watchdog_checks.add(snap.watchdog_checks);
        self.watchdog_shadow_refs.add(snap.watchdog_shadow_refs);
        self.watchdog_drift_events.add(snap.watchdog_drift_events);
        self.watchdog_mae_ppm.set(snap.watchdog_mae_ppm);
        if !snap.shard_accesses.is_empty() {
            self.init_shards(snap.shard_accesses.len());
            for (i, &c) in snap.shard_accesses.iter().enumerate() {
                self.shard_access_n(i, c);
            }
        }
        for (i, &d) in snap.pipeline_queue_hwm.iter().enumerate() {
            self.record_queue_depth(i, d);
        }
        if !snap.shard_resident.is_empty() {
            self.init_shards(snap.shard_resident.len());
            for (i, &r) in snap.shard_resident.iter().enumerate() {
                self.set_shard_resident(i, r);
            }
        }
        for (i, &d) in snap.shard_depth_hwm.iter().enumerate() {
            self.record_shard_depth(i, d);
        }
        self.footprint_stack_bytes.set(snap.footprint_stack_bytes);
        self.footprint_hist_bytes.set(snap.footprint_hist_bytes);
        self.footprint_sizes_bytes.set(snap.footprint_sizes_bytes);
        self.footprint_pipeline_bytes
            .set(snap.footprint_pipeline_bytes);
        self.footprint_shadow_bytes.set(snap.footprint_shadow_bytes);
        self.footprint_total_bytes.set(snap.footprint_total_bytes);
        self.heap_live_bytes.set(snap.heap_live_bytes);
        self.heap_peak_bytes.set(snap.heap_peak_bytes);
        if !snap.tenant_rows.is_empty() {
            self.set_tenant_rows(snap.tenant_rows.clone());
        }
    }
}

/// Non-atomic copy of a [`MetricsRegistry`], exportable as `INFO` text or
/// JSON.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// See [`MetricsRegistry::accesses`].
    pub accesses: u64,
    /// See [`MetricsRegistry::spatial_rejected`].
    pub spatial_rejected: u64,
    /// See [`MetricsRegistry::hits`].
    pub hits: u64,
    /// See [`MetricsRegistry::cold_misses`].
    pub cold_misses: u64,
    /// See [`MetricsRegistry::chain_len`].
    pub chain_len: HistogramSnapshot,
    /// See [`MetricsRegistry::positions_scanned`].
    pub positions_scanned: HistogramSnapshot,
    /// See [`MetricsRegistry::access_ns`].
    pub access_ns: HistogramSnapshot,
    /// See [`MetricsRegistry::merges`].
    pub merges: u64,
    /// See [`MetricsRegistry::merge_ns`].
    pub merge_ns: u64,
    /// See [`MetricsRegistry::evictions`].
    pub evictions: u64,
    /// See [`MetricsRegistry::candidate_age`].
    pub candidate_age: HistogramSnapshot,
    /// Per-shard access counts (empty when unsharded).
    pub shard_accesses: Vec<u64>,
    /// See [`MetricsRegistry::pipeline_batches`].
    pub pipeline_batches: u64,
    /// See [`MetricsRegistry::pipeline_stalls`].
    pub pipeline_stalls: u64,
    /// See [`MetricsRegistry::pipeline_keys_hashed`].
    pub pipeline_keys_hashed: u64,
    /// See [`MetricsRegistry::pipeline_router_busy_ns`].
    pub pipeline_router_busy_ns: u64,
    /// See [`MetricsRegistry::pipeline_worker_busy_ns`].
    pub pipeline_worker_busy_ns: u64,
    /// See [`MetricsRegistry::pipeline_router_parks`].
    pub pipeline_router_parks: u64,
    /// See [`MetricsRegistry::pipeline_worker_parks`].
    pub pipeline_worker_parks: u64,
    /// See [`MetricsRegistry::pipeline_ring_wraps`].
    pub pipeline_ring_wraps: u64,
    /// Per-shard queue-depth high-water marks (empty when unsharded).
    pub pipeline_queue_hwm: Vec<u64>,
    /// Per-worker ring-occupancy high-water marks (empty before a ring
    /// pipeline run).
    pub pipeline_ring_hwm: Vec<u64>,
    /// See [`MetricsRegistry::watchdog_checks`].
    pub watchdog_checks: u64,
    /// See [`MetricsRegistry::watchdog_shadow_refs`].
    pub watchdog_shadow_refs: u64,
    /// See [`MetricsRegistry::watchdog_drift_events`].
    pub watchdog_drift_events: u64,
    /// See [`MetricsRegistry::watchdog_mae_ppm`].
    pub watchdog_mae_ppm: u64,
    /// Per-shard resident-object gauges (empty when unsharded).
    pub shard_resident: Vec<u64>,
    /// Per-shard stack-depth high-water marks (empty when unsharded).
    pub shard_depth_hwm: Vec<u64>,
    /// See [`MetricsRegistry::footprint_stack_bytes`].
    pub footprint_stack_bytes: u64,
    /// See [`MetricsRegistry::footprint_hist_bytes`].
    pub footprint_hist_bytes: u64,
    /// See [`MetricsRegistry::footprint_sizes_bytes`].
    pub footprint_sizes_bytes: u64,
    /// See [`MetricsRegistry::footprint_pipeline_bytes`].
    pub footprint_pipeline_bytes: u64,
    /// See [`MetricsRegistry::footprint_shadow_bytes`].
    pub footprint_shadow_bytes: u64,
    /// See [`MetricsRegistry::footprint_total_bytes`].
    pub footprint_total_bytes: u64,
    /// See [`MetricsRegistry::heap_live_bytes`].
    pub heap_live_bytes: u64,
    /// See [`MetricsRegistry::heap_peak_bytes`].
    pub heap_peak_bytes: u64,
    /// Per-tenant observability rows (empty without a fleet arena).
    pub tenant_rows: Vec<TenantRow>,
}

impl MetricsSnapshot {
    /// Sum of every tenant row's reference count.
    #[must_use]
    pub fn tenant_refs(&self) -> u64 {
        self.tenant_rows.iter().map(|t| t.refs).sum()
    }

    /// Number of tenants with at least one recorded drift event.
    #[must_use]
    pub fn tenant_drifted(&self) -> u64 {
        self.tenant_rows
            .iter()
            .filter(|t| t.drift_events > 0)
            .count() as u64
    }

    /// Number of tenants currently shadowed by the accuracy watchdog.
    #[must_use]
    pub fn tenant_shadowed(&self) -> u64 {
        self.tenant_rows.iter().filter(|t| t.shadowed).count() as u64
    }

    /// `(total, mean, max)` rollup of per-tenant resident bytes — the
    /// `memory.tenant.*` gauges.
    #[must_use]
    pub fn tenant_memory(&self) -> (u64, u64, u64) {
        let total: u64 = self.tenant_rows.iter().map(|t| t.resident_bytes).sum();
        let max = self
            .tenant_rows
            .iter()
            .map(|t| t.resident_bytes)
            .max()
            .unwrap_or(0);
        let mean = if self.tenant_rows.is_empty() {
            0
        } else {
            total / self.tenant_rows.len() as u64
        };
        (total, mean, max)
    }

    /// Largest relative deviation of any shard's access count from the
    /// per-shard mean (0 = perfectly balanced; `None` when unsharded or
    /// idle).
    #[must_use]
    pub fn shard_imbalance(&self) -> Option<f64> {
        if self.shard_accesses.len() < 2 {
            return None;
        }
        let total: u64 = self.shard_accesses.iter().sum();
        if total == 0 {
            return None;
        }
        let mean = total as f64 / self.shard_accesses.len() as f64;
        self.shard_accesses
            .iter()
            .map(|&c| (c as f64 - mean).abs() / mean)
            .fold(None, |acc: Option<f64>, d| {
                Some(acc.map_or(d, |a| a.max(d)))
            })
    }

    /// Renders Redis-`INFO`-style sections (`# section` headers,
    /// `key:value` lines, CRLF terminators) — the wire format of the
    /// mini-Redis `INFO`/`METRICS` command.
    #[must_use]
    pub fn render_info(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "# model\r\naccesses:{}\r\nspatial_rejected:{}\r\nhits:{}\r\ncold_misses:{}\r\n",
            self.accesses, self.spatial_rejected, self.hits, self.cold_misses
        );
        let hist = |s: &mut String, name: &str, h: &HistogramSnapshot| {
            let _ = write!(
                s,
                "{name}_count:{}\r\n{name}_mean:{:.2}\r\n{name}_p99:{}\r\n{name}_max:{}\r\n",
                h.count,
                h.mean(),
                h.percentile(0.99),
                h.max
            );
            let _ = write!(s, "{name}_buckets:");
            for (i, (bound, count)) in h.occupied().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{bound}={count}");
            }
            s.push_str("\r\n");
        };
        s.push_str("# updater\r\n");
        hist(&mut s, "chain_len", &self.chain_len);
        hist(&mut s, "positions_scanned", &self.positions_scanned);
        s.push_str("# latency\r\n");
        hist(&mut s, "access_ns", &self.access_ns);
        let _ = write!(
            s,
            "# shards\r\nshard_count:{}\r\nmerges:{}\r\nmerge_ns:{}\r\n",
            self.shard_accesses.len(),
            self.merges,
            self.merge_ns
        );
        let _ = write!(s, "shard_accesses:");
        for (i, c) in self.shard_accesses.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{c}");
        }
        s.push_str("\r\n");
        if let Some(im) = self.shard_imbalance() {
            let _ = write!(s, "shard_imbalance:{im:.4}\r\n");
        }
        let list = |s: &mut String, name: &str, vals: &[u64]| {
            let _ = write!(s, "{name}:");
            for (i, c) in vals.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{c}");
            }
            s.push_str("\r\n");
        };
        list(&mut s, "shard_resident", &self.shard_resident);
        list(&mut s, "shard_depth_hwm", &self.shard_depth_hwm);
        let _ = write!(
            s,
            "# pipeline\r\nbatches:{}\r\nstalls:{}\r\nkeys_hashed:{}\r\nrouter_busy_ns:{}\r\nworker_busy_ns:{}\r\n",
            self.pipeline_batches,
            self.pipeline_stalls,
            self.pipeline_keys_hashed,
            self.pipeline_router_busy_ns,
            self.pipeline_worker_busy_ns
        );
        let _ = write!(s, "queue_depth_hwm:");
        for (i, c) in self.pipeline_queue_hwm.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{c}");
        }
        s.push_str("\r\n");
        let _ = write!(
            s,
            "ring_wraps:{}\r\nring_router_parks:{}\r\nring_worker_parks:{}\r\n",
            self.pipeline_ring_wraps, self.pipeline_router_parks, self.pipeline_worker_parks
        );
        list(&mut s, "ring_depth_hwm", &self.pipeline_ring_hwm);
        let _ = write!(
            s,
            "# watchdog\r\nchecks:{}\r\nshadow_refs:{}\r\ndrift_events:{}\r\nmae_ppm:{}\r\n",
            self.watchdog_checks,
            self.watchdog_shadow_refs,
            self.watchdog_drift_events,
            self.watchdog_mae_ppm
        );
        let _ = write!(
            s,
            "# tenant\r\ncount:{}\r\nrefs:{}\r\ndrifted:{}\r\nshadowed:{}\r\n",
            self.tenant_rows.len(),
            self.tenant_refs(),
            self.tenant_drifted(),
            self.tenant_shadowed()
        );
        let (t_total, t_mean, t_max) = self.tenant_memory();
        let _ = write!(
            s,
            "# memory\r\nstack_bytes:{}\r\nhist_bytes:{}\r\nsizes_bytes:{}\r\npipeline_bytes:{}\r\nshadow_bytes:{}\r\ntotal_bytes:{}\r\nheap_live_bytes:{}\r\nheap_peak_bytes:{}\r\ntenant_count:{}\r\ntenant_total_bytes:{t_total}\r\ntenant_mean_bytes:{t_mean}\r\ntenant_max_bytes:{t_max}\r\n",
            self.footprint_stack_bytes,
            self.footprint_hist_bytes,
            self.footprint_sizes_bytes,
            self.footprint_pipeline_bytes,
            self.footprint_shadow_bytes,
            self.footprint_total_bytes,
            self.heap_live_bytes,
            self.heap_peak_bytes,
            self.tenant_rows.len()
        );
        let _ = write!(s, "# eviction\r\nevictions:{}\r\n", self.evictions);
        hist(&mut s, "candidate_age", &self.candidate_age);
        s
    }

    /// Renders the snapshot as a single JSON object (schema in DESIGN.md).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        fn hist_json(h: &HistogramSnapshot) -> String {
            let mut s = String::from("{");
            let _ = write!(
                s,
                "\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.percentile(0.99)
            );
            for (i, (bound, count)) in h.occupied().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{bound},{count}]");
            }
            s.push_str("]}");
            s
        }
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"schema\":\"krr-metrics-v1\",\"model\":{{\"accesses\":{},\"spatial_rejected\":{},\"hits\":{},\"cold_misses\":{}}},",
            self.accesses, self.spatial_rejected, self.hits, self.cold_misses
        );
        let _ = write!(
            s,
            "\"updater\":{{\"chain_len\":{},\"positions_scanned\":{}}},",
            hist_json(&self.chain_len),
            hist_json(&self.positions_scanned)
        );
        let _ = write!(
            s,
            "\"latency\":{{\"access_ns\":{}}},",
            hist_json(&self.access_ns)
        );
        let _ = write!(
            s,
            "\"shards\":{{\"merges\":{},\"merge_ns\":{},\"accesses\":[",
            self.merges, self.merge_ns
        );
        let arr = |s: &mut String, vals: &[u64]| {
            for (i, c) in vals.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{c}");
            }
        };
        arr(&mut s, &self.shard_accesses);
        s.push_str("],\"resident\":[");
        arr(&mut s, &self.shard_resident);
        s.push_str("],\"depth_hwm\":[");
        arr(&mut s, &self.shard_depth_hwm);
        s.push_str("]},");
        let _ = write!(
            s,
            "\"pipeline\":{{\"batches\":{},\"stalls\":{},\"keys_hashed\":{},\"router_busy_ns\":{},\"worker_busy_ns\":{},\"queue_depth_hwm\":[",
            self.pipeline_batches,
            self.pipeline_stalls,
            self.pipeline_keys_hashed,
            self.pipeline_router_busy_ns,
            self.pipeline_worker_busy_ns
        );
        for (i, c) in self.pipeline_queue_hwm.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{c}");
        }
        let _ = write!(
            s,
            "],\"ring\":{{\"wraps\":{},\"router_parks\":{},\"worker_parks\":{},\"depth_hwm\":[",
            self.pipeline_ring_wraps, self.pipeline_router_parks, self.pipeline_worker_parks
        );
        arr(&mut s, &self.pipeline_ring_hwm);
        s.push_str("]}},");
        let _ = write!(
            s,
            "\"watchdog\":{{\"checks\":{},\"shadow_refs\":{},\"drift_events\":{},\"mae_ppm\":{}}},",
            self.watchdog_checks,
            self.watchdog_shadow_refs,
            self.watchdog_drift_events,
            self.watchdog_mae_ppm
        );
        let _ = write!(
            s,
            "\"tenant\":{{\"count\":{},\"refs\":{},\"drifted\":{},\"shadowed\":{},\"rows\":[",
            self.tenant_rows.len(),
            self.tenant_refs(),
            self.tenant_drifted(),
            self.tenant_shadowed()
        );
        for (i, t) in self.tenant_rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json());
        }
        s.push_str("]},");
        let (t_total, t_mean, t_max) = self.tenant_memory();
        let _ = write!(
            s,
            "\"memory\":{{\"stack_bytes\":{},\"hist_bytes\":{},\"sizes_bytes\":{},\"pipeline_bytes\":{},\"shadow_bytes\":{},\"total_bytes\":{},\"heap_live_bytes\":{},\"heap_peak_bytes\":{},\"tenant\":{{\"count\":{},\"total_bytes\":{t_total},\"mean_bytes\":{t_mean},\"max_bytes\":{t_max}}}}},",
            self.footprint_stack_bytes,
            self.footprint_hist_bytes,
            self.footprint_sizes_bytes,
            self.footprint_pipeline_bytes,
            self.footprint_shadow_bytes,
            self.footprint_total_bytes,
            self.heap_live_bytes,
            self.heap_peak_bytes,
            self.tenant_rows.len()
        );
        let _ = write!(
            s,
            "\"eviction\":{{\"evictions\":{},\"candidate_age\":{}}}",
            self.evictions,
            hist_json(&self.candidate_age)
        );
        s.push('}');
        s
    }

    /// Serializes the snapshot into a `krr-ckpt-v1` payload (the `METR`
    /// checkpoint section).
    pub fn save_state(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_u64(self.accesses)
            .put_u64(self.spatial_rejected)
            .put_u64(self.hits)
            .put_u64(self.cold_misses);
        self.chain_len.save_state(enc);
        self.positions_scanned.save_state(enc);
        self.access_ns.save_state(enc);
        enc.put_u64(self.merges)
            .put_u64(self.merge_ns)
            .put_u64(self.evictions);
        self.candidate_age.save_state(enc);
        enc.put_u64(self.shard_accesses.len() as u64);
        for &c in &self.shard_accesses {
            enc.put_u64(c);
        }
        enc.put_u64(self.pipeline_batches)
            .put_u64(self.pipeline_stalls)
            .put_u64(self.pipeline_keys_hashed)
            .put_u64(self.pipeline_router_busy_ns)
            .put_u64(self.pipeline_worker_busy_ns);
        enc.put_u64(self.pipeline_queue_hwm.len() as u64);
        for &c in &self.pipeline_queue_hwm {
            enc.put_u64(c);
        }
        enc.put_u64(self.watchdog_checks)
            .put_u64(self.watchdog_shadow_refs)
            .put_u64(self.watchdog_drift_events)
            .put_u64(self.watchdog_mae_ppm);
        enc.put_u64(self.shard_resident.len() as u64);
        for &c in &self.shard_resident {
            enc.put_u64(c);
        }
        enc.put_u64(self.shard_depth_hwm.len() as u64);
        for &c in &self.shard_depth_hwm {
            enc.put_u64(c);
        }
        enc.put_u64(self.footprint_stack_bytes)
            .put_u64(self.footprint_hist_bytes)
            .put_u64(self.footprint_sizes_bytes)
            .put_u64(self.footprint_pipeline_bytes)
            .put_u64(self.footprint_shadow_bytes)
            .put_u64(self.footprint_total_bytes)
            .put_u64(self.heap_live_bytes)
            .put_u64(self.heap_peak_bytes);
        enc.put_u64(self.tenant_rows.len() as u64);
        for t in &self.tenant_rows {
            enc.put_u64(t.id)
                .put_u64(t.refs)
                .put_u64(t.resident)
                .put_u64(t.resident_bytes)
                .put_u64(t.miss_ratio_ppm)
                .put_u64(t.drift_events)
                .put_u64(t.mae_ppm)
                .put_u64(u64::from(t.shadowed));
        }
        // Ring-transport counters: appended at the end of the METR payload
        // (the grow-at-end convention this section has always used).
        enc.put_u64(self.pipeline_router_parks)
            .put_u64(self.pipeline_worker_parks)
            .put_u64(self.pipeline_ring_wraps);
        enc.put_u64(self.pipeline_ring_hwm.len() as u64);
        for &d in &self.pipeline_ring_hwm {
            enc.put_u64(d);
        }
    }

    /// Reconstructs a snapshot from a [`MetricsSnapshot::save_state`]
    /// payload.
    pub fn load_state(dec: &mut crate::checkpoint::Dec<'_>) -> std::io::Result<Self> {
        let accesses = dec.u64()?;
        let spatial_rejected = dec.u64()?;
        let hits = dec.u64()?;
        let cold_misses = dec.u64()?;
        let chain_len = HistogramSnapshot::load_state(dec)?;
        let positions_scanned = HistogramSnapshot::load_state(dec)?;
        let access_ns = HistogramSnapshot::load_state(dec)?;
        let merges = dec.u64()?;
        let merge_ns = dec.u64()?;
        let evictions = dec.u64()?;
        let candidate_age = HistogramSnapshot::load_state(dec)?;
        let mut shard_accesses = Vec::new();
        for _ in 0..dec.u64()? {
            shard_accesses.push(dec.u64()?);
        }
        let pipeline_batches = dec.u64()?;
        let pipeline_stalls = dec.u64()?;
        let pipeline_keys_hashed = dec.u64()?;
        let pipeline_router_busy_ns = dec.u64()?;
        let pipeline_worker_busy_ns = dec.u64()?;
        let mut pipeline_queue_hwm = Vec::new();
        for _ in 0..dec.u64()? {
            pipeline_queue_hwm.push(dec.u64()?);
        }
        Ok(Self {
            accesses,
            spatial_rejected,
            hits,
            cold_misses,
            chain_len,
            positions_scanned,
            access_ns,
            merges,
            merge_ns,
            evictions,
            candidate_age,
            shard_accesses,
            pipeline_batches,
            pipeline_stalls,
            pipeline_keys_hashed,
            pipeline_router_busy_ns,
            pipeline_worker_busy_ns,
            pipeline_queue_hwm,
            watchdog_checks: dec.u64()?,
            watchdog_shadow_refs: dec.u64()?,
            watchdog_drift_events: dec.u64()?,
            watchdog_mae_ppm: dec.u64()?,
            shard_resident: {
                let mut v = Vec::new();
                for _ in 0..dec.u64()? {
                    v.push(dec.u64()?);
                }
                v
            },
            shard_depth_hwm: {
                let mut v = Vec::new();
                for _ in 0..dec.u64()? {
                    v.push(dec.u64()?);
                }
                v
            },
            footprint_stack_bytes: dec.u64()?,
            footprint_hist_bytes: dec.u64()?,
            footprint_sizes_bytes: dec.u64()?,
            footprint_pipeline_bytes: dec.u64()?,
            footprint_shadow_bytes: dec.u64()?,
            footprint_total_bytes: dec.u64()?,
            heap_live_bytes: dec.u64()?,
            heap_peak_bytes: dec.u64()?,
            tenant_rows: {
                let mut v = Vec::new();
                for _ in 0..dec.u64()? {
                    v.push(TenantRow {
                        id: dec.u64()?,
                        refs: dec.u64()?,
                        resident: dec.u64()?,
                        resident_bytes: dec.u64()?,
                        miss_ratio_ppm: dec.u64()?,
                        drift_events: dec.u64()?,
                        mae_ppm: dec.u64()?,
                        shadowed: dec.u64()? != 0,
                    });
                }
                v
            },
            // Struct-literal fields decode in written order, so these read
            // the ring counters appended at the payload's end.
            pipeline_router_parks: dec.u64()?,
            pipeline_worker_parks: dec.u64()?,
            pipeline_ring_wraps: dec.u64()?,
            pipeline_ring_hwm: {
                let mut v = Vec::new();
                for _ in 0..dec.u64()? {
                    v.push(dec.u64()?);
                }
                v
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound is >= the value.
        for v in [0u64, 1, 2, 5, 63, 64, 1_000_000] {
            assert!(bucket_bound(bucket_of(v)) >= v, "v={v}");
        }
    }

    #[test]
    fn histogram_mean_and_percentile() {
        let h = LogHistogram::new();
        for v in [1u64, 1, 2, 4, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 108);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 21.6).abs() < 1e-9);
        // p50 lands in the bucket of the 3rd value (2 -> bound 3).
        assert_eq!(s.percentile(0.5), 3);
        // p100 caps at the observed max, not the bucket bound.
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(
            HistogramSnapshot {
                buckets: [0; LOG_BUCKETS],
                count: 0,
                sum: 0,
                max: 0
            }
            .percentile(0.5),
            0
        );
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for i in 0..per {
                        reg.accesses.inc();
                        reg.chain_len.record(i % 37);
                    }
                });
            }
        });
        let s = reg.snapshot();
        assert_eq!(s.accesses, threads * per);
        assert_eq!(s.chain_len.count, threads * per);
        assert_eq!(s.chain_len.buckets.iter().sum::<u64>(), threads * per);
    }

    #[test]
    fn shard_counters_and_imbalance() {
        let reg = MetricsRegistry::new();
        assert!(reg.shard_counts().is_empty());
        reg.shard_access(0); // no-op before init
        reg.init_shards(4);
        reg.init_shards(9); // ignored
        for i in 0..4 {
            for _ in 0..=(i * 10) {
                reg.shard_access(i);
            }
        }
        reg.shard_access(99); // out of range: ignored
        let s = reg.snapshot();
        assert_eq!(s.shard_accesses, vec![1, 11, 21, 31]);
        let im = s.shard_imbalance().unwrap();
        assert!(im > 0.5, "imbalance {im}");
        let balanced = MetricsSnapshot {
            shard_accesses: vec![10, 10],
            ..s
        };
        assert_eq!(balanced.shard_imbalance(), Some(0.0));
    }

    #[test]
    fn queue_depth_high_water_marks() {
        let reg = MetricsRegistry::new();
        reg.record_queue_depth(0, 5); // no-op before init
        assert!(reg.queue_depth_hwm().is_empty());
        reg.init_shards(3);
        reg.record_queue_depth(0, 2);
        reg.record_queue_depth(0, 7);
        reg.record_queue_depth(0, 4); // below the mark: ignored
        reg.record_queue_depth(2, 1);
        reg.record_queue_depth(9, 3); // out of range: ignored
        assert_eq!(reg.queue_depth_hwm(), vec![7, 0, 1]);
        reg.shard_access_n(1, 40);
        assert_eq!(reg.shard_counts(), vec![0, 40, 0]);
        let snap = reg.snapshot();
        assert_eq!(snap.pipeline_queue_hwm, vec![7, 0, 1]);
    }

    #[test]
    fn gauge_overwrites_both_ways() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(500);
        assert_eq!(g.get(), 500);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_delta_is_windowed() {
        let h = LogHistogram::new();
        h.record(4);
        h.record(100);
        let early = h.snapshot();
        h.record(2);
        h.record(2);
        let late = h.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 4);
        assert_eq!(d.buckets[bucket_of(2)], 2);
        assert_eq!(d.buckets[bucket_of(100)], 0);
        // max stays absolute — the window's own max is unrecoverable.
        assert_eq!(d.max, 100);
        // Degenerate (swapped) pair saturates to zero instead of wrapping.
        let swapped = early.delta(&late);
        assert_eq!(swapped.count, 0);
        assert_eq!(swapped.sum, 0);
    }

    #[test]
    fn watchdog_fields_flow_to_renderings() {
        let reg = MetricsRegistry::new();
        reg.watchdog_checks.add(4);
        reg.watchdog_shadow_refs.add(123);
        reg.watchdog_drift_events.inc();
        reg.watchdog_mae_ppm.set(7700);
        let snap = reg.snapshot();
        assert_eq!(snap.watchdog_checks, 4);
        assert_eq!(snap.watchdog_mae_ppm, 7700);
        let info = snap.render_info();
        assert!(info.contains("# watchdog"));
        assert!(info.contains("mae_ppm:7700"));
        assert!(info.contains("drift_events:1"));
        let json = snap.to_json();
        assert!(json.contains(
            "\"watchdog\":{\"checks\":4,\"shadow_refs\":123,\"drift_events\":1,\"mae_ppm\":7700}"
        ));
    }

    #[test]
    fn snapshot_save_load_absorb_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.accesses.add(42);
        reg.hits.add(30);
        reg.chain_len.record(9);
        reg.chain_len.record(100);
        reg.watchdog_mae_ppm.set(1234);
        reg.init_shards(3);
        reg.shard_access_n(1, 17);
        reg.record_queue_depth(2, 5);
        reg.set_shard_resident(1, 9);
        reg.record_shard_depth(1, 33);
        reg.footprint_total_bytes.set(4096);
        reg.pipeline_router_parks.add(2);
        reg.pipeline_worker_parks.add(6);
        reg.pipeline_ring_wraps.add(11);
        reg.init_rings(2);
        reg.record_ring_depth(1, 8);
        let snap = reg.snapshot();

        let mut enc = crate::checkpoint::Enc::new();
        snap.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let loaded = MetricsSnapshot::load_state(&mut crate::checkpoint::Dec::new(&bytes)).unwrap();

        // Absorb into a fresh registry: counters continue where they were.
        let fresh = MetricsRegistry::new();
        fresh.absorb(&loaded);
        fresh.accesses.inc();
        let after = fresh.snapshot();
        assert_eq!(after.accesses, 43);
        assert_eq!(after.hits, 30);
        assert_eq!(after.chain_len.count, 2);
        assert_eq!(after.chain_len.sum, 109);
        assert_eq!(after.chain_len.max, 100);
        assert_eq!(after.watchdog_mae_ppm, 1234);
        assert_eq!(after.shard_accesses, vec![0, 17, 0]);
        assert_eq!(after.pipeline_queue_hwm, vec![0, 0, 5]);
        assert_eq!(after.shard_resident, vec![0, 9, 0]);
        assert_eq!(after.shard_depth_hwm, vec![0, 33, 0]);
        assert_eq!(after.footprint_total_bytes, 4096);
        assert_eq!(after.pipeline_router_parks, 2);
        assert_eq!(after.pipeline_worker_parks, 6);
        assert_eq!(after.pipeline_ring_wraps, 11);
        assert_eq!(after.pipeline_ring_hwm, vec![0, 8]);
    }

    #[test]
    fn ring_depth_high_water_marks() {
        let reg = MetricsRegistry::new();
        reg.record_ring_depth(0, 5); // no-op before init
        assert!(reg.ring_depth_hwm().is_empty());
        reg.init_rings(2);
        reg.init_rings(7); // ignored: first caller wins
        reg.record_ring_depth(0, 3);
        reg.record_ring_depth(0, 9);
        reg.record_ring_depth(0, 4); // below the mark: ignored
        reg.record_ring_depth(5, 1); // out of range: ignored
        assert_eq!(reg.ring_depth_hwm(), vec![9, 0]);
        let snap = reg.snapshot();
        assert_eq!(snap.pipeline_ring_hwm, vec![9, 0]);
        let info = snap.render_info();
        assert!(info.contains("ring_depth_hwm:9,0"));
        let json = snap.to_json();
        assert!(json.contains(
            "\"ring\":{\"wraps\":0,\"router_parks\":0,\"worker_parks\":0,\"depth_hwm\":[9,0]}"
        ));
    }

    #[test]
    fn footprint_publish_maps_labels_onto_gauges() {
        let reg = MetricsRegistry::new();
        reg.footprint_pipeline_bytes.set(100);
        let mut r = crate::footprint::FootprintReport::new();
        r.add("stack_entries", 10)
            .add("stack_index", 20)
            .add("stack_scratch", 5)
            .add("histogram", 7)
            .add("size_array", 3)
            .add("shadow_tree", 40)
            .add("shadow_index", 2);
        reg.publish_footprint(&r);
        assert_eq!(reg.footprint_stack_bytes.get(), 35);
        assert_eq!(reg.footprint_hist_bytes.get(), 7);
        assert_eq!(reg.footprint_sizes_bytes.get(), 3);
        assert_eq!(reg.footprint_shadow_bytes.get(), 42);
        assert_eq!(reg.footprint_total_bytes.get(), 87 + 100);
        // A partial publish (shadow only) must not stomp the other gauges.
        let mut shadow_only = crate::footprint::FootprintReport::new();
        shadow_only.add("shadow_olken", 50);
        reg.publish_footprint(&shadow_only);
        assert_eq!(reg.footprint_stack_bytes.get(), 35);
        assert_eq!(reg.footprint_shadow_bytes.get(), 50);
        assert_eq!(reg.footprint_total_bytes.get(), 95 + 100);
        let snap = reg.snapshot();
        let info = snap.render_info();
        assert!(info.contains("# memory"));
        assert!(info.contains("total_bytes:195"));
        let json = snap.to_json();
        assert!(json.contains("\"memory\":{\"stack_bytes\":35"));
        assert!(json.contains("\"total_bytes\":195"));
        assert!(json.contains("\"resident\":[]"));
    }

    #[test]
    fn info_and_json_renderings_contain_sections() {
        let reg = MetricsRegistry::new();
        reg.accesses.add(3);
        reg.hits.inc();
        reg.chain_len.record(5);
        reg.init_shards(2);
        reg.shard_access(0);
        let snap = reg.snapshot();
        let info = snap.render_info();
        for section in [
            "# model",
            "# updater",
            "# latency",
            "# shards",
            "# pipeline",
            "# watchdog",
            "# eviction",
        ] {
            assert!(info.contains(section), "{section} missing from\n{info}");
        }
        assert!(info.contains("accesses:3"));
        assert!(info.contains("chain_len_count:1"));
        assert!(info.contains("keys_hashed:0"));
        assert!(info.contains("queue_depth_hwm:0,0"));
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":\"krr-metrics-v1\""));
        assert!(json.contains("\"accesses\":3"));
        assert!(json.contains("\"pipeline\":{\"batches\":0"));
        assert!(json.contains("\"queue_depth_hwm\":[0,0]"));
        // Brace balance as a cheap well-formedness check.
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn percentile_interp_is_continuous_within_a_bucket() {
        let h = LogHistogram::new();
        // 100 values spread through the [64, 127] bucket.
        for i in 0..100u64 {
            h.record(64 + (i * 63) / 99);
        }
        let snap = h.snapshot();
        // The quantized estimate can only report the bucket bound...
        assert_eq!(snap.percentile(0.5), 127);
        // ...while the interpolated one moves with the rank.
        let p10 = snap.percentile_interp(0.10);
        let p50 = snap.percentile_interp(0.50);
        let p90 = snap.percentile_interp(0.90);
        assert!(p10 < p50 && p50 < p90, "{p10} {p50} {p90}");
        assert!((64.0..=127.0).contains(&p10));
        assert!((64.0..=127.0).contains(&p90));
        // Extremes behave.
        assert_eq!(LogHistogram::new().snapshot().percentile_interp(0.99), 0.0);
        assert!(snap.percentile_interp(1.0) <= snap.max as f64);
    }

    #[test]
    fn percentile_interp_caps_at_observed_max() {
        let h = LogHistogram::new();
        h.record(1000); // bucket [512, 1023], max 1000
        let snap = h.snapshot();
        assert!(snap.percentile_interp(0.99) <= 1000.0);
        assert!(snap.percentile_interp(0.01) >= 512.0);
    }
}
