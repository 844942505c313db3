//! Exact regression goldens for the stack-update path under every kind of
//! observer: a byte-level model (sizeArray) for each updater, a uniform
//! model with a metrics registry and a flight recorder attached (each
//! updater), and a uniform model with nothing attached.
//!
//! Unlike `golden_trace`, nothing here carries a tolerance: each MRC is
//! pinned by a 64-bit FNV-1a digest over the bit patterns of every
//! `(cache_size, miss_ratio)` point, and the observer histograms by their
//! exact counters. Any change to which entries a swap chain moves, to the
//! RNG stream, or to what the observers see shows up as a mismatch. The
//! updaters call `powf` for large jumps, so a libm with different last-ulp
//! rounding may need the goldens regenerated. Regenerate with:
//!
//! ```text
//! cargo test --test update_golden -- --ignored --nocapture
//! ```

use krr::core::metrics::HistogramSnapshot;
use krr::core::rng::Xoshiro256;
use krr::core::{FlightRecorder, KrrConfig, KrrModel, MetricsRegistry, Mrc, Phase, UpdaterKind};
use std::sync::Arc;

const K: f64 = 5.0;

/// 40k skewed references over ~3k keys with per-key sizes; about 1 in 20
/// references rewrites its key with a fresh size (an overwriting SET), so
/// the sizeArray's resize path runs too. IEEE add/mul only, no libm.
fn sized_trace() -> Vec<(u64, u32)> {
    let mut rng = Xoshiro256::seed_from_u64(0x51_2E);
    let mut sizes = vec![0u32; 3_000];
    (0..40_000)
        .map(|_| {
            let u = rng.unit();
            let key = (u * u * 3_000.0) as u64;
            let slot = &mut sizes[key as usize];
            if *slot == 0 || rng.below(20) == 0 {
                *slot = (rng.below(4_000) + 1) as u32;
            }
            (key, *slot)
        })
        .collect()
}

/// 60k skewed uniform-size references over ~4k keys.
fn uniform_trace() -> Vec<u64> {
    let mut rng = Xoshiro256::seed_from_u64(0xC4A1);
    (0..60_000)
        .map(|_| {
            let u = rng.unit();
            (u * u * 4_000.0) as u64
        })
        .collect()
}

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// `(point count, digest)` of an MRC's exact bit patterns.
fn mrc_digest(mrc: &Mrc) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(x, y) in mrc.points() {
        fnv(&mut h, x.to_bits());
        fnv(&mut h, y.to_bits());
    }
    (mrc.points().len(), h)
}

/// `(count, sum, max, bucket digest)` of a histogram snapshot.
fn hist_digest(s: &HistogramSnapshot) -> (u64, u64, u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &s.buckets {
        fnv(&mut h, b);
    }
    (s.count, s.sum, s.max, h)
}

fn byte_level_run(updater: UpdaterKind) -> (usize, u64) {
    let mut m = KrrModel::new(
        KrrConfig::new(K)
            .updater(updater)
            .seed(11)
            .byte_level(2, 256),
    );
    for (key, size) in sized_trace() {
        m.access(key, size);
    }
    mrc_digest(&m.mrc())
}

/// What a uniform run with metrics and a recorder attached observed.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    mrc: (usize, u64),
    chain_len: (u64, u64, u64, u64),
    positions_scanned: (u64, u64, u64, u64),
    /// `(count, sum of chain-length args)` of `StackUpdate` spans.
    stack_update: (u64, u64),
    /// `(count, sum of chain-length args)` of `DeepUpdate` markers.
    deep_update: (u64, u64),
}

fn observed_run(updater: UpdaterKind) -> Observed {
    let reg = Arc::new(MetricsRegistry::new());
    let recorder = Arc::new(FlightRecorder::with_capacity(1 << 16));
    let mut m = KrrModel::new(KrrConfig::new(K).updater(updater).seed(12));
    m.set_metrics(Arc::clone(&reg));
    m.set_recorder(recorder.register("golden"));
    for key in uniform_trace() {
        m.access_key(key);
    }
    let (events, dropped) = recorder.collect_events();
    assert_eq!(dropped, 0, "recorder ring too small for the golden run");
    let tally = |phase: Phase| {
        events
            .iter()
            .filter(|e| e.phase == phase)
            .fold((0, 0), |(n, s), e| (n + 1, s + e.arg))
    };
    let snap = reg.snapshot();
    Observed {
        mrc: mrc_digest(&m.mrc()),
        chain_len: hist_digest(&snap.chain_len),
        positions_scanned: hist_digest(&snap.positions_scanned),
        stack_update: tally(Phase::StackUpdate),
        deep_update: tally(Phase::DeepUpdate),
    }
}

fn unobserved_run() -> (usize, u64) {
    let mut m = KrrModel::new(KrrConfig::new(K).seed(12));
    for key in uniform_trace() {
        m.access_key(key);
    }
    mrc_digest(&m.mrc())
}

const BYTE_LEVEL_GOLDEN: [(UpdaterKind, (usize, u64)); 3] = [
    (UpdaterKind::Naive, (23337, 16931541336602027037)),
    (UpdaterKind::TopDown, (23336, 3999409068807116425)),
    (UpdaterKind::Backward, (23331, 18022429172856211471)),
];

const OBSERVED_GOLDEN: [(UpdaterKind, Observed); 3] = [
    (
        UpdaterKind::Naive,
        Observed {
            mrc: (3998, 15568740055479404522),
            chain_len: (60000, 2901800, 94, 13997514364155746518),
            positions_scanned: (60000, 94996471, 3998, 3349878084235839915),
            stack_update: (3750, 181679),
            deep_update: (50233, 2588203),
        },
    ),
    (
        UpdaterKind::TopDown,
        Observed {
            mrc: (3998, 3080746511318387011),
            chain_len: (60000, 2902315, 90, 3070581615544822784),
            positions_scanned: (60000, 13749571, 473, 288444524858189262),
            stack_update: (3750, 181871),
            deep_update: (50189, 2587156),
        },
    ),
    (
        UpdaterKind::Backward,
        Observed {
            mrc: (3999, 9863899788095426706),
            chain_len: (60000, 2899753, 89, 2312671379151072565),
            positions_scanned: (60000, 2899753, 89, 2312671379151072565),
            stack_update: (3750, 181500),
            deep_update: (50233, 2586559),
        },
    ),
];

const UNOBSERVED_GOLDEN: (usize, u64) = (3999, 9863899788095426706);

#[test]
fn byte_level_mrcs_match_golden() {
    for (updater, golden) in BYTE_LEVEL_GOLDEN {
        assert_eq!(byte_level_run(updater), golden, "{updater:?}");
    }
}

#[test]
fn observed_runs_match_golden() {
    for (updater, golden) in OBSERVED_GOLDEN {
        let got = observed_run(updater);
        assert_eq!(got, golden, "{updater:?}");
        // Chain length and work differ for the scanning updaters; for the
        // backward updater every inverse-CDF draw is one chain entry.
        if updater == UpdaterKind::Backward {
            assert_eq!(got.chain_len, got.positions_scanned);
        } else {
            assert_ne!(got.chain_len.1, got.positions_scanned.1, "{updater:?}");
        }
    }
}

#[test]
fn unobserved_run_matches_golden_and_observed_mrc() {
    let got = unobserved_run();
    assert_eq!(got, UNOBSERVED_GOLDEN);
    // Observers never change the model: same seed, same MRC.
    assert_eq!(got, observed_run(UpdaterKind::Backward).mrc);
}

#[test]
#[ignore = "prints the goldens; run with --ignored --nocapture to regenerate"]
fn print_goldens() {
    for updater in UpdaterKind::ALL {
        println!("byte-level {updater:?}: {:?}", byte_level_run(updater));
    }
    for updater in UpdaterKind::ALL {
        println!("observed {updater:?}: {:?}", observed_run(updater));
    }
    println!("unobserved: {:?}", unobserved_run());
}
