//! Metric declarations, the per-run outcome, and its rendering.
//!
//! Every metric is declared once, in [`END_TO_END`] or [`PER_LAYER`];
//! the printed result line and the `BENCHMARK.json` manifest are both
//! generated from these tables.

use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Globally unique metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Metrics a user of the system sees, each gated by its bound. Every
/// workload reports every one; README.md defines each per workload. Times
/// are on the process CPU clock ([`crate::cpu`]): wall time on a shared
/// host also counts the stretches the hypervisor takes the vCPUs away.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("refs_per_cpu_s", "refs/cpu-s", "higher", 0.25),
    e2e("ops_per_cpu_s", "ops/cpu-s", "higher", 0.25),
    e2e("model_bytes", "B", "lower", 0.2),
];

/// Per-layer metrics of the traced run. A layer that is not on a
/// workload's path reports 0 and is marked `n/a` in the human output.
/// The `e2e.*` entries are end-to-end figures whose run-to-run spread on
/// a shared host is wider than any allowed bound; every run reports them
/// but they are not gated (the MAE is held by a ceiling check instead).
/// `e2e.refs_per_s`, `e2e.ops_per_s` and `e2e.setup_wall_s` are the gated
/// throughput and set-up measured on the wall clock.
pub const PER_LAYER: &[Metric] = &[
    layer("e2e.refs_per_s", "refs/s", "higher"),
    layer("e2e.ops_per_s", "ops/s", "higher"),
    layer("e2e.setup_wall_s", "s", "lower"),
    layer("e2e.p50_us", "us", "lower"),
    layer("e2e.p99_us", "us", "lower"),
    layer("e2e.mrc_mae", "abs", "lower"),
    layer("hashing.ns_per_ref", "ns", "lower"),
    layer("sampling.ns_per_ref", "ns", "lower"),
    layer("pipeline.route_ns_per_ref", "ns", "lower"),
    layer("model.ns_per_admitted", "ns", "lower"),
    layer("sizearray.ns_per_admitted", "ns", "lower"),
    layer("pipeline.e2e_ns_per_ref", "ns", "lower"),
    layer("pipeline.unattributed_ns_per_ref", "ns", "lower"),
    layer("pipeline.unattributed_share", "ratio", "lower"),
    layer("pipeline.stalls", "count", "lower"),
    layer("pipeline.router_parks", "count", "lower"),
    layer("pipeline.worker_parks", "count", "lower"),
    layer("update.chain_len_mean", "entries", "lower"),
    layer("update.positions_scanned_mean", "entries", "lower"),
    layer("resp.parse_ns_per_cmd", "ns", "lower"),
    layer("resp.encode_ns_per_reply", "ns", "lower"),
    layer("store.get_ns", "ns", "lower"),
    layer("store.set_ns", "ns", "lower"),
    layer("sharded.ns_per_get", "ns", "lower"),
    layer("fleet.ns_per_get", "ns", "lower"),
    layer("server.client_p50_us", "us", "lower"),
    layer("server.service_p50_us", "us", "lower"),
    layer("server.unattributed_us", "us", "lower"),
    layer("sampling.admit_ratio", "ratio", "higher"),
    layer("stack.hit_ratio", "ratio", "higher"),
    layer("store.hit_ratio", "ratio", "higher"),
    layer("store.evictions_per_set", "ratio", "lower"),
    layer("load.achieved_ratio", "ratio", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Seconds one run measures (the manifest's `run_seconds`).
pub const RUN_SECONDS: u64 = 25;

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "offline_zipf",
        "2M Zipf-0.9 refs at R=1 reach the KRR stack, so the swap-chain update dominates; hash, filter and route work should not move it",
    ),
    (
        "offline_msr_bytes",
        "20M msr_src1 refs, byte sizeArray, R=0.01: ~99% of refs stop at the spatial filter, so hashing, filtering, routing and ring hand-off dominate",
    ),
    (
        "server_mixed",
        "mini-Redis with KRR bank and fleet on, YCSB-C 90% GET/10% SET over one pipelined connection: the always-on profiler on the request path",
    ),
];

/// Looks up a declared metric by name.
#[must_use]
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end values by metric name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values by metric name (traced run only).
    pub layers: Vec<(&'static str, f64)>,
    /// Per-layer metrics that do not apply to this workload (reported 0).
    pub not_applicable: Vec<&'static str>,
    /// Informational `key value` lines: input generation, traffic profile,
    /// sample counts.
    pub info: Vec<(String, String)>,
    /// Output checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or got no reply.
    pub failed: u64,
}

impl Outcome {
    /// A fresh outcome for `workload`.
    #[must_use]
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            ..Self::default()
        }
    }

    /// Records an end-to-end value.
    pub fn set_e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        self.e2e.push((name, value));
    }

    /// Records a per-layer value.
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.layers.push((name, value));
    }

    /// Adds an informational line.
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// True if every check passed and every reported value is finite.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
            && self
                .e2e
                .iter()
                .chain(&self.layers)
                .all(|(_, v)| v.is_finite())
    }

    /// Marks every per-layer metric this workload did not set as not
    /// applicable (value 0).
    pub fn fill_not_applicable(&mut self) {
        for m in PER_LAYER {
            if !self.layers.iter().any(|(n, _)| *n == m.name) {
                self.layers.push((m.name, 0.0));
                self.not_applicable.push(m.name);
            }
        }
    }

    /// Human-readable block: info, metrics with units, checks.
    #[must_use]
    pub fn render_text(&self, traced: bool) -> String {
        let mut out = String::new();
        for (k, v) in &self.info {
            let _ = writeln!(out, "info    {:<34} {v}", k);
        }
        let failed_pct = if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        };
        let values: &[(&'static str, f64)] = if traced { &self.layers } else { &self.e2e };
        let decl = if traced { PER_LAYER } else { END_TO_END };
        for m in decl {
            let v = values.iter().find(|(n, _)| *n == m.name).map(|p| p.1);
            match v {
                Some(_) if self.not_applicable.contains(&m.name) => {
                    let _ = writeln!(out, "metric  {:<34} n/a (layer not on this path)", m.name);
                }
                Some(v) => {
                    let _ = writeln!(out, "metric  {:<34} {} {}", m.name, fmt_num(v), m.unit);
                }
                None => {
                    let _ = writeln!(out, "metric  {:<34} MISSING", m.name);
                }
            }
        }
        if !traced {
            for (name, v) in &self.layers {
                let unit = metric(name).map_or("", |m| m.unit);
                let _ = writeln!(out, "metric  {:<34} {} {unit} (ungated)", name, fmt_num(*v));
            }
        }
        let _ = writeln!(
            out,
            "metric  {:<34} {} % (ungated)",
            "failed_pct",
            fmt_num(failed_pct)
        );
        for (name, ok, detail) in &self.checks {
            let _ = writeln!(
                out,
                "check   {:<34} {} {detail}",
                name,
                if *ok { "ok" } else { "FAILED" }
            );
        }
        out
    }

    /// The machine-readable result line: `correct`, `attempted`, `failed`
    /// and the end-to-end (or, traced, per-layer) metrics with units.
    #[must_use]
    pub fn result_json(&self, traced: bool) -> String {
        let (decl, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<(String, f64, &str)> = decl
            .iter()
            .filter_map(|m| {
                values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|&(_, v)| (m.name.to_string(), v, m.unit))
            })
            .collect();
        result_line(self.correct(), self.attempted, self.failed, &metrics)
    }
}

/// Renders one result line from already-collected metrics.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            fmt_num(*v)
        );
    }
    out.push_str("}}");
    out
}

/// Formats a measured number with all its digits (shortest round-trip
/// representation; integers without a fraction).
#[must_use]
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `BENCHMARK.json` manifest, generated from the tables above.
#[must_use]
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != m.name), "{}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = metric("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }
}
