//! The benchmark's self-test: every workload runs in smoke mode, untraced
//! and traced, and must print every declared metric with its unit, pass
//! its output checks, and end with a well-formed result line. The
//! committed `BENCHMARK.json` must be exactly what `--manifest` prints.

use std::path::PathBuf;
use std::process::Command;

use krr_core::json::{self, Json};

fn bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_krr-perfbench"))
        .args(args)
        .output()
        .expect("run benchmark binary");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a manifest section.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_matches_committed_benchmark_json() {
    let (code, printed) = bench(&["--manifest"]);
    assert_eq!(code, Some(0));
    let committed = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json");
    assert_eq!(
        printed, committed,
        "regenerate BENCHMARK.json with --manifest"
    );
}

#[test]
fn smoke_runs_print_every_metric_with_unit() {
    let doc = manifest();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(&doc, section);
        for w in &workloads {
            let (code, stdout) = bench(&[
                "--workload",
                w,
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert_eq!(code, Some(0), "{w} trace {trace}:\n{stdout}");
            for (name, unit) in &metrics {
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().take(2).eq(["metric", name.as_str()]))
                    .unwrap_or_else(|| panic!("{w} trace {trace}: no line for {name}"));
                assert!(
                    line.ends_with(&format!(" {unit}")) || line.contains("n/a"),
                    "{w}: {line:?} lacks unit {unit}"
                );
            }
            let last = stdout.lines().last().expect("output");
            let result = json::parse(last).unwrap_or_else(|e| panic!("{w}: bad JSON {e}: {last}"));
            let keys: Vec<&str> = result
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{w}: {last}"
            );
            assert!(result.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
            let reported = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            assert_eq!(
                reported.len(),
                metrics.len(),
                "{w}: exactly the declared metrics"
            );
            for (name, unit) in &metrics {
                let m = result
                    .path(&["metrics", name])
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                let value = m
                    .get("value")
                    .and_then(Json::as_num)
                    .expect("numeric value");
                assert!(value.is_finite());
                if section == "end_to_end" {
                    assert!(value > 0.0, "{w}: {name} must never be 0");
                }
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--smoke"][..],
        &[][..],
        &["--workload", "offline_zipf", "--trace", "2"][..],
    ] {
        let (code, stdout) = bench(args);
        assert_ne!(code, Some(0), "{args:?}");
        assert!(!stdout.contains("\"correct\""), "{args:?}");
    }
}
