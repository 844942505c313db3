//! `krr-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_zipf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints informational lines, every metric with its unit and the output
//! checks, then one JSON result line. `--workload all` runs every
//! workload; `--smoke` shrinks every input to a few seconds' work;
//! `--manifest` prints the `BENCHMARK.json` this binary implements.
//! Exits non-zero when an output check fails. See README.md.

mod cpu;
mod offline;
mod report;
mod server;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, RUN_SECONDS, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.manifest && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args, out_dir: &std::path::Path) -> Option<Outcome> {
    let (seed, secs, traced) = (args.seed, args.seconds, args.traced);
    Some(match name {
        "offline_zipf" => offline::run(
            &offline::Spec::zipf(args.smoke),
            seed,
            secs,
            traced,
            out_dir,
        ),
        "offline_msr_bytes" => offline::run(
            &offline::Spec::msr_bytes(args.smoke),
            seed,
            secs,
            traced,
            out_dir,
        ),
        "server_mixed" => server::run(&server::Spec::new(args.smoke), seed, secs, traced, out_dir),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: krr-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] | --manifest",
                WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for name in names {
        println!(
            "# workload {name} seed {} seconds {} trace {}{} parallelism {}",
            args.seed,
            args.seconds,
            u8::from(args.traced),
            if args.smoke { " smoke" } else { "" },
            std::thread::available_parallelism().map_or(0, usize::from)
        );
        let Some(outcome) = run_workload(name, &args, &out_dir) else {
            eprintln!("error: unknown workload {name:?}");
            return ExitCode::from(2);
        };
        print!("{}", outcome.render_text(args.traced));
        outcomes.push(outcome);
    }
    let correct = outcomes.iter().all(Outcome::correct);
    if let [only] = outcomes.as_slice() {
        println!("{}", only.result_json(args.traced));
    } else {
        // `all`: one line with every workload's metrics, prefixed by name.
        let mut metrics = Vec::new();
        for o in &outcomes {
            let values = if args.traced { &o.layers } else { &o.e2e };
            for (name, v) in values {
                let unit = report::metric(name).map_or("", |m| m.unit);
                metrics.push((format!("{}/{name}", o.workload), *v, unit));
            }
        }
        let attempted = outcomes.iter().map(|o| o.attempted).sum();
        let failed = outcomes.iter().map(|o| o.failed).sum();
        println!(
            "{}",
            report::result_line(correct, attempted, failed, &metrics)
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an output check failed");
        ExitCode::FAILURE
    }
}
