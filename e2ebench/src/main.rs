//! Benchmark command line.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload` is one of `characterize`, `corpus_train`, `serve`,
//! `recipe_search`, or `all` (every workload in this one process).
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. `--tiny` shrinks every input. The
//! last line of standard output is the JSON result; the exit code is 0
//! only if every output check held.

use eda_cloud_e2ebench::host::HostStamp;
use eda_cloud_e2ebench::{result_json, run, spans, Options, RunResult, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => options.workload = value()?.clone(),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                };
            }
            "--tiny" => {
                options.tiny = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if options.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(options)
}

fn print_result(r: &RunResult, host: &HostStamp, trace: bool) {
    println!("== {} ==", r.workload);
    for line in &r.lines {
        println!("{line}");
    }
    println!("digest {}: {}", r.workload, r.digest);
    for m in &r.metrics {
        println!(
            "  {:<32} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for p in &r.problems {
        println!("CHECK FAILED: {p}");
    }
    if trace {
        let dir = std::path::Path::new(".e2ebench_out");
        let path = dir.join(format!("spans-{}.json", r.workload));
        let text = format!(
            "{{\"host\": {}, \"workload\": \"{}\", \"spans\": {}}}\n",
            host.to_json(),
            r.workload,
            spans::to_json(&r.spans)
        );
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let host = HostStamp::current();
    println!("host {}", host.to_json());
    let names: Vec<String> = if options.workload == "all" {
        WORKLOADS.iter().map(|s| (*s).to_owned()).collect()
    } else {
        vec![options.workload.clone()]
    };
    let mut results = Vec::new();
    for name in names {
        match run(&Options {
            workload: name,
            ..options.clone()
        }) {
            Ok(r) => {
                print_result(&r, &host, options.trace);
                results.push(r);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let correct = results.iter().all(|r| r.correct);
    let attempted = results.iter().map(|r| r.attempted).sum();
    let failed = results.iter().map(|r| r.failed).sum();
    let metrics = if let [single] = results.as_slice() {
        single.metrics.clone()
    } else {
        // `all`: one line, metric names prefixed with the workload.
        results
            .iter()
            .flat_map(|r| {
                r.metrics.iter().map(move |m| eda_cloud_e2ebench::Metric {
                    name: Box::leak(format!("{}.{}", r.workload, m.name).into_boxed_str()),
                    ..m.clone()
                })
            })
            .collect()
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
