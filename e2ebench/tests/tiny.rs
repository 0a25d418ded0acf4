//! Self-test: every workload at tiny size, untraced and traced, passes
//! every output check and prints every metric `BENCHMARK.json` names,
//! with the unit it names.

use eda_cloud_e2ebench::{result_json, run, Options, WORKLOADS};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name ends")].to_owned();
            let unit = entry
                .split_once("\"unit\": \"")
                .map(|(_, rest)| rest[..rest.find('"').expect("unit ends")].to_owned())
                .expect("metric has a unit");
            (name, unit)
        })
        .collect()
}

fn run_tiny(workload: &str, trace: bool) {
    let options = Options {
        workload: workload.to_owned(),
        seed: 3,
        seconds: 0.0,
        trace,
        tiny: true,
    };
    let r = run(&options).expect("known workload");
    println!(
        "== {workload} (trace {}) digest {}",
        u8::from(trace),
        r.digest
    );
    for m in &r.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    assert!(r.correct, "{workload}: {:?}", r.problems);
    assert!(
        r.attempted > 0 && r.failed == 0,
        "{workload}: {} of {} failed",
        r.failed,
        r.attempted
    );

    let section = if trace { "per_layer" } else { "end_to_end" };
    let want = declared(section);
    let got: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    assert_eq!(
        got, want,
        "{workload}: printed metrics differ from BENCHMARK.json's {section}"
    );
    if !trace {
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value != 0.0,
                "{workload}: {} reads {}",
                m.name,
                m.value
            );
        }
    }
    let line = result_json(r.correct, r.attempted, r.failed, &r.metrics);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn every_workload_passes_untraced() {
    for w in WORKLOADS {
        run_tiny(w, false);
    }
}

#[test]
fn every_workload_passes_traced() {
    for w in WORKLOADS {
        run_tiny(w, true);
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let options = Options {
        workload: "nope".to_owned(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        tiny: true,
    };
    assert!(run(&options).is_err());
}
