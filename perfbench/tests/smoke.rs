//! Smoke-size self-test: every workload of `BENCHMARK.json`, with tracing
//! off and on, emits exactly the metrics the file names and passes the
//! reference-alarm and frame-accounting checks.

use std::process::Command;

/// The `BENCHMARK.json` next to this package.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("reading BENCHMARK.json")
}

/// Every `"name": "..."` value inside the top-level array `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &json[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// Runs one smoke-size measurement; returns the final JSON line.
fn run(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", trace, "--scale", "smoke"])
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("host: nproc=")),
        "host facts missing:\n{stdout}"
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The metric names of a result line, in order.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split(": {\"value\": ")
        .map(|part| {
            let end = part.rfind('"').expect("name closes");
            let start = part[..end].rfind('"').expect("name opens") + 1;
            part[start..end].to_string()
        })
        .take(metrics.matches("{\"value\": ").count())
        .collect()
}

fn check(trace: &str, key: &str) {
    let json = benchmark_json();
    let mut expected = names_in(&json, key);
    expected.sort();
    for workload in names_in(&json, "workloads") {
        let result = run(&workload, trace);
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {result}"
        );
        assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
        let mut got = metric_names(&result);
        got.sort();
        assert_eq!(got, expected, "{workload} --trace {trace}");
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_pass_the_oracle() {
    check("0", "end_to_end");
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_pass_the_oracle() {
    check("1", "per_layer");
}
