//! Smoke test of the benchmark against the real `mpl` binary: every
//! workload at `--smoke` scale, untraced and traced, must print every
//! metric `BENCHMARK.json` lists, and untraced the unbounded ones too,
//! each with its unit; and a deliberately wrong expected answer must
//! fail the run.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

const WORKLOADS: [&str; 4] = ["serve-hot", "serve-mixed", "engine-wide", "batch-corpus"];

/// Metrics every untraced run prints (and saves for `compare`) besides
/// the ones `BENCHMARK.json` bounds.
const PRINTED: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("failed_frac", "ratio"),
    ("wrong_outputs", "count"),
];

/// Asserts that a run printed `<workload> <name> <value> <unit>`.
fn assert_printed(stdout: &str, workload: &str, name: &str, unit: &str) {
    let prefix = format!("{workload} {name} ");
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("{name} not printed:\n{stdout}"));
    assert!(line.ends_with(&format!(" {unit}")), "{line}");
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the benchmark lives in crates/ of the repository")
}

/// The `mpl` binary of the same build, next to the benchmark's own. The
/// workspace's `cargo test` builds it (for `mpl-cli`'s tests); a missing
/// binary fails the test rather than skipping it.
fn mpl() -> PathBuf {
    let bin = Path::new(env!("CARGO_BIN_EXE_mpl-benchmark")).with_file_name("mpl");
    assert!(
        bin.is_file(),
        "no mpl binary at {}: run the workspace's `cargo test`, or \
         `cargo test -p mpl-cli -p mpl-benchmark`",
        bin.display()
    );
    bin
}

/// `(name, unit)` of every metric in a list of `BENCHMARK.json`.
fn listed(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    Command::new(env!("CARGO_BIN_EXE_mpl-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--mpl")
        .arg(mpl())
        .arg("--work")
        .arg(&work)
        .args(extra)
        .output()
        .expect("the benchmark runs")
}

fn last_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    json::parse(last).unwrap_or_else(|e| panic!("last line is not a result ({e}):\n{stdout}"))
}

#[test]
fn every_workload_prints_every_listed_metric() {
    for workload in WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let output = smoke(workload, trace, &[]);
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace={trace}: {}\n{stdout}\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            let result = last_line(&output);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{stdout}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{stdout}"
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics: {stdout}");
            };
            let expected = listed(list);
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{workload} trace={trace}: {stdout}"
            );
            for (name, unit) in expected {
                let m = result
                    .get("metrics")
                    .and_then(|m| m.get(&name))
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: no {name}:\n{stdout}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                assert_printed(&stdout, workload, &name, &unit);
            }
            if !trace {
                for (name, unit) in PRINTED {
                    assert_printed(&stdout, workload, name, unit);
                }
            }
        }
    }
}

#[test]
fn a_wrong_expected_answer_fails_the_run() {
    let answers =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.ndjson"))
            .expect("expected.ndjson");
    let right = "{\"name\":\"fig2_exchange\",\"client\":\"cartesian\",\"verdict\":\"exact\",\"reason\":null,\"outcome\":\"completed\",\"matches\":2,";
    assert!(answers.contains(right), "fig2_exchange's answer changed");
    let wrong = answers.replace(right, &right.replace("\"matches\":2", "\"matches\":3"));
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-expected.ndjson");
    std::fs::write(&path, wrong).expect("write the wrong answers");
    let output = smoke(
        "batch-corpus",
        false,
        &["--expected", path.to_str().expect("UTF-8 path")],
    );
    assert_eq!(
        output.status.code(),
        Some(1),
        "a wrong answer must fail the run"
    );
    let result = last_line(&output);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_u64) >= Some(1));
}
