//! Smoke test: every workload runs at a tiny size, in both modes, checks
//! its answers, and prints every metric `BENCHMARK.json` names for that
//! mode.
//!
//! Run with `cargo test --release --manifest-path servebench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["scan", "lookup", "commit", "cluster"];

/// The `name`s listed in one array of `BENCHMARK.json`.
fn names_in(doc: &str, key: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("unterminated array")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--tiny",
        ])
        .output()
        .expect("servebench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_with_correct_answers() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let end_to_end = names_in(&doc, "end_to_end");
    let per_layer = names_in(&doc, "per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    assert!(!per_layer.is_empty());
    for workload in WORKLOADS {
        for (trace, names) in [(0, &end_to_end), (1, &per_layer)] {
            let last = run(workload, trace);
            assert!(
                last.starts_with("{\"correct\": true,"),
                "{workload} trace={trace}: {last}"
            );
            assert!(
                last.contains("\"failed\": 0,"),
                "{workload} trace={trace}: {last}"
            );
            for name in names.iter() {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace={trace} lacks {name}: {last}"
                );
            }
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("servebench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
