//! `servebench` — the end-to-end serving benchmark of the XST engine.
//!
//! ```text
//! servebench --workload <scan|lookup|commit|cluster> --seed <n>
//!            --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! One run serves the program in-process on `127.0.0.1` (ephemeral
//! ports), loads it through the client, drives one workload against it
//! for `--seconds`, checks every answer against a plain-Rust model, and
//! prints one JSON object as its last line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! `--tiny` shrinks the tables for the smoke test. See README.md.

mod model;
mod ops;
mod pin;
mod run;
mod stats;
mod trace;

use ops::KINDS;
use run::{Inputs, Spec, Tally, World};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run reports.
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Figures printed for reference but left out of the result line:
    /// they do not repeat from run to run within any useful bound.
    pub reference: Vec<Metric>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A started run: the program set up and loaded, its seeded inputs, the
/// write stream, and the median set-up time.
pub struct Run {
    pub spec: Spec,
    pub inputs: Inputs,
    pub world: World,
    pub writer: ops::Writer,
    pub setup_s: f64,
    pub rows_loaded: u64,
}

/// Set the program up `SETUP_REPS` times (keeping the last) and time
/// each.
pub fn start(spec: Spec, seed: u64) -> Result<Run, String> {
    let inputs = Inputs::new(&spec, seed);
    let load = inputs.load(&spec);
    let rows_loaded = load.iter().map(|(_, p)| p.len() as u64).sum();
    let form = Inputs::form(&spec);
    let mut times = Vec::new();
    let mut world = None;
    for _ in 0..run::SETUP_REPS {
        if let Some(w) = world.take() {
            World::stop(w);
        }
        let t0 = Instant::now();
        world = Some(run::setup(&spec, &load, form)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let world = world.ok_or("no set-up ran")?;
    let writer = inputs.writer(&spec);
    Ok(Run {
        spec,
        inputs,
        world,
        writer,
        setup_s: stats::median_f(&mut times),
        rows_loaded,
    })
}

impl Run {
    /// The model of every table as it must read now.
    pub fn tables(&self) -> Vec<(String, BTreeSet<(i64, i64)>)> {
        let written = (
            self.writer.table.clone(),
            self.writer.rel.pairs().into_iter().collect(),
        );
        if self.writer.table == "t" {
            vec![written]
        } else {
            vec![
                ("t".into(), self.inputs.base.pairs().into_iter().collect()),
                written,
            ]
        }
    }
}

fn end_to_end(args: &Args, spec: Spec) -> Result<Outcome, String> {
    let mut s = start(spec, args.seed)?;
    let mut tally = run::timed_phase(
        &mut s.world,
        &s.spec,
        &s.inputs,
        &mut s.writer,
        args.seconds,
        0,
    );
    let tables = s.tables();
    if let Err(e) = run::final_check(&mut s.world, &tables) {
        tally.mismatches.push(e);
    }
    let wal_bytes = s.world.wal_bytes();
    let recovery_s =
        run::recover(&mut s.world, &tables, Inputs::form(&s.spec)).unwrap_or_else(|e| {
            tally.mismatches.push(e);
            0.0
        });
    let rows = s.rows_loaded + tally.rows_written;
    let ops_per_s = tally.ops_per_s(args.seconds);
    let [reads, writes, txns] = &tally.lat_ns;
    let metrics = vec![
        metric("setup_s", s.setup_s, "s"),
        metric("read_p50_ms", tally.p50_ns(0) / 1e6, "ms"),
        metric("write_p50_ms", tally.p50_ns(1) / 1e6, "ms"),
        metric("txn_p50_ms", tally.p50_ns(2) / 1e6, "ms"),
        metric("recovery_s", recovery_s, "s"),
        metric(
            "peak_rss_mb",
            run::status_bytes("VmHWM")? / (1 << 20) as f64,
            "MB",
        ),
        metric(
            "wal_bytes_per_row",
            wal_bytes as f64 / rows.max(1) as f64,
            "B/row",
        ),
    ];
    let reference = vec![
        metric("ops_per_s", ops_per_s, "ops/s"),
        metric("read_p99_ms", ms(stats::tail(reads, 0.99, 1000)), "ms"),
        metric("write_p99_ms", ms(stats::tail(writes, 0.99, 1000)), "ms"),
        metric("txn_p90_ms", ms(stats::tail(txns, 0.90, 100)), "ms"),
    ];
    s.world.stop();
    Ok(Outcome {
        correct: tally.is_clean(),
        tally,
        metrics,
        reference,
    })
}

fn print(outcome: &Outcome, workload: &str) {
    let t = &outcome.tally;
    for (i, k) in KINDS.iter().enumerate() {
        println!(
            "ops {workload} {:<5} attempted={} failed={} samples={}",
            k.name(),
            t.attempted[i],
            t.failed[i],
            t.lat_ns[i].len()
        );
    }
    for ((_, label), v) in &t.by_label {
        let p50 = stats::quantile(v, 0.5);
        println!(
            "shape {workload} {label:<8} n={} p50_ms={:.4}",
            v.len(),
            ms(p50)
        );
    }
    for e in t.errors.iter().chain(&t.mismatches) {
        println!("problem: {e}");
    }
    for m in &outcome.metrics {
        println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.reference {
        println!("reference {:<31} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        t.attempted.iter().sum::<u64>(),
        t.failed.iter().sum::<u64>(),
        metrics.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = run::spec(&args.workload, args.tiny) else {
        eprintln!(
            "servebench: unknown workload {:?} (scan, lookup, commit, cluster)",
            args.workload
        );
        return ExitCode::from(2);
    };
    // The cluster is driven from one thread and every hop waits for the
    // last, so one CPU costs it no parallelism. Pin before any thread
    // starts, so every thread inherits it.
    if spec.deploy == run::Deploy::Cluster {
        match pin::to_one_cpu() {
            Some(cpu) => println!("pinned to cpu {cpu}"),
            None => println!("not pinned: the system refused CPU affinity"),
        }
    }
    if let Err(e) = model::self_test() {
        eprintln!("servebench: {e}");
        return ExitCode::from(3);
    }
    let result = if args.trace {
        trace::traced(spec, args.seed, args.seconds)
    } else {
        end_to_end(&args, spec)
    };
    match result {
        Ok(outcome) => {
            print(&outcome, &args.workload);
            if outcome.correct && outcome.tally.attempted.iter().sum::<u64>() > 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("servebench: an operation failed or an answer did not match the model");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}
