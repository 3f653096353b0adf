//! Files and tables: the trace file, the history file, and the `run` and
//! `aa` subcommands that start one fresh child process per run. Nothing is
//! written outside `benchmark/out/`.

use crate::json::{self, Value};
use crate::spec::{self, END_TO_END};
use crate::stats;
use crate::tracer::Tracer;
use crate::{RunResult, Workload};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `benchmark/out/` of the checkout this binary was built in.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes the traced run's spans as `benchmark/out/<workload>.trace.json`.
pub fn write_trace(workload: &str, tracer: &Tracer, meta: Value) -> Result<String, String> {
    let path = out_dir()?.join(format!("{workload}.trace.json"));
    fs::write(&path, tracer.spans.chrome_trace(meta).encode()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Appends the run (meta + every metric) as one line of `history.jsonl`.
pub fn append_history(r: &RunResult) -> Result<(), String> {
    let mut members = r.info.clone();
    members.push(("correct".into(), Value::Bool(r.correct)));
    members.push(("attempted".into(), Value::Num(r.attempted as f64)));
    members.push(("failed".into(), Value::Num(r.failed as f64)));
    members.push((
        "problems".into(),
        Value::Arr(r.problems.iter().cloned().map(Value::Str).collect()),
    ));
    members.push((
        "metrics".into(),
        Value::Obj(
            r.metrics
                .iter()
                .map(|m| (m.name.to_string(), Value::Num(m.value)))
                .collect(),
        ),
    ));
    let path = out_dir()?.join("history.jsonl");
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{}", Value::Obj(members).encode()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Indented encoding for files people read (`BENCHMARK.json`, `aa.json`).
pub fn pretty(v: &Value) -> String {
    fn go(v: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        let scalar_items = |items: &[Value]| items.iter().all(|i| !matches!(i, Value::Arr(_) | Value::Obj(_)));
        match v {
            Value::Arr(items) if !items.is_empty() && !scalar_items(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    // One record per line keeps the metric tables scannable.
                    out.push_str(&item.encode_spaced());
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Value::Obj(members) if depth == 0 => {
                out.push_str("{\n");
                for (i, (k, val)) in members.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Value::Str(k.clone()).encode());
                    out.push_str(": ");
                    go(val, depth + 1, out);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push('}');
            }
            other => out.push_str(&other.encode_spaced()),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out
}

/// One child run: this binary, the driver's protocol, a fresh process.
/// Returns the parsed result line.
fn child_run(workload: Workload, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name(), out.status));
    }
    json::parse(line).map_err(|e| format!("{}: result line: {e}", workload.name()))
}

/// `(name, value, unit)` of every metric in a result line, in order.
fn metrics_of(line: &Value) -> Vec<(String, f64, String)> {
    line.get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// `run`: every workload once timed and once traced, each in a fresh child
/// process, then one table of every metric by name with its unit.
pub fn run_all(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let mut table: Vec<(Workload, bool, Result<Value, String>)> = Vec::new();
    for w in Workload::ALL {
        for traced in [false, true] {
            eprintln!("== {} ({}) ==", w.name(), if traced { "traced" } else { "timed" });
            table.push((w, traced, child_run(w, seed, seconds, traced, smoke)));
        }
    }
    let mut ok = true;
    println!("{:<14} {:<38} {:>18} unit", "workload", "metric", "value");
    for (w, traced, result) in &table {
        match result {
            Ok(line) => {
                let correct = line.get("correct").and_then(Value::as_bool) == Some(true);
                ok &= correct;
                println!(
                    "{:<14} {:<38} {:>18} attempted {} failed {}",
                    w.name(),
                    if *traced { "(traced run)" } else { "(timed run)" },
                    if correct { "correct" } else { "INCORRECT" },
                    line.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
                    line.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
                );
                for (name, value, unit) in metrics_of(line) {
                    println!("{:<14} {:<38} {:>18.6} {}", w.name(), name, value, unit);
                }
            }
            Err(e) => {
                ok = false;
                println!("{:<14} {:<38} {:>18}", w.name(), e, "FAILED");
            }
        }
    }
    println!(
        "seed {seed}, {seconds} s per phase{}; history and traces under benchmark/out/",
        if smoke { " (smoke)" } else { "" }
    );
    Ok(ok)
}

/// Signed share by which `b` is worse than `a` (positive = worse).
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let d = if better == "higher" { a - b } else { b - a };
    if a != 0.0 {
        d / a.abs()
    } else {
        0.0
    }
}

/// `aa`: two sets of `sets` alternating runs of the same binary, every run
/// on another seed. Per workload × end-to-end metric it prints both
/// medians, the spread (interquartile distance over median, as Python's
/// `statistics.quantiles(v, n=4)` gives it) and how much worse the second
/// median is, fails if either exceeds the metric's bound (the spread of
/// `setup_s` is exempt), and writes what it saw to `benchmark/out/aa.json`.
pub fn aa(sets: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    if sets < 2 {
        return Err("--sets: quartiles need at least 2 runs per set".into());
    }
    let mut ok = true;
    let mut records = Vec::new();
    println!(
        "{:<13} {:<15} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound"
    );
    for w in Workload::ALL {
        let mut runs: [Vec<Vec<(String, f64, String)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..sets {
            for (set, run) in runs.iter_mut().enumerate() {
                let s = seed + (2 * i + set) as u64;
                eprintln!("== {} set {} run {} (seed {s}) ==", w.name(), ["A", "B"][set], i + 1);
                let line = child_run(w, s, seconds, false, false)?;
                if line.get("correct").and_then(Value::as_bool) != Some(true) {
                    return Err(format!("{} seed {s}: run is not correct", w.name()));
                }
                run.push(metrics_of(&line));
            }
        }
        for m in &END_TO_END {
            let values = |set: usize| -> Vec<f64> {
                runs[set]
                    .iter()
                    .filter_map(|r| r.iter().find(|(n, _, _)| n == m.name).map(|(_, v, _)| *v))
                    .collect()
            };
            let (a, b) = (values(0), values(1));
            let spread = |v: &[f64]| {
                let (q1, q2, q3) = stats::quartiles(v);
                if q2 != 0.0 {
                    (q3 - q1) / q2.abs()
                } else {
                    0.0
                }
            };
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let (sa, sb) = (spread(&a), spread(&b));
            let worse = worse_by(ma, mb, m.better);
            let spread_fails = m.name != "setup_s" && sa.max(sb) > m.bound;
            let fails = spread_fails || worse > m.bound;
            ok &= !fails;
            println!(
                "{:<13} {:<15} {:>12.4} {:>12.4} {:>8.2}% {:>8.2}% {:>+8.2}% {:>6.0}%{}",
                w.name(),
                m.name,
                ma,
                mb,
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                m.bound * 100.0,
                if fails { "  FAIL" } else { "" }
            );
            records.push(Value::obj([
                ("workload", Value::Str(w.name().into())),
                ("metric", Value::Str(m.name.into())),
                ("unit", Value::Str(m.unit.into())),
                ("median_a", Value::Num(ma)),
                ("median_b", Value::Num(mb)),
                ("spread_a", Value::Num(sa)),
                ("spread_b", Value::Num(sb)),
                ("b_worse_by", Value::Num(worse)),
                ("bound", Value::Num(m.bound)),
                ("within_bound", Value::Bool(!fails)),
            ]));
        }
    }
    let doc = Value::obj([
        ("runs_per_set", Value::Num(sets as f64)),
        ("first_seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("run_seconds_in_spec", Value::Num(f64::from(spec::RUN_SECONDS))),
        ("nproc", Value::Num(crate::host::nproc() as f64)),
        ("git_rev", Value::Str(crate::host::git_rev())),
        ("records", Value::Arr(records)),
    ]);
    let path = out_dir()?.join("aa.json");
    fs::write(&path, pretty(&doc) + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: spreads written to {}",
        if ok { "PASS" } else { "FAIL" },
        path.display()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back() {
        let v = spec::benchmark_json();
        let text = pretty(&v);
        assert!(text.lines().count() > 50, "one record per line");
        assert_eq!(json::parse(&text).unwrap(), v);
    }

    #[test]
    fn worse_is_signed_by_direction() {
        assert!((worse_by(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "lower") + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 1.0, "lower"), 0.0);
    }
}
