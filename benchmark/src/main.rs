//! Wall-clock benchmark of the real runtime.
//!
//! ```text
//! bt-wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's protocol)
//! bt-wallbench run  [--seed <n>] [--seconds <s>] [--smoke]               every workload, timed + traced
//! bt-wallbench aa   [--sets <n>] [--seed <n>] [--seconds <s>]            two alternating sets of the same binary
//! bt-wallbench spec [--markdown]                                         print BENCHMARK.json (or the README tables)
//! ```
//!
//! A run prints progress on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! telemetry is off (`bt_obs::set_enabled(false)`, `Device::untraced`) and
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones and `benchmark/out/<workload>.trace.json` is written.

mod decode;
mod encoder;
mod gen;
mod host;
mod json;
mod metrics;
mod phase;
mod probes;
mod report;
mod serve;
mod span;
mod spec;
mod stats;
mod tracer;

use json::Value;
use metrics::Metric;
use phase::Phase;
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of a traced run's seconds spent untraced first, as the baseline
/// `obs.trace_overhead_frac` compares against.
const UNTRACED_SHARE: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EncShort,
    EncLong,
    ServeOpen,
    ServeBurst,
    DecodePaged,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::EncShort,
        Workload::EncLong,
        Workload::ServeOpen,
        Workload::ServeBurst,
        Workload::DecodePaged,
    ];

    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].name
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tail percentile `op_ms_tail` reports: the highest of p75 / p90 /
    /// p95 / p99 that leaves at least ten samples beyond it at the op count
    /// this workload reaches in `spec::RUN_SECONDS` on the reference host.
    /// Fixed per workload so that runs compare the same percentile.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::EncShort | Workload::EncLong | Workload::ServeOpen => 0.75,
            Workload::ServeBurst | Workload::DecodePaged => 0.90,
        }
    }
}

/// One run's arguments.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// One run's result: the JSON line plus what the history file keeps.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub info: Vec<(String, Value)>,
}

impl RunResult {
    /// The driver's result line.
    pub fn line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Value::obj([("value", Value::Num(m.value)), ("unit", Value::Str(m.unit.into()))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .encode()
    }
}

/// A workload behind one interface: build, check outputs, measure.
trait Bench {
    /// Builds model, weights and inputs from the seed and warms up.
    fn setup(args: &RunArgs) -> Self;
    /// Output checks before timing; returns the informational output digest.
    fn check(&self) -> Result<u64, String>;
    /// Measures for `seconds`; `tracer` is `Some` in the traced phase.
    fn measure(&self, seconds: f64, tracer: Option<Tracer>) -> (Phase, Option<Tracer>);
}

struct Enc(encoder::Setup);
struct Serve(serve::Setup);
struct Decode(decode::Setup);

impl Bench for Enc {
    fn setup(a: &RunArgs) -> Self {
        let shape = if a.workload == Workload::EncShort {
            encoder::SHORT
        } else {
            encoder::LONG
        };
        Enc(encoder::setup(if a.smoke { shape.smoke() } else { shape }, a.seed))
    }
    fn check(&self) -> Result<u64, String> {
        encoder::check(&self.0)
    }
    fn measure(&self, seconds: f64, mut tracer: Option<Tracer>) -> (Phase, Option<Tracer>) {
        (encoder::measure(&self.0, seconds, tracer.as_mut()), tracer)
    }
}

impl Bench for Serve {
    fn setup(a: &RunArgs) -> Self {
        let shape = if a.workload == Workload::ServeOpen {
            serve::OPEN
        } else {
            serve::BURST
        };
        Serve(serve::setup(if a.smoke { shape.smoke() } else { shape }, a.seed))
    }
    fn check(&self) -> Result<u64, String> {
        serve::check(&self.0)
    }
    fn measure(&self, seconds: f64, tracer: Option<Tracer>) -> (Phase, Option<Tracer>) {
        serve::measure(&self.0, seconds, tracer)
    }
}

impl Bench for Decode {
    fn setup(a: &RunArgs) -> Self {
        Decode(decode::setup(
            if a.smoke { decode::PAGED.smoke() } else { decode::PAGED },
            a.seed,
        ))
    }
    fn check(&self) -> Result<u64, String> {
        decode::check(&self.0)
    }
    fn measure(&self, seconds: f64, mut tracer: Option<Tracer>) -> (Phase, Option<Tracer>) {
        (decode::measure(&self.0, seconds, tracer.as_mut()), tracer)
    }
}

/// Runs one workload once, in this process.
pub fn run_one(args: &RunArgs) -> RunResult {
    match args.workload {
        Workload::EncShort | Workload::EncLong => drive::<Enc>(args),
        Workload::ServeOpen | Workload::ServeBurst => drive::<Serve>(args),
        Workload::DecodePaged => drive::<Decode>(args),
    }
}

fn drive<B: Bench>(args: &RunArgs) -> RunResult {
    let name = args.workload.name();
    // Telemetry off for everything but the traced phase.
    bt_obs::set_enabled(false);

    // Set-up, several times; the last one is kept and measured.
    let setups = if args.traced || args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut bench = None;
    for _ in 0..setups {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(B::setup(args));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");
    let setup_s = stats::median(&setup_s);
    eprintln!("[{name}] set-up {setup_s:.3} s (median of {setups})");

    let mut problems = Vec::new();
    let digest = match bench.check() {
        Ok(d) => d,
        Err(e) => {
            problems.push(format!("output check: {e}"));
            0
        }
    };

    let pool_width = rayon::current_num_threads();
    let mut info = vec![
        ("workload".to_string(), Value::Str(name.into())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("traced".into(), Value::Bool(args.traced)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("isa".into(), Value::Str(bt_gemm::active_isa().name().into())),
        (
            "precision".into(),
            Value::Str(bt_gemm::active_precision().name().into()),
        ),
        ("pool_width".into(), Value::Num(pool_width as f64)),
        ("nproc".into(), Value::Num(host::nproc() as f64)),
        ("git_rev".into(), Value::Str(host::git_rev())),
        ("output_digest".into(), Value::Str(format!("{digest:016x}"))),
        ("tail_pct".into(), Value::Num(args.workload.tail_pct())),
    ];

    let (phase, metrics) = if args.traced {
        let (untraced, _) = bench.measure(args.seconds * UNTRACED_SHARE, None);
        let probes = probes::run(args.smoke);
        bt_obs::set_enabled(true);
        let before = tracer::read_counters();
        let (traced, tr) = bench.measure(args.seconds * (1.0 - UNTRACED_SHARE), Some(Tracer::new(name)));
        let counters = tracer::CounterDelta::new(before, tracer::read_counters());
        let ring_drops = bt_obs::drain().dropped;
        bt_obs::set_enabled(false);
        let mut tr = tr.expect("the traced phase returns its tracer");
        tr.finish();
        if args.workload == Workload::DecodePaged
            && counters.get("kvcache.sessions.opened") != counters.get("kvcache.sessions.freed")
        {
            problems.push("kvcache.sessions.opened != kvcache.sessions.freed".into());
        }
        problems.extend(untraced.violations.iter().map(|v| format!("untraced phase: {v}")));
        let metrics = metrics::per_layer(&metrics::LayerInputs {
            traced: &traced,
            untraced: &untraced,
            tracer: &tr,
            counters: &counters,
            probes: &probes,
            ring_drops,
            pool_width,
            tail_pct: args.workload.tail_pct(),
        });
        info.push(("triad_array_bytes".into(), Value::Num(probes::TRIAD_ARRAY_BYTES as f64)));
        info.push(("spans".into(), Value::Num(tr.spans.spans().len() as f64)));
        match report::write_trace(name, &tr, Value::Obj(info.clone())) {
            Ok(path) => eprintln!("[{name}] trace written to {path}"),
            Err(e) => eprintln!("[{name}] trace not written: {e}"),
        }
        (traced, metrics)
    } else {
        let (phase, _) = bench.measure(args.seconds, None);
        let metrics = metrics::end_to_end(&phase, setup_s, host::peak_rss_mb(), args.workload.tail_pct());
        (phase, metrics)
    };

    problems.extend(phase.violations.iter().cloned());
    let beyond = stats::samples_beyond(phase.op_ms.len(), args.workload.tail_pct());
    if beyond < 10 && !args.smoke {
        eprintln!(
            "[{name}] note: only {beyond} of {} samples lie beyond p{:.0}",
            phase.op_ms.len(),
            args.workload.tail_pct() * 100.0
        );
    }
    if phase.steal.of_total > 0.25 {
        eprintln!(
            "[{name}] note: host steal {:.0} % during the measured phase",
            phase.steal.of_total * 100.0
        );
    }
    let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
    info.push(("op_ms".into(), nums(&phase.op_ms)));
    info.push(("op_wall_ms".into(), nums(&phase.op_wall_ms)));
    info.push(("measured_wall_s".into(), Value::Num(phase.wall_s)));
    info.push(("cpu_s".into(), Value::Num(phase.cpu_s)));
    info.push(("host_steal_frac".into(), Value::Num(phase.steal.of_total)));
    info.push(("host_steal_of_wanted".into(), Value::Num(phase.steal.of_wanted)));
    info.push(("segment_tok_per_s".into(), nums(&phase.segment_tok_per_s)));
    for p in &problems {
        eprintln!("[{name}] FAILED CHECK: {p}");
    }
    RunResult {
        correct: problems.is_empty() && phase.attempted > 0,
        attempted: phase.attempted.max(1),
        failed: phase.failed,
        metrics,
        problems,
        info,
    }
}

/// `--key value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// `--seconds`, defaulting to the spec's run length (half a second per
/// phase under `--smoke`).
fn seconds_arg(flags: &Flags) -> Result<f64, String> {
    let default = if flags.has("--smoke") {
        0.5
    } else {
        f64::from(spec::RUN_SECONDS)
    };
    let s: f64 = flags.parsed("--seconds", default)?;
    if s.is_finite() && s > 0.0 && s <= 120.0 {
        Ok(s)
    } else {
        Err(format!("--seconds: {s} is outside (0, 120]"))
    }
}

fn main_inner() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match argv.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s.to_string(), argv[1..].to_vec()),
        _ => ("one".to_string(), argv),
    };
    let flags = Flags(rest);
    match sub.as_str() {
        "one" => {
            let name = flags.value("--workload").ok_or("--workload <name> is required")?;
            let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            let args = RunArgs {
                workload,
                seed: flags.parsed("--seed", 1)?,
                seconds: seconds_arg(&flags)?,
                traced: match flags.value("--trace") {
                    None | Some("0") => false,
                    Some("1") => true,
                    Some(v) => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                },
                smoke: flags.has("--smoke"),
            };
            let result = run_one(&args);
            if let Err(e) = report::append_history(&result) {
                eprintln!("history not written: {e}");
            }
            println!("{}", result.line());
            Ok(result.correct)
        }
        "run" => report::run_all(flags.parsed("--seed", 1)?, seconds_arg(&flags)?, flags.has("--smoke")),
        "aa" => report::aa(
            flags.parsed("--sets", 5)?,
            flags.parsed("--seed", 1)?,
            seconds_arg(&flags)?,
        ),
        "spec" if flags.has("--markdown") => {
            print!("{}", spec::markdown());
            Ok(true)
        }
        "spec" => {
            println!("{}", report::pretty(&spec::benchmark_json()));
            Ok(true)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bt-wallbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke`: every workload at a fraction of its size through the timed
    /// and the traced path, in one test because telemetry and the pool are
    /// process-wide.
    #[test]
    fn smoke_runs_every_workload_timed_and_traced() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let r = run_one(&RunArgs {
                    workload,
                    seed: 7,
                    seconds: 0.4,
                    traced,
                    smoke: true,
                });
                let name = workload.name();
                assert!(r.correct, "{name} traced={traced}: {:?}", r.problems);
                assert!(r.attempted >= 1 && r.failed == 0, "{name}: {} failed", r.failed);
                let expected = if traced {
                    spec::PER_LAYER.len()
                } else {
                    spec::END_TO_END.len()
                };
                assert_eq!(
                    r.metrics.len(),
                    expected,
                    "{name}: every metric of the table is reported"
                );
                assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{name}: {:?}", r.metrics);
                assert!(json::parse(&r.line()).is_ok());
                if traced {
                    let value = |n: &str| r.metrics.iter().find(|m| m.name == n).expect(n).value;
                    assert!(value("device.launches_per_op") > 0.0, "{name}: kernels were recorded");
                    assert!(value("host.peak_gflops") > 0.0);
                    // The budget adds up: kernels cover most of each op.
                    assert!(
                        value("device.host_gap_frac") < 0.5,
                        "{name}: {}",
                        value("device.host_gap_frac")
                    );
                    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
                    let trace = std::fs::read_to_string(format!("{path}/{name}.trace.json")).expect("trace file");
                    let doc = json::parse(&trace).expect("trace parses");
                    assert!(doc
                        .get("traceEvents")
                        .and_then(Value::as_arr)
                        .is_some_and(|e| e.len() > 3));
                } else {
                    assert!(
                        r.metrics.iter().all(|m| m.value > 0.0),
                        "{name}: end-to-end metrics are never 0: {:?}",
                        r.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn workload_names_follow_the_spec_table() {
        for (w, s) in Workload::ALL.iter().zip(&spec::WORKLOADS) {
            assert_eq!(w.name(), s.name);
            assert_eq!(Workload::parse(s.name), Some(*w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
