//! `bench_gate` — perf-regression gate over the committed `BENCH_*.json`
//! artifacts.
//!
//! Usage: `bench_gate <baseline_dir> <current_dir>`
//!
//! Each artifact is a flat report: a top-level object with one or more row
//! arrays (`results` for the headline sweep; `BENCH_serve.json` also has
//! `sharded_scaling`, `BENCH_gemm.json` the raw-vs-prepacked `weights`
//! products, the two-driver `skinny` sweep and its `skinny_decode_speedup`
//! floors). Rows are joined across the two directories on a
//! per-bench identity key that includes the workload shape (so a FAST-mode
//! run, which shrinks GEMM shapes, simply produces zero key overlap with a
//! full-mode baseline instead of nonsense ratios — the gate reports that
//! as a mode mismatch). A baseline that predates a newer section skips that
//! section with a warning instead of failing — the next committed artifact
//! picks it up. Per-metric tolerance bands:
//!
//! * `MIN_RATE_RATIO` (`0.5`) — throughput-like metrics (GFLOP/s,
//!   goodput, decode tokens/s) must stay at or above this fraction of
//!   baseline.
//! * `MAX_LATENCY_RATIO` (`2.0`) — latency-like metrics (p99, pool
//!   launch µs) must stay at or below this multiple of baseline.
//!
//! Accounting booleans (`accounting_exact`, `step_ledger_exact`) have no
//! band: a baseline `true` must stay `true`. Rows present on only one side
//! warn; a regression or an unparsable/missing current artifact fails the
//! gate (exit 1).

use std::process::exit;

/// Throughput floor as a fraction of the committed baseline.
const MIN_RATE_RATIO: f64 = 0.5;
/// Latency ceiling as a multiple of the committed baseline.
const MAX_LATENCY_RATIO: f64 = 2.0;

// --- minimal JSON value parser --------------------------------------------
// The artifacts are machine-emitted (see the benches' `fs::write` calls),
// so this parser covers exactly the JSON subset they produce: objects,
// arrays, strings without escapes beyond \" and \\, numbers, booleans,
// null. No external dependency.

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Canonical scalar rendering for identity keys.
    fn key_repr(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Json::Str(s) => s.clone(),
            _ => "<composite>".to_string(),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser { s: s.as_bytes(), i: 0 }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                c as char, self.i, got as char
            ));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found '{}'",
                        self.i, other as char
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found '{}'",
                        self.i, other as char
                    ))
                }
            }
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

// --- gate specification ----------------------------------------------------

/// How a metric may move relative to baseline.
#[derive(Clone, Copy, Debug)]
enum Band {
    /// Throughput: `current >= MIN_RATE_RATIO * baseline`.
    RateMin,
    /// Latency: `current <= MAX_LATENCY_RATIO * baseline`.
    LatencyMax,
    /// Count that must not shrink: `current >= baseline`, no band.
    CountMin,
    /// A baseline `true` must stay `true`.
    BoolExact,
    /// Self-describing floor: the *current* row must satisfy
    /// `current[metric] >= current[floor_field]` — the row carries its own
    /// acceptance bound (e.g. `goodput_ratio_vs_1 >= ratio_floor`), so the
    /// check does not drift with the baseline.
    SelfFloor {
        /// Field on the same row holding the floor value.
        floor_field: &'static str,
    },
}

struct Spec {
    file: &'static str,
    /// Top-level array holding this spec's rows.
    section: &'static str,
    key_fields: &'static [&'static str],
    metrics: &'static [(&'static str, Band)],
}

const SPECS: &[Spec] = &[
    Spec {
        file: "BENCH_gemm.json",
        section: "results",
        key_fields: &["name", "tier", "prec", "m", "n", "k"],
        metrics: &[("gflops", Band::RateMin)],
    },
    // The encoder's weight products from a raw slice and from a PackedB
    // (`gemm_isa` weights section): each row holds its rate.
    Spec {
        file: "BENCH_gemm.json",
        section: "weights",
        key_fields: &["name", "tier", "form", "m", "n", "k"],
        metrics: &[("gflops", Band::RateMin)],
    },
    // Both f32 drivers at the decode weight shapes (`gemm_isa` skinny
    // sweep): each row holds its rate, and at decode row counts the skinny
    // driver must keep its self-declared lead over the packed one.
    Spec {
        file: "BENCH_gemm.json",
        section: "skinny",
        key_fields: &["name", "tier", "driver", "m", "n", "k"],
        metrics: &[("gflops", Band::RateMin)],
    },
    Spec {
        file: "BENCH_gemm.json",
        section: "skinny_decode_speedup",
        key_fields: &["name", "tier", "m"],
        metrics: &[(
            "skinny_vs_packed",
            Band::SelfFloor {
                floor_field: "speedup_floor",
            },
        )],
    },
    Spec {
        file: "BENCH_pool.json",
        section: "results",
        key_fields: &["kernel", "batch", "seq"],
        metrics: &[("pool_us", Band::LatencyMax)],
    },
    Spec {
        file: "BENCH_serve.json",
        section: "results",
        key_fields: &["policy", "load", "offered"],
        metrics: &[
            ("goodput_tokens_per_sec", Band::RateMin),
            ("p99_ms", Band::LatencyMax),
            ("accounting_exact", Band::BoolExact),
        ],
    },
    Spec {
        file: "BENCH_serve.json",
        section: "sharded_scaling",
        key_fields: &["shards"],
        metrics: &[
            ("goodput_tokens_per_sec", Band::RateMin),
            (
                "goodput_ratio_vs_1",
                Band::SelfFloor {
                    floor_field: "ratio_floor",
                },
            ),
            ("accounting_exact", Band::BoolExact),
        ],
    },
    Spec {
        file: "BENCH_decode.json",
        section: "results",
        key_fields: &["max_sessions", "offered"],
        metrics: &[
            ("decode_tokens_per_sec", Band::RateMin),
            ("sustained_sessions", Band::CountMin),
            ("accounting_exact", Band::BoolExact),
            ("step_ledger_exact", Band::BoolExact),
        ],
    },
];

/// The spec's row array, or `None` when the document predates the section
/// (the caller decides whether that skips or fails).
fn rows(doc: &Json, section: &str) -> Option<Vec<Json>> {
    match doc.get(section) {
        Some(Json::Arr(items)) => Some(items.clone()),
        _ => None,
    }
}

fn row_key(row: &Json, fields: &[&str]) -> String {
    fields
        .iter()
        .map(|f| row.get(f).map_or_else(|| "?".to_string(), Json::key_repr))
        .collect::<Vec<_>>()
        .join("/")
}

fn load(dir: &str, file: &str) -> Option<Json> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).ok()?;
    match parse_json(&text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("bench_gate: failed to parse {path}: {e}");
            exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir, current_dir] = match args.as_slice() {
        [b, c] => [b.clone(), c.clone()],
        _ => {
            eprintln!("usage: bench_gate <baseline_dir> <current_dir>");
            exit(2);
        }
    };
    println!("bench_gate: rate floor {MIN_RATE_RATIO:.2}x baseline, latency ceiling {MAX_LATENCY_RATIO:.2}x baseline");

    let mut failures = 0usize;
    let mut warnings = 0usize;
    for spec in SPECS {
        let Some(base_doc) = load(&baseline_dir, spec.file) else {
            println!("--  {}: no committed baseline, skipping", spec.file);
            warnings += 1;
            continue;
        };
        let Some(cur_doc) = load(&current_dir, spec.file) else {
            println!("FAIL {}: current artifact missing (bench did not emit it)", spec.file);
            failures += 1;
            continue;
        };
        let Some(base_rows) = rows(&base_doc, spec.section) else {
            // A freshly introduced section has no committed baseline yet —
            // that is expected exactly once, when the section ships.
            println!(
                "--  {} [{}]: baseline predates this section, skipping",
                spec.file, spec.section
            );
            warnings += 1;
            continue;
        };
        let Some(cur_rows) = rows(&cur_doc, spec.section) else {
            if spec.section == "results" {
                eprintln!("bench_gate: {} has no `results` array", spec.file);
                exit(2);
            }
            println!(
                "FAIL {} [{}]: section missing from current run (bench stopped emitting it)",
                spec.file, spec.section
            );
            failures += 1;
            continue;
        };
        let mut compared = 0usize;
        let mut file_failures = 0usize;
        for brow in &base_rows {
            let key = row_key(brow, spec.key_fields);
            let Some(crow) = cur_rows.iter().find(|r| row_key(r, spec.key_fields) == key) else {
                println!("warn {}: row {key} missing from current run", spec.file);
                warnings += 1;
                continue;
            };
            compared += 1;
            for &(metric, band) in spec.metrics {
                let (bv, cv) = (brow.get(metric), crow.get(metric));
                match band {
                    Band::BoolExact => {
                        if bv == Some(&Json::Bool(true)) && cv != Some(&Json::Bool(true)) {
                            println!("FAIL {}: {key} {metric} regressed from true", spec.file);
                            file_failures += 1;
                        }
                    }
                    Band::SelfFloor { floor_field } => {
                        let (Some(c), Some(floor)) = (
                            crow.get(metric).and_then(Json::as_f64),
                            crow.get(floor_field).and_then(Json::as_f64),
                        ) else {
                            println!(
                                "warn {}: {key} {metric}/{floor_field} not numeric in current run",
                                spec.file
                            );
                            warnings += 1;
                            continue;
                        };
                        if c < floor {
                            println!(
                                "FAIL {}: {key} {metric} = {c:.3} below its own floor {floor:.3}",
                                spec.file
                            );
                            file_failures += 1;
                        }
                    }
                    Band::RateMin | Band::LatencyMax | Band::CountMin => {
                        let (Some(b), Some(c)) = (bv.and_then(Json::as_f64), cv.and_then(Json::as_f64)) else {
                            println!("warn {}: {key} {metric} not numeric on both sides", spec.file);
                            warnings += 1;
                            continue;
                        };
                        let (ok, bound) = match band {
                            Band::RateMin => (c >= MIN_RATE_RATIO * b, format!(">= {:.3}", MIN_RATE_RATIO * b)),
                            Band::LatencyMax => {
                                (c <= MAX_LATENCY_RATIO * b, format!("<= {:.3}", MAX_LATENCY_RATIO * b))
                            }
                            _ => (c >= b, format!(">= {b:.3}")),
                        };
                        if !ok {
                            println!(
                                "FAIL {}: {key} {metric} = {c:.3} (baseline {b:.3}, required {bound})",
                                spec.file
                            );
                            file_failures += 1;
                        }
                    }
                }
            }
        }
        for crow in &cur_rows {
            let key = row_key(crow, spec.key_fields);
            if !base_rows.iter().any(|r| row_key(r, spec.key_fields) == key) {
                println!("warn {}: new row {key} has no baseline yet", spec.file);
                warnings += 1;
            }
        }
        if compared == 0 {
            println!(
                "FAIL {}: zero overlapping rows between baseline and current — \
                 likely a BT_BENCH_FAST/full mode mismatch (FAST shrinks workload \
                 shapes, changing every row key)",
                spec.file
            );
            failures += 1;
        } else if file_failures == 0 {
            println!(
                "ok   {} [{}]: {compared} rows within tolerance",
                spec.file, spec.section
            );
        }
        failures += file_failures;
    }
    println!("bench_gate: {failures} regression(s), {warnings} warning(s)");
    if failures > 0 {
        exit(1);
    }
}
