//! Host-time benchmark of the LCM reproduction.
//!
//! ```text
//! lcm-hostbench --workload <paper-suite|hostile-capture|serve-mix>
//!               --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload runs in this one process on one simulation thread and
//! calls the public functions of `lcm-apps`, `lcm-replay` and
//! `lcm-serve`, timing the calls from outside. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from in-memory spans) and the tracing overhead with
//! `--trace 1`. See `README.md` for what each metric means.

mod hostile;
mod paper;
mod serve;
mod span;
mod util;

use span::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;
use util::Ledger;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Problem sizes: `Medium` is what the benchmark measures; `Smoke` keeps
/// the benchmark's own tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Medium,
    Smoke,
}

pub struct Params {
    pub seed: u64,
    /// Measured time the timed phase runs whole rounds for.
    pub seconds: f64,
    pub size: Size,
}

/// What one workload run produced.
pub struct Outcome {
    pub ledger: Ledger,
    /// End-to-end metrics, measured with or without tracing.
    pub e2e: Metrics,
    /// Per-layer metrics derived from the spans (empty when untraced).
    pub layers: Metrics,
}

pub const WORKLOADS: [&str; 3] = ["paper-suite", "hostile-capture", "serve-mix"];

/// The end-to-end metrics, every one reported by every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_refs_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("qps", "1/s"),
    ("warm_p50_ms", "ms"),
    ("cold_grid_s", "s"),
];

/// The per-layer metrics, every one reported by every workload: a layer
/// a workload leaves idle reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let systems = lcm_apps::SystemKind::all().map(|s| s.label());
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for b in lcm_apps::Benchmark::all() {
        for s in systems {
            m.push((format!("apps.execute_ms.{}.{s}", b.label()), "ms"));
        }
    }
    for s in systems {
        m.push((format!("sim.ns_per_ref.{s}"), "ns"));
    }
    let fixed: [(&str, &'static str); 20] = [
        ("apps.capture_ms", "ms"),
        ("apps.capture_ns_per_event", "ns"),
        ("replay.encode_ms", "ms"),
        ("replay.encode_ns_per_event", "ns"),
        ("replay.decode_ms", "ms"),
        ("replay.decode_ns_per_event", "ns"),
        ("replay.validate_ms", "ms"),
        ("replay.price_ns_per_event", "ns"),
        ("replay.critpath_ms", "ms"),
        ("replay.critpath_ns_per_event", "ns"),
        ("replay.bytes_per_event", "B"),
        ("serve.load_ms", "ms"),
        ("serve.engine_ms.differential", "ms"),
        ("serve.engine_ms.neighbor", "ms"),
        ("serve.replay_full_ms", "ms"),
        ("serve.replay_diff_ms", "ms"),
        ("serve.engine_us.cached", "us"),
        ("serve.wire_us", "us"),
        ("serve.warm_p99_ms", "ms"),
        ("trace.events", "count"),
    ];
    m.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for kind in ["refs", "msgs", "cycles"] {
        for s in systems {
            m.push((format!("sim.{kind}.{s}"), "count"));
        }
    }
    for n in [
        "tempest.retries",
        "tempest.duplicates",
        "sim.crashes",
        "sim.checkpoint_bytes",
        "sim.net_contention_cycles",
        "serve.queries.cached",
        "serve.queries.neighbor",
        "serve.queries.differential",
    ] {
        m.push((n.to_string(), "count"));
    }
    m.push(("serve.hit_ratio".to_string(), "ratio"));
    for (n, u) in END_TO_END {
        m.push((format!("overhead.{n}"), u));
    }
    m
}

fn run_workload(name: &str, p: &Params, tracer: &mut Tracer) -> Outcome {
    match name {
        "paper-suite" => paper::run(p, tracer),
        "hostile-capture" => hostile::run(p, tracer),
        "serve-mix" => serve::run(p, tracer),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(num()?),
            "--seconds" if num()? >= 1 => seconds = Some(num()?),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Renders the result line; `None` when a value is not a finite number.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> Option<String> {
    let mut parts = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return None;
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Some(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// Reads the end-to-end values back out of a result line this program
/// printed (the untraced child run of `--trace 1`).
fn parse_e2e(line: &str) -> Metrics {
    let mut m = Metrics::new();
    for (name, _) in END_TO_END {
        let key = format!("\"{name}\": {{\"value\": ");
        if let Some(at) = line.find(&key) {
            let rest = &line[at + key.len()..];
            let end = rest.find(',').unwrap_or(rest.len());
            if let Ok(v) = rest[..end].trim().parse() {
                m.insert(name.to_string(), v);
            }
        }
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lcm-hostbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds as f64,
        size: Size::Medium,
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome = run_workload(&args.workload, &params, &mut tracer);
    let mut ledger = outcome.ledger;
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        // The untraced figures come from a child run of this binary, so
        // its peak memory and caches are its own.
        let child = std::process::Command::new(std::env::current_exe().expect("own path"))
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output();
        let untraced = match child {
            Ok(out) if out.status.success() => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout.lines().last().unwrap_or("");
                // The child's checks count like this run's own.
                let count = |key: &str| {
                    let key = format!("\"{key}\": ");
                    line.find(&key).and_then(|at| {
                        line[at + key.len()..]
                            .split(',')
                            .next()?
                            .trim()
                            .parse::<u64>()
                            .ok()
                    })
                };
                match (count("attempted"), count("failed")) {
                    (Some(a), Some(f)) => {
                        ledger.attempted += a;
                        ledger.failed += f;
                        if f > 0 {
                            ledger
                                .failures
                                .push(format!("the untraced child run failed {f} operations"));
                        }
                    }
                    _ => ledger.check(false, || format!("unreadable child result: {line}")),
                }
                parse_e2e(line)
            }
            other => {
                eprintln!("error: untraced child run failed: {other:?}");
                return ExitCode::FAILURE;
            }
        };
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = match name.strip_prefix("overhead.") {
                    Some(m) => match (outcome.e2e.get(m), untraced.get(m)) {
                        (Some(t), Some(u)) => t - u,
                        _ => f64::NAN,
                    },
                    None => outcome.layers.get(&name).copied().unwrap_or(0.0),
                };
                (name, value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    outcome.e2e.get(name).copied().unwrap_or(f64::NAN),
                    unit,
                )
            })
            .collect()
    };
    for m in &metrics {
        eprintln!("  {:<40} {:>18.6} {}", m.0, m.1, m.2);
    }
    let mut json = result_json(
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        &metrics,
    );
    if json.is_none() {
        ledger.check(false, || "a metric was not a finite number".to_string());
        json = result_json(false, ledger.attempted, ledger.failed, &[]);
    }
    for f in &ledger.failures {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "{}: attempted {} operations, {} failed",
        args.workload, ledger.attempted, ledger.failed
    );
    println!("{}", json.expect("an empty metric list renders"));
    ExitCode::SUCCESS
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A workload's outcome names every end-to-end metric with a finite,
    /// positive value, and only per-layer metrics of the catalogue.
    pub fn assert_complete(out: &Outcome) {
        let names: Vec<&str> = out.e2e.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(
            out.e2e.values().all(|v| v.is_finite() && *v > 0.0),
            "{:?}",
            out.e2e
        );
        let catalogue = per_layer();
        for name in out.layers.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "{name} not in the catalogue"
            );
        }
    }

    #[test]
    fn result_line_round_trips() {
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (n, u))| (n.to_string(), 0.5 + i as f64, *u))
            .collect();
        let line = result_json(true, 3, 0, &metrics).unwrap();
        let back = parse_e2e(&line);
        assert_eq!(back.len(), END_TO_END.len());
        assert_eq!(back["qps"], 4.5);
        assert!(result_json(true, 1, 0, &[("x".into(), f64::NAN, "s")]).is_none());
    }

    /// `BENCHMARK.json` names every metric this program prints, with the
    /// same unit, and nothing else.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        names.extend(per_layer());
        for (name, unit) in &names {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), names.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{w}\"")), "{w}");
        }
        assert!(per_layer().len() <= 128);
    }
}
