//! `paper-suite`: the six Table 1 / Fig. 2 / Fig. 3 programs on Stache,
//! LCM-scc and LCM-mcc, run one after another in repeated passes on a
//! reliable network with the fabric off. It never captures, replays or
//! serves, so a replay or serve change must leave it unchanged.

use crate::span::Tracer;
use crate::util::{median, peak_rss_mb, report, timed, Errors, Ledger, Rng};
use crate::{Metrics, Outcome, Params, Size};
use lcm_apps::adaptive::Adaptive;
use lcm_apps::stencil::Stencil;
use lcm_apps::threshold::Threshold;
use lcm_apps::unstructured::Unstructured;
use lcm_apps::{execute, Benchmark, RunResult, Scale, Suite, SystemKind, Workload};
use lcm_cstar::{Partition, RuntimeConfig};
use std::collections::BTreeMap;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Smoke-scale suites per set-up.
const SUITES_PER_SETUP: usize = 4;

/// One program of the suite with the sizes `Benchmark::run` uses at the
/// matching scale. The check reference is the library's own `Suite`, and
/// every timed run's digest must equal it, so a drift between these
/// sizes and the library's shows as a failed check.
#[derive(Clone, Copy)]
pub enum Program {
    Stencil(Stencil),
    Adaptive(Adaptive),
    Threshold(Threshold),
    Unstructured(Unstructured),
}

pub fn scale(size: Size) -> Scale {
    match size {
        Size::Medium => Scale::Medium,
        Size::Smoke => Scale::Smoke,
    }
}

pub fn program(b: Benchmark, size: Size) -> Program {
    let part = |b: Benchmark| match b {
        Benchmark::StencilStat | Benchmark::AdaptiveStat => Partition::Static,
        _ => Partition::Dynamic,
    };
    match (b, size) {
        (Benchmark::StencilStat | Benchmark::StencilDyn, Size::Medium) => {
            Program::Stencil(Stencil {
                rows: 256,
                cols: 256,
                iters: 15,
                partition: part(b),
            })
        }
        (Benchmark::StencilStat | Benchmark::StencilDyn, Size::Smoke) => {
            Program::Stencil(Stencil::small(part(b)))
        }
        (Benchmark::AdaptiveStat | Benchmark::AdaptiveDyn, Size::Medium) => {
            Program::Adaptive(Adaptive {
                size: 64,
                iters: 40,
                ..Adaptive::paper(part(b))
            })
        }
        (Benchmark::AdaptiveStat | Benchmark::AdaptiveDyn, Size::Smoke) => {
            Program::Adaptive(Adaptive::small(part(b)))
        }
        (Benchmark::Threshold, Size::Medium) => Program::Threshold(Threshold {
            size: 256,
            iters: 15,
            threshold: 1.0,
            sources: 6,
        }),
        (Benchmark::Threshold, Size::Smoke) => Program::Threshold(Threshold::small()),
        (Benchmark::Unstructured, Size::Medium) => Program::Unstructured(Unstructured {
            iters: 100,
            ..Unstructured::paper()
        }),
        (Benchmark::Unstructured, Size::Smoke) => Program::Unstructured(Unstructured::small()),
    }
}

/// What one run produced: its output rendered for comparison, the
/// Stencil checksum when there is one, and the measurements.
pub struct Ran {
    pub output: String,
    pub checksum: Option<u64>,
    pub result: RunResult,
}

impl Program {
    pub fn run(&self, system: SystemKind, nodes: usize) -> Ran {
        fn go<W: Workload>(w: &W, system: SystemKind, nodes: usize) -> (W::Output, RunResult) {
            execute(system, nodes, RuntimeConfig::default(), w)
        }
        match self {
            Program::Stencil(w) => {
                let (out, result) = go(w, system, nodes);
                Ran {
                    output: format!("{out:?}"),
                    checksum: Some(out),
                    result,
                }
            }
            Program::Adaptive(w) => ran(go(w, system, nodes)),
            Program::Threshold(w) => ran(go(w, system, nodes)),
            Program::Unstructured(w) => ran(go(w, system, nodes)),
        }
    }
}

fn ran<O: std::fmt::Debug>((out, result): (O, RunResult)) -> Ran {
    Ran {
        output: format!("{out:?}"),
        checksum: None,
        result,
    }
}

/// The reference the Stencil checksums are checked against: a plain
/// sequential Jacobi sweep over the same mesh, written here and sharing
/// no code with the C** runtime or the protocols.
pub fn jacobi_checksum(rows: usize, cols: usize, iters: usize) -> u64 {
    let mut cur: Vec<f32> = (0..rows * cols)
        .map(|i| if i < cols { 100.0 } else { 0.0 })
        .collect();
    let mut next = cur.clone();
    for _ in 0..iters {
        for r in 1..rows.saturating_sub(1) {
            for c in 1..cols - 1 {
                let sum = cur[(r - 1) * cols + c]
                    + cur[(r + 1) * cols + c]
                    + cur[r * cols + c - 1]
                    + cur[r * cols + c + 1];
                next[r * cols + c] = sum * 0.25;
            }
        }
        cur.copy_from_slice(&next);
    }
    cur.iter().fold(0u64, |h, v| {
        h.wrapping_mul(31).wrapping_add(v.to_bits() as u64)
    })
}

/// The checks of one timed run: its counters against the library's suite,
/// its Stencil checksum against the sequential reference, and its output
/// against the same program's output on the other systems in the pass.
fn check_run(d: &Done, pass: &[Done], reference: &RunResult, jacobi: Option<u64>) -> Vec<String> {
    let mut errs = Errors::default();
    let what = format!("{}/{}", d.bench, d.system);
    errs.check(d.ran.result.digest() == reference.digest(), || {
        format!("{what}: simulated counters differ from the library's suite run")
    });
    if let (Some(sum), Some(want)) = (d.ran.checksum, jacobi) {
        errs.check(sum == want, || {
            format!("{what}: checksum {sum:#x} differs from sequential Jacobi {want:#x}")
        });
    }
    for other in pass.iter().filter(|o| o.bench == d.bench) {
        errs.check(other.ran.output == d.ran.output, || {
            format!("{what}: output differs from {}", other.system)
        });
    }
    errs.0
}

/// One timed program run of a pass.
struct Done {
    bench: Benchmark,
    system: SystemKind,
    ran: Ran,
    ms: f64,
}

pub fn run(p: &Params, tracer: &mut Tracer) -> Outcome {
    let scale = scale(p.size);
    let nodes = scale.nodes();
    let mut ledger = Ledger::default();

    // Set-up, repeated: a warm-up that builds and runs every program on
    // every system, as the library's serial suite at smoke scale. One
    // suite takes about 60 ms, so a set-up runs it `SUITES_PER_SETUP`
    // times to stand well clear of timer and scheduler noise.
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t0 = std::time::Instant::now();
        for _ in 0..SUITES_PER_SETUP {
            std::hint::black_box(Suite::run(Scale::Smoke));
        }
        let t1 = std::time::Instant::now();
        tracer.record("apps.suite", &format!("set-up {i}"), None, t0, t1);
        setup_s.push((t1 - t0).as_secs_f64());
    }

    // The check reference, outside the measured intervals: the library's
    // serial suite at the measured scale yields the §6.3 claims and the
    // digests every timed run must repeat.
    let suite = Suite::run(scale);
    if p.size == Size::Medium {
        // The claims are stated for medium scale and up; smoke sizes do
        // not preserve the paper's orderings.
        for c in suite.claims() {
            ledger.check(c.holds, || {
                format!(
                    "claim does not hold: {} (measured {})",
                    c.description, c.measured
                )
            });
        }
    }
    let mut points: Vec<(Benchmark, SystemKind)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| SystemKind::all().into_iter().map(move |s| (b, s)))
        .collect();
    let programs: BTreeMap<Benchmark, Program> = Benchmark::all()
        .into_iter()
        .map(|b| (b, program(b, p.size)))
        .collect();
    let jacobi: BTreeMap<Benchmark, u64> = programs
        .iter()
        .filter_map(|(&b, prog)| match prog {
            Program::Stencil(s) => Some((b, jacobi_checksum(s.rows, s.cols, s.iters))),
            _ => None,
        })
        .collect();

    // Timed phase: whole passes, each in a seeded order, until the
    // measured time reaches the budget.
    let mut rng = Rng::new(p.seed);
    let mut pass_s: Vec<f64> = Vec::new();
    let mut per_program: BTreeMap<(Benchmark, &'static str), Vec<f64>> = BTreeMap::new();
    let mut ns_per_ref: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, [u64; 3]> = BTreeMap::new();
    while pass_s.is_empty() || pass_s.iter().sum::<f64>() < p.seconds {
        rng.shuffle(&mut points);
        let pass_no = pass_s.len().to_string();
        let pass_start = std::time::Instant::now();
        let pass = tracer.open("pass", &pass_no, None, pass_start);
        let mut done = Vec::with_capacity(points.len());
        for &(bench, system) in &points {
            let (ran, t0, t1) = timed(|| programs[&bench].run(system, nodes));
            let what = format!("{bench}/{system}");
            tracer.record("apps.execute", &what, pass, t0, t1);
            done.push(Done {
                bench,
                system,
                ran,
                ms: (t1 - t0).as_secs_f64() * 1e3,
            });
        }
        tracer.close(pass, std::time::Instant::now());
        pass_s.push(done.iter().map(|d| d.ms).sum::<f64>() / 1e3);

        // Checks, outside the measured intervals.
        let mut sys_ns: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        let mut pass_counts: BTreeMap<&'static str, [u64; 3]> = BTreeMap::new();
        for d in &done {
            let reference = suite.result(d.bench, d.system);
            ledger.op(check_run(
                d,
                &done,
                reference,
                jacobi.get(&d.bench).copied(),
            ));
            let label = d.system.label();
            per_program.entry((d.bench, label)).or_default().push(d.ms);
            let r = &d.ran.result;
            let acc = sys_ns.entry(label).or_default();
            acc.0 += d.ms * 1e6;
            acc.1 += r.totals.accesses();
            let c = pass_counts.entry(label).or_default();
            c[0] += r.totals.accesses();
            c[1] += r.msgs_total();
            c[2] += r.time;
        }
        for (label, (ns, n)) in sys_ns {
            ns_per_ref
                .entry(label)
                .or_default()
                .push(ns / n.max(1) as f64);
        }
        counts = pass_counts;
    }

    report("paper-suite pass s", &pass_s);
    let median_pass = median(&pass_s);
    let refs: u64 = counts.values().map(|c| c[0]).sum();
    let msgs: u64 = counts.values().map(|c| c[1]).sum();
    let mut e2e = Metrics::new();
    report("set-up s", &setup_s);
    e2e.insert("setup_s".into(), median(&setup_s));
    e2e.insert("sim_refs_per_s".into(), refs as f64 / median_pass);
    e2e.insert("events_per_s".into(), msgs as f64 / median_pass);
    // One operation is one program run. The 18 differ in length by an
    // order of magnitude, so a median over single runs would jump between
    // programs; the op-level figures come from whole passes.
    let ops = points.len() as f64;
    e2e.insert(
        "qps".into(),
        ops * pass_s.len() as f64 / pass_s.iter().sum::<f64>(),
    );
    e2e.insert("warm_p50_ms".into(), median_pass / ops * 1e3);
    e2e.insert("cold_grid_s".into(), median_pass);
    e2e.insert("peak_rss_mb".into(), peak_rss_mb());

    let mut layers = Metrics::new();
    if tracer.is_on() {
        for ((bench, system), ms) in &per_program {
            layers.insert(
                format!("apps.execute_ms.{}.{system}", bench.label()),
                median(ms),
            );
        }
        for (system, ns) in &ns_per_ref {
            layers.insert(format!("sim.ns_per_ref.{system}"), median(ns));
        }
        for (system, c) in &counts {
            layers.insert(format!("sim.refs.{system}"), c[0] as f64);
            layers.insert(format!("sim.msgs.{system}"), c[1] as f64);
            layers.insert(format!("sim.cycles.{system}"), c[2] as f64);
        }
    }
    Outcome {
        ledger,
        e2e,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_the_library_suite() {
        // The same check the workload makes at run time, on one system.
        for b in Benchmark::all() {
            let ran = program(b, Size::Smoke).run(SystemKind::LcmMcc, 4);
            assert_eq!(
                ran.result.digest(),
                b.run(Scale::Smoke, SystemKind::LcmMcc).digest(),
                "{b}"
            );
        }
    }

    #[test]
    fn smoke_run_is_clean() {
        let p = Params {
            seed: 3,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let out = run(&p, &mut Tracer::new(true));
        assert_eq!(out.ledger.failures, Vec::<String>::new());
        assert!(out.ledger.attempted >= 18);
        crate::tests::assert_complete(&out);
        assert_eq!(out.layers.len(), 18 + 3 + 9);
    }

    /// One flipped checksum bit is caught, and by the Jacobi reference
    /// and the cross-system comparison both.
    #[test]
    fn a_flipped_checksum_is_caught() {
        let s = Stencil::small(Partition::Static);
        let want = jacobi_checksum(s.rows, s.cols, s.iters);
        let done: Vec<Done> = SystemKind::all()
            .into_iter()
            .map(|system| Done {
                bench: Benchmark::StencilStat,
                system,
                ran: Program::Stencil(s).run(system, 4),
                ms: 1.0,
            })
            .collect();
        let reference = Benchmark::StencilStat.run(Scale::Smoke, SystemKind::LcmScc);
        assert_eq!(
            check_run(&done[0], &done, &reference, Some(want)),
            Vec::<String>::new()
        );
        let mut bad = Done {
            ran: Program::Stencil(s).run(SystemKind::LcmScc, 4),
            ..done[0]
        };
        bad.ran.checksum = bad.ran.checksum.map(|c| c ^ 1);
        bad.ran.output = format!("{:?}", bad.ran.checksum.unwrap());
        let errs = check_run(&bad, &done, &reference, Some(want));
        assert!(
            errs.iter().any(|e| e.contains("sequential Jacobi")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("output differs")),
            "{errs:?}"
        );
    }
}
