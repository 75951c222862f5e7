//! `hostile-capture`: Reduction, Stencil-dyn and Unstructured on all
//! three systems, on a machine that drops, duplicates and delays
//! messages, crashes nodes (checkpoint recovery) and has finite link
//! bandwidth. Every run is captured, encoded to `.lcmtrace` bytes,
//! decoded, validated by replay and analysed for its critical path, so
//! the protocol handlers run their retry, recovery and fabric paths and
//! every stage of the trace pipeline runs on the largest capture
//! (Reduction/Stache).

use crate::span::{SpanId, Tracer};
use crate::util::{median, peak_rss_mb, report, timed, Errors, Ledger, Rng};
use crate::{Metrics, Outcome, Params, Size};
use lcm_apps::reduction::{ArraySum, ReductionSum};
use lcm_apps::stencil::Stencil;
use lcm_apps::unstructured::Unstructured;
use lcm_apps::{execute_captured, execute_with_machine, RunResult, SystemKind, Workload};
use lcm_cstar::{Partition, RuntimeConfig};
use lcm_replay::TraceFile;
use lcm_sim::{CostModel, CrashPlan, CycleCat, FaultConfig, MachineConfig, NodeId};
use std::collections::BTreeMap;
use std::time::Instant;

/// The fixed fault schedule: the seeds never change, so every run sees
/// the same drops, duplicates, delays and crashes.
pub const FAULTS: FaultConfig = FaultConfig {
    drop_rate: 0.01,
    dup_rate: 0.01,
    delay_rate: 0.02,
    max_delay: 200,
    seed: 0x5eed_fa17,
    max_retries: 40,
    stall_rate: 0.0,
    stall_cycles: 0,
    crash_rate: 0.05,
    crash_seed: 0xc4a5,
};

/// Finite link bandwidth (bytes/cycle): the fabric contention model on.
pub const LINK_BANDWIDTH: u64 = 16;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Capture buffer: generous for the largest (8.9M-event) capture.
const CAPACITY: usize = 1 << 24;

#[derive(Clone, Copy)]
pub enum Program {
    Reduction(ArraySum),
    Stencil(Stencil),
    Unstructured(Unstructured),
}

impl Program {
    pub fn label(&self) -> &'static str {
        match self {
            Program::Reduction(_) => "Reduction",
            Program::Stencil(_) => "Stencil-dyn",
            Program::Unstructured(_) => "Unstructured",
        }
    }
}

pub fn programs(size: Size) -> [Program; 3] {
    match size {
        Size::Medium => [
            Program::Reduction(ArraySum::default_size()),
            Program::Stencil(Stencil {
                rows: 128,
                cols: 128,
                iters: 6,
                partition: Partition::Dynamic,
            }),
            Program::Unstructured(Unstructured {
                iters: 100,
                ..Unstructured::paper()
            }),
        ],
        Size::Smoke => [
            Program::Reduction(ArraySum::small()),
            Program::Stencil(Stencil::small(Partition::Dynamic)),
            Program::Unstructured(Unstructured::small()),
        ],
    }
}

pub fn nodes(size: Size) -> usize {
    match size {
        Size::Medium => 16,
        Size::Smoke => 8,
    }
}

fn hostile_machine(nodes: usize) -> (MachineConfig, RuntimeConfig) {
    let cost = CostModel::cm5().with_link_bandwidth(LINK_BANDWIDTH);
    let mc = MachineConfig::new(nodes)
        .with_cost(cost)
        .with_faults(FAULTS);
    let cfg = RuntimeConfig {
        crash: CrashPlan::from_config(&FAULTS),
        ..RuntimeConfig::default()
    };
    (mc, cfg)
}

/// Output rendered for comparison, the run's measurements and the
/// capture assembled as a trace file.
pub type Captured = (String, RunResult, Result<TraceFile, String>);

impl Program {
    /// Runs the program on `mc` with recording on and assembles the
    /// capture as a trace file carrying `meta`.
    pub fn capture(
        &self,
        system: SystemKind,
        mc: MachineConfig,
        cfg: RuntimeConfig,
        meta: Vec<(String, String)>,
    ) -> Captured {
        fn go<W: Workload>(
            w: &W,
            system: SystemKind,
            mc: MachineConfig,
            cfg: RuntimeConfig,
            meta: Vec<(String, String)>,
        ) -> Captured
        where
            W::Output: std::fmt::Debug,
        {
            let (nodes, topology, cost) = (mc.nodes, mc.topology, mc.cost);
            let (out, result, events) = execute_captured(system, mc, CAPACITY, cfg, w);
            let file = TraceFile::from_capture(
                nodes,
                topology,
                cost,
                meta,
                events,
                result.clocks.clone(),
                &result.ledger,
                result.totals.clone(),
            );
            (format!("{out:?}"), result, file)
        }
        match self {
            Program::Reduction(a) => go(&ReductionSum(*a), system, mc, cfg, meta),
            Program::Stencil(s) => go(s, system, mc, cfg, meta),
            Program::Unstructured(u) => go(u, system, mc, cfg, meta),
        }
    }

    /// Runs the program on `mc` without recording.
    pub fn execute(&self, system: SystemKind, mc: MachineConfig) -> (String, RunResult) {
        fn go<W: Workload>(w: &W, system: SystemKind, mc: MachineConfig) -> (String, RunResult)
        where
            W::Output: std::fmt::Debug,
        {
            let (out, result) = execute_with_machine(system, mc, RuntimeConfig::default(), w);
            (format!("{out:?}"), result)
        }
        match self {
            Program::Reduction(a) => go(&ReductionSum(*a), system, mc),
            Program::Stencil(s) => go(s, system, mc),
            Program::Unstructured(u) => go(u, system, mc),
        }
    }
}

/// The first field where a decoded trace differs from the one encoded.
pub fn round_trip_diff(a: &TraceFile, b: &TraceFile) -> Option<&'static str> {
    let fields = [
        ("nodes", a.nodes == b.nodes),
        ("topology", a.topology == b.topology),
        ("cost model", a.cost == b.cost),
        ("metadata", a.metadata == b.metadata),
        ("phase index", a.phase_index == b.phase_index),
        ("clocks", a.clocks == b.clocks),
        ("ledger", a.ledger == b.ledger),
        ("totals", a.totals == b.totals),
        ("events", a.events == b.events),
    ];
    fields.iter().find(|(_, same)| !same).map(|(name, _)| *name)
}

/// Stage times of one program's pipeline, in nanoseconds.
#[derive(Default, Clone, Copy)]
struct Stages {
    capture: u64,
    encode: u64,
    decode: u64,
    validate: u64,
    critpath: u64,
}

impl Stages {
    fn total(&self) -> u64 {
        self.capture + self.encode + self.decode + self.validate + self.critpath
    }
}

/// Simulated and trace counts of one pass; they must repeat exactly.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
struct Counts {
    events: u64,
    bytes: u64,
    per_system: BTreeMap<&'static str, [u64; 3]>,
    retries: u64,
    duplicates: u64,
    crashes: u64,
    checkpoint_bytes: u64,
    contention: u64,
}

struct Pass {
    stages: Vec<Stages>,
    counts: Counts,
    outputs: Vec<(Program, SystemKind, String)>,
}

/// One pass over the nine programs in the order of `points`. Each stage is timed on
/// its own; the checks between stages sit outside the timed intervals.
fn pass(
    points: &[(Program, SystemKind)],
    nodes: usize,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Pass {
    let mut p = Pass {
        stages: Vec::new(),
        counts: Counts::default(),
        outputs: Vec::new(),
    };
    for &(prog, system) in points {
        let what = format!("{}/{system}", prog.label());
        let mut errs = Errors::default();
        let mut st = Stages::default();
        let span = |tracer: &mut Tracer, name, t0: Instant, t1: Instant| {
            tracer.record(name, &what, parent, t0, t1);
            (t1 - t0).as_nanos() as u64
        };

        let (mc, cfg) = hostile_machine(nodes);
        let meta = vec![
            ("benchmark".to_string(), prog.label().to_string()),
            ("system".to_string(), system.label().to_string()),
        ];
        let ((output, result, file), t0, t1) = timed(|| prog.capture(system, mc, cfg, meta));
        st.capture = span(tracer, "apps.capture", t0, t1);
        let file = match file {
            Ok(f) => f,
            Err(e) => {
                ledger.op(vec![format!("{what}: capture unusable: {e}")]);
                continue;
            }
        };
        let n_events = file.events.len() as u64;
        let (bytes, t0, t1) = timed(|| file.to_bytes());
        st.encode = span(tracer, "replay.encode", t0, t1);
        let (decoded, t0, t1) = timed(|| TraceFile::from_bytes(&bytes));
        st.decode = span(tracer, "replay.decode", t0, t1);
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => {
                ledger.op(vec![format!("{what}: decode failed: {e}")]);
                continue;
            }
        };
        if let Some(field) = round_trip_diff(&file, &decoded) {
            errs.0
                .push(format!("{what}: decode(encode(trace)) differs in {field}"));
        }
        drop(file);
        let (valid, t0, t1) = timed(|| lcm_replay::validate(&decoded));
        st.validate = span(tracer, "replay.validate", t0, t1);
        if let Err(e) = valid {
            errs.0
                .push(format!("{what}: capture does not validate: {e}"));
        }
        let (cp, t0, t1) = timed(|| lcm_replay::analyze(&decoded));
        st.critpath = span(tracer, "replay.critpath", t0, t1);
        errs.check(
            cp.path_length() == cp.makespan && cp.makespan == result.time,
            || {
                format!(
                    "{what}: critical path {} != makespan {} (run time {})",
                    cp.path_length(),
                    cp.makespan,
                    result.time
                )
            },
        );

        let c = &mut p.counts;
        c.events += n_events;
        c.bytes += bytes.len() as u64;
        let s = c.per_system.entry(system.label()).or_default();
        s[0] += result.totals.accesses();
        s[1] += result.msgs_total();
        s[2] += result.time;
        c.retries += result.totals.retries;
        c.duplicates += result.totals.msgs_duplicated;
        c.crashes += result.totals.crashes;
        c.checkpoint_bytes += result.totals.checkpoint_bytes;
        c.contention += (0..nodes)
            .map(|n| result.ledger.get(NodeId(n as u16), CycleCat::NetContention))
            .sum::<u64>();
        p.outputs.push((prog, system, output));
        p.stages.push(st);
        ledger.op(errs.0);
    }
    p
}

pub fn run(p: &Params, tracer: &mut Tracer) -> Outcome {
    let nodes = nodes(p.size);
    let mut ledger = Ledger::default();
    let mut points: Vec<(Program, SystemKind)> = programs(p.size)
        .into_iter()
        .flat_map(|prog| SystemKind::all().into_iter().map(move |s| (prog, s)))
        .collect();
    let mut rng = Rng::new(p.seed);

    // Set-up, repeated: a warm-up that runs the whole pipeline on every
    // program and system once, at smoke size on the same hostile machine,
    // checked like the timed passes.
    let small: Vec<(Program, SystemKind)> = programs(Size::Smoke)
        .into_iter()
        .flat_map(|prog| SystemKind::all().into_iter().map(move |s| (prog, s)))
        .collect();
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let id = tracer.open("set-up", &i.to_string(), None, Instant::now());
        let done = pass(&small, self::nodes(Size::Smoke), &mut ledger, tracer, id);
        tracer.close(id, Instant::now());
        setup_s.push(done.stages.iter().map(Stages::total).sum::<u64>() as f64 / 1e9);
    }

    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    while passes.is_empty() || measured < p.seconds {
        rng.shuffle(&mut points);
        let id = tracer.open("pass", &passes.len().to_string(), None, Instant::now());
        let done = pass(&points, nodes, &mut ledger, tracer, id);
        tracer.close(id, Instant::now());
        measured += done.stages.iter().map(Stages::total).sum::<u64>() as f64 / 1e9;
        passes.push(done);
    }

    let peak = peak_rss_mb();

    // Run-level checks.
    let counts = &passes[0].counts;
    ledger.check(passes.iter().all(|q| q.counts == *counts), || {
        "simulated or trace counts differ between passes".to_string()
    });
    ledger.check(
        counts.retries > 0 && counts.duplicates > 0 && counts.crashes > 0 && counts.contention > 0,
        || format!("a hostile path did not run: {counts:?}"),
    );
    for prog in programs(p.size) {
        // Fault-free, on a reliable network with the fabric off.
        let (reference, _) = prog.execute(SystemKind::LcmMcc, MachineConfig::new(nodes));
        let outputs = || passes.iter().flat_map(|q| &q.outputs);
        for (_, system, out) in outputs().filter(|(q, ..)| q.label() == prog.label()) {
            ledger.check(*out == reference, || {
                format!(
                    "{}/{system}: output under faults {out} differs from fault-free {reference}",
                    prog.label()
                )
            });
        }
        if let Program::Reduction(a) = prog {
            let expected: f64 = (0..a.len).map(|i| (i % 7) as f64).sum();
            ledger.check(reference == format!("{expected:?}"), || {
                format!("Reduction sum {reference} differs from the sum of i mod 7, {expected:?}")
            });
        }
    }

    let pass_s: Vec<f64> = passes
        .iter()
        .map(|q| q.stages.iter().map(Stages::total).sum::<u64>() as f64 / 1e9)
        .collect();
    report("hostile-capture pass s", &pass_s);
    let capture_s: Vec<f64> = passes
        .iter()
        .map(|q| q.stages.iter().map(|s| s.capture).sum::<u64>() as f64 / 1e9)
        .collect();
    let refs: u64 = counts.per_system.values().map(|c| c[0]).sum();
    let mut e2e = Metrics::new();
    report("set-up s", &setup_s);
    e2e.insert("setup_s".into(), median(&setup_s));
    e2e.insert("peak_rss_mb".into(), peak);
    e2e.insert("sim_refs_per_s".into(), refs as f64 / median(&capture_s));
    e2e.insert(
        "events_per_s".into(),
        counts.events as f64 / median(&pass_s),
    );
    // One operation is one program's pipeline. The nine differ in size by
    // two orders of magnitude, so a median over single pipelines would
    // jump between programs; the op-level figures come from whole passes.
    let ops = points.len() as f64;
    e2e.insert(
        "qps".into(),
        ops * pass_s.len() as f64 / pass_s.iter().sum::<f64>(),
    );
    e2e.insert("warm_p50_ms".into(), median(&pass_s) / ops * 1e3);
    e2e.insert("cold_grid_s".into(), median(&pass_s));

    let mut layers = Metrics::new();
    if tracer.is_on() {
        let timed_passes = passes.len() as f64;
        let events = counts.events as f64 * timed_passes;
        for (layer, metric, per_event) in [
            (
                "apps.capture",
                "apps.capture_ms",
                "apps.capture_ns_per_event",
            ),
            (
                "replay.encode",
                "replay.encode_ms",
                "replay.encode_ns_per_event",
            ),
            (
                "replay.decode",
                "replay.decode_ms",
                "replay.decode_ns_per_event",
            ),
            (
                "replay.validate",
                "replay.validate_ms",
                "replay.price_ns_per_event",
            ),
            (
                "replay.critpath",
                "replay.critpath_ms",
                "replay.critpath_ns_per_event",
            ),
        ] {
            // Per-pass totals of the timed passes (the set-ups are the
            // first parents and are left out).
            let per_pass = tracer.per_parent_ms(layer);
            let timed_only = &per_pass[per_pass.len() - passes.len()..];
            layers.insert(metric.into(), median(timed_only));
            layers.insert(
                per_event.into(),
                timed_only.iter().sum::<f64>() * 1e6 / events,
            );
        }
        layers.insert(
            "replay.bytes_per_event".into(),
            counts.bytes as f64 / counts.events as f64,
        );
        layers.insert("trace.events".into(), counts.events as f64);
        for (system, c) in &counts.per_system {
            layers.insert(format!("sim.refs.{system}"), c[0] as f64);
            layers.insert(format!("sim.msgs.{system}"), c[1] as f64);
            layers.insert(format!("sim.cycles.{system}"), c[2] as f64);
        }
        layers.insert("tempest.retries".into(), counts.retries as f64);
        layers.insert("tempest.duplicates".into(), counts.duplicates as f64);
        layers.insert("sim.crashes".into(), counts.crashes as f64);
        layers.insert(
            "sim.checkpoint_bytes".into(),
            counts.checkpoint_bytes as f64,
        );
        layers.insert("sim.net_contention_cycles".into(), counts.contention as f64);
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
    fn smoke_run_is_clean_and_hostile() {
        let p = Params {
            seed: 5,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let out = run(&p, &mut Tracer::new(true));
        assert_eq!(out.ledger.failures, Vec::<String>::new());
        assert!(out.ledger.attempted >= 18);
        crate::tests::assert_complete(&out);
        for m in [
            "tempest.retries",
            "tempest.duplicates",
            "sim.crashes",
            "sim.net_contention_cycles",
        ] {
            assert!(out.layers[m] > 0.0, "{m}");
        }
    }

    /// One changed event or clock in a decoded trace is caught.
    #[test]
    fn a_corrupted_round_trip_is_caught() {
        let (mc, cfg) = hostile_machine(4);
        let prog = programs(Size::Smoke)[1];
        let (_, _, file) = prog.capture(SystemKind::LcmMcc, mc, cfg, Vec::new());
        let file = file.expect("smoke capture");
        let mut decoded = TraceFile::from_bytes(&file.to_bytes()).expect("decodes");
        assert_eq!(round_trip_diff(&file, &decoded), None);
        decoded.clocks[0] += 1;
        assert_eq!(round_trip_diff(&file, &decoded), Some("clocks"));
        decoded.clocks[0] -= 1;
        decoded.events[7].cycle ^= 1;
        assert_eq!(round_trip_diff(&file, &decoded), Some("events"));
    }
}
