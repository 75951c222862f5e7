//! `serve-mix`: a resident `lcm-serve` engine over the six traces that
//! `repro serve` loads by default (Reduction and Stencil-dyn on the three
//! systems), asked a seeded closed-loop stream over one loopback TCP
//! connection with a server pool of one worker.
//!
//! The stream is a sequence of rounds shaped like `repro serve --bench`.
//! Each round sends one *cold* grid batch in the explore grid's shape —
//! every trace × [`BANDWIDTHS`] × three remote latencies never asked
//! before in the run — then [`WARM_PER_ROUND`] single *warm* queries,
//! each repeating a question drawn (seeded) from those already answered.
//! Nothing is simulated while the stream runs.

use crate::hostile::Program;
use crate::span::{SpanId, Tracer};
use crate::util::{median, peak_rss_mb, percentile, report, timed, Ledger, Rng};
use crate::{Metrics, Outcome, Params, Size};
use lcm_apps::SystemKind;
use lcm_cstar::RuntimeConfig;
use lcm_replay::{replay, Replayed, TraceFile};
use lcm_serve::{query, Client, Query, QueryClass, QueryResult, ServeEngine, Server};
use lcm_sim::{CostModel, CycleCat, MachineConfig, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Link bandwidths of every cold grid (bytes/cycle; 0 = unlimited):
/// the explore grid's.
pub const BANDWIDTHS: [u64; 4] = [0, 64, 16, 4];
/// Remote latencies of the explore grid (cycles). Each cold grid asks
/// these plus an offset that grows from grid to grid, so every latency
/// is new to the run.
pub const LATENCIES: [u64; 3] = [500, 3000, 12000];
/// Warm queries after each cold grid: the repeats `repro serve --bench`
/// sends after its grid (1 + 2 + 4 + 8 clients × 240 requests).
pub const WARM_PER_ROUND: usize = 3600;
/// Captures of the trace set per run; the capture figures are medians.
const CAPTURES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds of the in-process stream of the traced run: a fixed count, so
/// its tier counts repeat exactly.
const TRACED_ROUNDS: usize = 4;

/// One captured trace as `.lcmtrace` bytes.
pub struct Trace {
    pub name: String,
    pub program: Program,
    pub system: SystemKind,
    pub bytes: Vec<u8>,
    pub events: u64,
}

/// Captures the serve trace set with this commit's code, as `repro
/// serve` does before it loads them: cm5 pricing, default topology.
fn capture_set(size: Size, ledger: &mut Ledger, tracer: &mut Tracer) -> (Vec<Trace>, Captures) {
    let nodes = crate::hostile::nodes(size);
    let scale = match size {
        Size::Medium => "medium",
        Size::Smoke => "smoke",
    };
    let parent = tracer.open("capture-set", "", None, Instant::now());
    let mut stats = Captures::default();
    let mut traces = Vec::new();
    for program in &crate::hostile::programs(size)[..2] {
        for system in SystemKind::all() {
            let meta = vec![
                ("benchmark".to_string(), program.label().to_string()),
                ("system".to_string(), system.label().to_string()),
                ("scale".to_string(), scale.to_string()),
            ];
            let mc = MachineConfig::new(nodes).with_cost(CostModel::cm5());
            let name = format!("{}-{}", program.label(), system.label()).to_lowercase();
            let ((_, result, file), t0, t1) =
                timed(|| program.capture(system, mc, RuntimeConfig::default(), meta));
            tracer.record("apps.capture", &name, parent, t0, t1);
            stats.capture_ns += (t1 - t0).as_nanos() as u64;
            let file = match file {
                Ok(f) => f,
                Err(e) => {
                    ledger.check(false, || format!("{name}: capture unusable: {e}"));
                    continue;
                }
            };
            let (bytes, t0, t1) = timed(|| file.to_bytes());
            tracer.record("replay.encode", &name, parent, t0, t1);
            stats.encode_ns += (t1 - t0).as_nanos() as u64;
            let c = stats.per_system.entry(system.label()).or_default();
            c[0] += result.totals.accesses();
            c[1] += result.msgs_total();
            c[2] += result.time;
            traces.push(Trace {
                name,
                program: *program,
                system,
                events: file.events.len() as u64,
                bytes,
            });
        }
    }
    tracer.close(parent, Instant::now());
    (traces, stats)
}

#[derive(Default)]
struct Captures {
    capture_ns: u64,
    encode_ns: u64,
    per_system: BTreeMap<&'static str, [u64; 3]>,
}

/// Decodes every trace and loads it into a fresh engine: what `repro
/// serve --traces DIR` does at start-up.
fn setup(
    traces: &[Trace],
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    parent: SpanId,
) -> ServeEngine {
    let mut engine = ServeEngine::new();
    for t in traces {
        let (file, t0, t1) = timed(|| TraceFile::from_bytes(&t.bytes));
        tracer.record("replay.decode", &t.name, parent, t0, t1);
        match file {
            Ok(f) => {
                let handle = Arc::new(f);
                let ((), t0, t1) = timed(|| engine.load(&t.name, handle));
                tracer.record("serve.load", &t.name, parent, t0, t1);
            }
            Err(e) => ledger.check(false, || format!("{}: decode failed: {e}", t.name)),
        }
    }
    engine
}

/// The seeded question stream.
struct Stream {
    rng: Rng,
    names: Vec<String>,
    /// Latency offset of the next grid, and its growth per grid.
    offset: u64,
    step: u64,
    /// Every cold question asked so far, in order.
    asked: Vec<Query>,
}

impl Stream {
    fn new(seed: u64, names: Vec<String>) -> Stream {
        let mut rng = Rng::new(seed);
        let offset = rng.below(1000);
        let step = 1 + rng.below(16);
        Stream {
            rng,
            names,
            offset,
            step,
            asked: Vec::new(),
        }
    }

    /// The next cold grid: every trace × bandwidth × fresh latency, in
    /// the explore grid's order. Returns the index of its first question
    /// in `asked`.
    fn grid(&mut self) -> (usize, Vec<Query>) {
        let offset = self.offset;
        self.offset += self.step;
        let first = self.asked.len();
        for name in &self.names {
            for bw in BANDWIDTHS {
                for lat in LATENCIES {
                    self.asked
                        .push(query(name, CostModel::cm5_grid(bw, lat + offset)));
                }
            }
        }
        (first, self.asked[first..].to_vec())
    }

    /// A warm question: the index of one already asked.
    fn warm(&mut self) -> usize {
        self.rng.below(self.asked.len() as u64) as usize
    }
}

/// First answers to the cold questions, by index in the stream, and the
/// failures found for each.
#[derive(Default)]
struct Answers {
    first: Vec<Option<QueryResult>>,
    errors: Vec<Vec<String>>,
}

impl Answers {
    fn grow(&mut self, i: usize) {
        if self.first.len() <= i {
            self.first.resize(i + 1, None);
            self.errors.resize(i + 1, Vec::new());
        }
    }

    fn fail(&mut self, i: usize, e: String) {
        self.grow(i);
        self.errors[i].push(e);
    }

    /// Records an answer to question `i`; a repeat must equal the first.
    fn record(&mut self, i: usize, q: &Query, r: &QueryResult) -> Option<String> {
        self.grow(i);
        match &self.first[i] {
            None => {
                self.first[i] = Some(r.clone());
                None
            }
            Some(f) if f == r => None,
            Some(_) => Some(format!(
                "{} bw={} lat={}: repeated answer differs from the first",
                q.trace, q.cost.link_bandwidth_bytes_per_cycle, q.cost.remote_miss
            )),
        }
    }
}

/// The first field where an answer differs from a replay.
pub fn answer_diff(a: &QueryResult, r: &Replayed, file: &TraceFile) -> Option<&'static str> {
    let mut ledger = Vec::with_capacity(file.nodes * CycleCat::COUNT);
    for n in 0..file.nodes {
        for cat in CycleCat::all() {
            ledger.push(r.ledger.get(NodeId(n as u16), cat));
        }
    }
    let phases: Vec<(String, u64)> = r.phases.iter().map(|(l, t)| (l.to_string(), *t)).collect();
    let fields = [
        (
            "benchmark",
            Some(a.benchmark.as_str()) == file.meta("benchmark"),
        ),
        ("system", Some(a.system.as_str()) == file.meta("system")),
        ("nodes", a.nodes == file.nodes),
        ("time", a.time == r.time),
        ("barriers", a.barriers == r.barriers),
        ("clocks", a.clocks == r.clocks),
        ("ledger", a.ledger == ledger),
        ("stats", a.stats == r.totals.as_array()),
        ("phases", a.phases == phases),
    ];
    fields.iter().find(|(_, same)| !same).map(|(name, _)| *name)
}

/// What the TCP phase measured.
#[derive(Default)]
struct Tcp {
    grid_s: Vec<f64>,
    warm_ms: Vec<f64>,
    queries: u64,
    rounds: usize,
}

fn tcp_phase(
    engine: Arc<ServeEngine>,
    stream: &mut Stream,
    answers: &mut Answers,
    seconds: f64,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<Tcp, String> {
    let server = Server::start("127.0.0.1:0", engine, 1)?;
    let mut client = Client::connect(&server.addr.to_string())?;
    let mut m = Tcp::default();
    let mut measured = 0.0;
    while m.rounds == 0 || measured < seconds {
        let round = tracer.open("round", &m.rounds.to_string(), None, Instant::now());
        let (first, grid) = stream.grid();
        let (res, t0, t1) = timed(|| client.query_batch(&grid));
        tracer.record("serve.grid", "", round, t0, t1);
        let res = res?;
        m.grid_s.push((t1 - t0).as_secs_f64());
        if res.len() != grid.len() {
            return Err(format!(
                "grid of {} answered with {}",
                grid.len(),
                res.len()
            ));
        }
        for (k, (q, w)) in grid.iter().zip(&res).enumerate() {
            if let Some(e) = answers.record(first + k, q, &w.result) {
                answers.fail(first + k, e);
            }
        }
        for _ in 0..WARM_PER_ROUND {
            let i = stream.warm();
            let q = &stream.asked[i];
            let (res, t0, t1) = timed(|| client.query(q));
            tracer.record("serve.warm", "", round, t0, t1);
            let w = res?;
            m.warm_ms.push((t1 - t0).as_secs_f64() * 1e3);
            ledger.op(answers.record(i, q, &w.result).into_iter().collect());
        }
        measured += m.grid_s.last().copied().unwrap_or(0.0)
            + m.warm_ms[m.warm_ms.len() - WARM_PER_ROUND..]
                .iter()
                .sum::<f64>()
                / 1e3;
        m.queries += (grid.len() + WARM_PER_ROUND) as u64;
        m.rounds += 1;
        tracer.close(round, Instant::now());
    }
    drop(client);
    server.stop();
    Ok(m)
}

/// The traced run's in-process stream: the same seeded stream against a
/// fresh engine, each `ServeEngine` call timed, so engine time and wire
/// time separate. Also times the full and differential replay paths on
/// the first grid. Returns the metrics and the stream.
fn in_process(
    engine: &ServeEngine,
    seed: u64,
    answers: &mut Answers,
    tracer: &mut Tracer,
) -> (Metrics, Stream) {
    let mut stream = Stream::new(
        seed,
        engine.trace_names().iter().map(|s| s.to_string()).collect(),
    );
    let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first_grid: Vec<Query> = Vec::new();
    let mut ask =
        |i: usize, q: &Query, tracer: &mut Tracer, answers: &mut Answers, parent: SpanId| {
            let (res, t0, t1) = timed(|| engine.query(q));
            match res {
                Ok((r, class)) => {
                    let name = match class {
                        QueryClass::Cached => "cached",
                        QueryClass::Neighbor => "neighbor",
                        QueryClass::Differential => "differential",
                    };
                    tracer.record("serve.engine", name, parent, t0, t1);
                    by_class
                        .entry(name)
                        .or_default()
                        .push((t1 - t0).as_secs_f64() * 1e3);
                    if let Some(e) = answers.record(i, q, &r) {
                        answers.fail(i, e);
                    }
                }
                Err(e) => answers.fail(i, e),
            }
        };
    for round in 0..TRACED_ROUNDS {
        let parent = tracer.open("engine-round", &round.to_string(), None, Instant::now());
        let (first, grid) = stream.grid();
        if round == 0 {
            first_grid = grid.clone();
        }
        for (k, q) in grid.iter().enumerate() {
            ask(first + k, q, tracer, answers, parent);
        }
        for _ in 0..WARM_PER_ROUND {
            let i = stream.warm();
            let q = stream.asked[i].clone();
            ask(i, &q, tracer, answers, parent);
        }
        tracer.close(parent, Instant::now());
    }
    let mut m = Metrics::new();
    let count = |c: &str| by_class.get(c).map_or(0, Vec::len) as f64;
    let total = count("cached") + count("neighbor") + count("differential");
    for c in ["cached", "neighbor", "differential"] {
        m.insert(format!("serve.queries.{c}"), count(c));
    }
    m.insert("serve.hit_ratio".into(), count("cached") / total);
    // Cold tiers: mean per query, since a grid's traces differ in size
    // by two orders of magnitude; cached hits: median.
    let mean = |c: &str| {
        by_class
            .get(c)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    };
    m.insert("serve.engine_ms.differential".into(), mean("differential"));
    m.insert("serve.engine_ms.neighbor".into(), mean("neighbor"));
    let cached = by_class.get("cached").map_or(0.0, |v| median(v));
    m.insert("serve.engine_us.cached".into(), cached * 1e3);

    let parent = tracer.open("replay-paths", "", None, Instant::now());
    let (mut full_ns, mut diff_ns, mut events) = (0u64, 0u64, 0u64);
    for q in &first_grid {
        let Some(entry) = engine.traces().iter().find(|t| t.name == q.trace) else {
            continue;
        };
        let (_, t0, t1) = timed(|| engine.replay_full(entry, q));
        tracer.record("serve.replay_full", &q.trace, parent, t0, t1);
        full_ns += (t1 - t0).as_nanos() as u64;
        let (_, t0, t1) = timed(|| engine.replay_differential(entry, q));
        tracer.record("serve.replay_diff", &q.trace, parent, t0, t1);
        diff_ns += (t1 - t0).as_nanos() as u64;
        events += entry.handle.events.len() as u64;
    }
    tracer.close(parent, Instant::now());
    let n = first_grid.len().max(1) as f64;
    m.insert("serve.replay_full_ms".into(), full_ns as f64 / 1e6 / n);
    m.insert("serve.replay_diff_ms".into(), diff_ns as f64 / 1e6 / n);
    m.insert(
        "replay.price_ns_per_event".into(),
        full_ns as f64 / events.max(1) as f64,
    );
    (m, stream)
}

pub fn run(p: &Params, tracer: &mut Tracer) -> Outcome {
    let mut ledger = Ledger::default();
    // The trace set is captured `CAPTURES` times: the capture figures
    // are medians, and every repeat must encode to the same bytes.
    let (traces, captures) = capture_set(p.size, &mut ledger, tracer);
    let mut capture_ms = vec![captures.capture_ns as f64 / 1e6];
    let mut encode_ms = vec![captures.encode_ns as f64 / 1e6];
    for _ in 1..CAPTURES {
        let (again, c) = capture_set(p.size, &mut ledger, tracer);
        ledger.check(
            again.len() == traces.len()
                && again.iter().zip(&traces).all(|(a, b)| a.bytes == b.bytes),
            || "a repeated capture encodes to different bytes".to_string(),
        );
        capture_ms.push(c.capture_ns as f64 / 1e6);
        encode_ms.push(c.encode_ns as f64 / 1e6);
    }
    let pipeline_ms: Vec<f64> = capture_ms
        .iter()
        .zip(&encode_ms)
        .map(|(c, e)| c + e)
        .collect();

    // Set-up, repeated: every engine but the last is dropped before the
    // next is built, so memory holds one engine at a time.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for i in 0..SETUPS {
        drop(engine.take());
        let t0 = Instant::now();
        let parent = tracer.open("setup", &i.to_string(), None, t0);
        let e = setup(&traces, &mut ledger, tracer, parent);
        let t1 = Instant::now();
        tracer.close(parent, t1);
        setup_s.push((t1 - t0).as_secs_f64());
        engine = Some(e);
    }
    let engine = Arc::new(engine.expect("at least one set-up"));

    let names: Vec<String> = traces.iter().map(|t| t.name.clone()).collect();
    let mut stream = Stream::new(p.seed, names);
    let mut answers = Answers::default();
    let tcp = match tcp_phase(
        engine,
        &mut stream,
        &mut answers,
        p.seconds,
        &mut ledger,
        tracer,
    ) {
        Ok(m) => m,
        Err(e) => {
            ledger.check(false, || format!("TCP phase: {e}"));
            Tcp::default()
        }
    };
    let peak = peak_rss_mb();
    report("serve-mix grid s", &tcp.grid_s);
    report("serve-mix warm ms", &tcp.warm_ms);

    let mut layers = Metrics::new();
    if tracer.is_on() {
        let parent = tracer.open("setup", "in-process", None, Instant::now());
        let fresh = setup(&traces, &mut ledger, tracer, parent);
        tracer.close(parent, Instant::now());
        let (metrics, engine_stream) = in_process(&fresh, p.seed, &mut answers, tracer);
        layers = metrics;
        // Both streams come from one seed, so one is a prefix of the
        // other; the checks need the longer.
        if engine_stream.asked.len() > stream.asked.len() {
            stream = engine_stream;
        }
        let p50_us = median(&tcp.warm_ms) * 1e3;
        layers.insert(
            "serve.wire_us".into(),
            p50_us - layers["serve.engine_us.cached"],
        );
        layers.insert("serve.warm_p99_ms".into(), percentile(&tcp.warm_ms, 99.0));
        let events: u64 = traces.iter().map(|t| t.events).sum();
        let bytes: u64 = traces.iter().map(|t| t.bytes.len() as u64).sum();
        let decode = tracer.per_parent_ms("replay.decode");
        layers.insert("replay.decode_ms".into(), median(&decode));
        layers.insert(
            "replay.decode_ns_per_event".into(),
            decode.iter().sum::<f64>() * 1e6 / (events as f64 * decode.len() as f64),
        );
        layers.insert(
            "serve.load_ms".into(),
            median(&tracer.per_parent_ms("serve.load")),
        );
        layers.insert("apps.capture_ms".into(), median(&capture_ms));
        layers.insert(
            "apps.capture_ns_per_event".into(),
            median(&capture_ms) * 1e6 / events as f64,
        );
        layers.insert("replay.encode_ms".into(), median(&encode_ms));
        layers.insert(
            "replay.encode_ns_per_event".into(),
            median(&encode_ms) * 1e6 / events as f64,
        );
        layers.insert(
            "replay.bytes_per_event".into(),
            bytes as f64 / events as f64,
        );
        layers.insert("trace.events".into(), events as f64);
        for (system, c) in &captures.per_system {
            layers.insert(format!("sim.refs.{system}"), c[0] as f64);
            layers.insert(format!("sim.msgs.{system}"), c[1] as f64);
            layers.insert(format!("sim.cycles.{system}"), c[2] as f64);
        }
    }

    check_answers(&traces, &stream, &mut answers, &mut ledger);

    let events: u64 = traces.iter().map(|t| t.events).sum();
    let refs: u64 = captures.per_system.values().map(|c| c[0]).sum();
    let measured = tcp.grid_s.iter().sum::<f64>() + tcp.warm_ms.iter().sum::<f64>() / 1e3;
    let mut e2e = Metrics::new();
    e2e.insert("setup_s".into(), median(&setup_s));
    e2e.insert("peak_rss_mb".into(), peak);
    e2e.insert(
        "sim_refs_per_s".into(),
        refs as f64 / (median(&capture_ms) / 1e3),
    );
    e2e.insert(
        "events_per_s".into(),
        events as f64 / (median(&pipeline_ms) / 1e3),
    );
    e2e.insert("qps".into(), tcp.queries as f64 / measured);
    e2e.insert("warm_p50_ms".into(), median(&tcp.warm_ms));
    e2e.insert("cold_grid_s".into(), median(&tcp.grid_s));
    Outcome {
        ledger,
        e2e,
        layers,
    }
}

/// Every cold answer against the benchmark's own replay of its own
/// decoded copy of the trace (two threads, one trace resident at a
/// time), and a fixed sample against genuine execution-driven re-runs.
fn check_answers(traces: &[Trace], stream: &Stream, answers: &mut Answers, ledger: &mut Ledger) {
    for t in traces {
        let file = match TraceFile::from_bytes(&t.bytes) {
            Ok(f) => f,
            Err(e) => {
                ledger.check(false, || format!("{}: checker decode failed: {e}", t.name));
                continue;
            }
        };
        let mine: Vec<usize> = (0..answers.first.len())
            .filter(|&i| stream.asked[i].trace == t.name)
            .collect();
        let found: Vec<(usize, String)> = std::thread::scope(|s| {
            let halves: Vec<_> = mine
                .chunks(mine.len().div_ceil(2).max(1))
                .map(|chunk| {
                    let (file, answers, stream) = (&file, &*answers, stream);
                    s.spawn(move || {
                        let mut found = Vec::new();
                        for &i in chunk {
                            let q = &stream.asked[i];
                            let Some(a) = &answers.first[i] else { continue };
                            let r = replay(file, &q.cost, q.topology);
                            if let Some(field) = answer_diff(a, &r, file) {
                                found.push((
                                    i,
                                    format!(
                                        "{} bw={} lat={}: answer differs from replay in {field}",
                                        q.trace,
                                        q.cost.link_bandwidth_bytes_per_cycle,
                                        q.cost.remote_miss
                                    ),
                                ));
                            }
                        }
                        found
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("replay check thread panicked"))
                .collect()
        });
        for (i, e) in found {
            answers.errors[i].push(e);
        }

        // The fixed re-run sample: the first grid's first
        // unlimited-bandwidth question on every trace but Reduction/Stache,
        // whose re-run alone would cost more than the other five together.
        if t.program.label() == "Reduction" && t.system == SystemKind::Stache {
            continue;
        }
        let grid = BANDWIDTHS.len() * LATENCIES.len() * traces.len();
        let Some(i) = (0..grid.min(stream.asked.len())).find(|&i| {
            stream.asked[i].trace == t.name
                && stream.asked[i].cost.link_bandwidth_bytes_per_cycle == 0
        }) else {
            continue;
        };
        let Some(a) = answers.first.get(i).and_then(Option::as_ref) else {
            continue;
        };
        let q = &stream.asked[i];
        let mc = MachineConfig::new(file.nodes)
            .with_cost(q.cost)
            .with_topology(q.topology);
        let (_, run) = t.program.execute(t.system, mc);
        let ledger_of_run: Vec<u64> = (0..file.nodes)
            .flat_map(|n| CycleCat::all().into_iter().map(move |c| (n, c)))
            .map(|(n, c)| run.ledger.get(NodeId(n as u16), c))
            .collect();
        if a.time != run.time || a.clocks != run.clocks || a.ledger != ledger_of_run {
            answers.errors[i].push(format!(
                "{} lat={}: answer (time {}) differs from an execution-driven re-run (time {})",
                q.trace, q.cost.remote_miss, a.time, run.time
            ));
        }
    }
    for (i, errs) in answers.errors.iter_mut().enumerate() {
        if answers.first[i].is_some() || !errs.is_empty() {
            ledger.op(std::mem::take(errs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_clean() {
        let p = Params {
            seed: 9,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let out = run(&p, &mut Tracer::new(true));
        assert_eq!(out.ledger.failures, Vec::<String>::new());
        assert!(out.ledger.attempted as usize >= WARM_PER_ROUND);
        crate::tests::assert_complete(&out);
        assert!(out.layers["serve.queries.cached"] > 0.0);
    }

    /// One flipped ledger cell in an answer is caught by the replay check.
    #[test]
    fn a_flipped_ledger_cell_is_caught() {
        let mut ledger = Ledger::default();
        let (traces, _) = capture_set(Size::Smoke, &mut ledger, &mut Tracer::new(false));
        let mut engine = ServeEngine::new();
        let file = TraceFile::from_bytes(&traces[3].bytes).expect("decodes");
        engine.load(&traces[3].name, Arc::new(file.clone()));
        let q = query(&traces[3].name, CostModel::cm5_grid(16, 777));
        let (answer, _) = engine.query(&q).expect("answers");
        let r = replay(&file, &q.cost, q.topology);
        assert_eq!(answer_diff(&answer, &r, &file), None);
        let mut bad = (*answer).clone();
        bad.ledger[5] += 1;
        assert_eq!(answer_diff(&bad, &r, &file), Some("ledger"));
    }
}
