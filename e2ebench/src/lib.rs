//! End-to-end and per-layer host-time benchmark for the eda-cloud
//! workspace. See `README.md` in this directory for the workloads, the
//! metric → layer → end-to-end map, and how to read self time and
//! coverage.

#![forbid(unsafe_code)]

pub mod check;
pub mod host;
pub mod spans;
pub mod uploads;
pub mod workloads;

use check::Verdict;
use eda_cloud_core::Workflow;
use eda_cloud_serve::ServeConfig;
use eda_cloud_trace::Metrics;
use host::{median, quantile, Digest};
use spans::{profiles, PassProfile, SpanRec, Tracer};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::characterize::Characterize;
use workloads::corpus::CorpusTrain;
use workloads::recipe::RecipeSearchWorkload;
use workloads::serve::Serve;
use workloads::{Counters, Workload};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["characterize", "corpus_train", "serve", "recipe_search"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("served_per_s", "1/s"),
    ("plan_saving_pct", "%"),
    ("predict_error_pct", "%"),
    ("recipe_gain_pct", "%"),
];

/// Value printed for a quality figure the workload does not produce
/// (every result carries every end-to-end key, and none may read 0).
pub const NOT_PRODUCED: f64 = 1.0;

/// Per-layer metrics (`--trace 1`), with units. Layer times are shares
/// of the traced pass's wall (`trace.wall_s`) and per-call costs are
/// rates: a layer a workload does not use then reads 0% or 0/s, never a
/// time of exactly 0 s on every run. Seconds and microseconds per call
/// are in the printed self-time and unit-cost tables and the spans file.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("trace.wall_s", "s"),
    ("netlist.setup_pct", "%"),
    ("netlist.build_pct", "%"),
    ("flow.synthesis_pct", "%"),
    ("flow.placement_pct", "%"),
    ("flow.routing_pct", "%"),
    ("flow.sta_pct", "%"),
    ("flow.synthesis_calls", "count"),
    ("flow.placement_calls", "count"),
    ("flow.routing_calls", "count"),
    ("flow.sta_calls", "count"),
    ("flow.sim_events", "count"),
    ("flow.sim_events_per_us", "1/us"),
    ("core.flow_cache_hit_ratio", "ratio"),
    ("core.sweep_pct", "%"),
    ("core.sweep_occupancy", "ratio"),
    ("core.sweep_queue_wait_pct", "%"),
    ("gcn.train_pct", "%"),
    ("gcn.train_sample_epochs_per_s", "1/s"),
    ("gcn.predict_pct", "%"),
    ("mckp.solve_pct", "%"),
    ("mckp.problem_pct", "%"),
    ("mckp.solves", "count"),
    ("mckp.solves_per_s", "1/s"),
    ("mckp.solve_p99_p50_ratio", "ratio"),
    ("serve.run_pct", "%"),
    ("serve.loop_pct", "%"),
    ("serve.forwards_per_loop_s", "1/s"),
    ("serve.gcn_forwards", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "requests"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("ingest.ingest_pct", "%"),
    ("ingest.calls", "count"),
    ("ingest.p99_p50_ratio", "ratio"),
    ("ingest.accepted_ratio", "ratio"),
    ("ingest.mb_per_s", "MB/s"),
    ("recipe.search_pct", "%"),
    ("recipe.evaluations", "count"),
    ("recipe.eval_cache_hit_ratio", "ratio"),
    ("recipe.evaluations_per_s", "1/s"),
    ("recipe.fit_pct", "%"),
    ("recipe.plan_pct", "%"),
    ("pass.self_pct", "%"),
    ("trace.passes", "count"),
    ("trace.overhead_pct", "%"),
    ("layers.coverage_pct", "%"),
];

/// Timed set-ups per run: at least this many, then more while they
/// stay cheap, so a sub-millisecond set-up still gets a steady median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 0.5;
/// Untraced passes per `--trace 0` run, at least.
const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per run, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Tiny inputs (the self-test).
    pub tiny: bool,
}

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every output check held.
    pub correct: bool,
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations failed over every pass.
    pub failed: u64,
    /// The check failures, described.
    pub problems: Vec<String>,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Digest of the simulated outputs (identical on every pass).
    pub digest: String,
    /// Human-readable report lines (pass count, unit costs, …).
    pub lines: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<SpanRec>,
}

/// Run one workload.
///
/// # Errors
///
/// Unknown workload name.
pub fn run(options: &Options) -> Result<RunResult, String> {
    match options.workload.as_str() {
        "characterize" => Ok(drive::<Characterize>("characterize", options)),
        "corpus_train" => Ok(drive::<CorpusTrain>("corpus_train", options)),
        "serve" => Ok(drive::<Serve>("serve", options)),
        "recipe_search" => Ok(drive::<RecipeSearchWorkload>("recipe_search", options)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Tally of the passes of one run.
struct Passes {
    verdict: Verdict,
    first: Option<Digest>,
    failed_per_pass: u64,
}

impl Passes {
    fn new() -> Self {
        Self {
            verdict: Verdict::default(),
            first: None,
            failed_per_pass: 0,
        }
    }

    /// Count one pass; check the first pass's outputs, and require every
    /// later pass (traced or not) to reproduce them byte for byte.
    fn record<W: Workload>(
        &mut self,
        w: &W,
        wf: &Workflow,
        result: &Result<workloads::Output<W::Value>, String>,
        what: &str,
    ) {
        match result {
            Ok(out) => {
                let digest = Digest::of_debug(&out.value);
                match self.first {
                    None => {
                        let v = w.check(wf, &out.value);
                        self.failed_per_pass = v.failed;
                        self.verdict.absorb(v);
                        self.first = Some(digest);
                    }
                    Some(first) => {
                        // Same bytes, same failures as the checked pass.
                        self.verdict.attempted += w.ops();
                        self.verdict.failed += self.failed_per_pass;
                        self.verdict.expect(first == digest, || {
                            format!(
                                "{what} output {} differs from the first pass's {}",
                                digest.hex(),
                                first.hex()
                            )
                        });
                    }
                }
            }
            Err(e) => {
                self.verdict.attempted += w.ops();
                self.verdict.failed += w.ops();
                self.verdict.problem(format!("{what} failed: {e}"));
            }
        }
    }
}

/// Seconds since `t0`.
fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Geometric bucket edges fine enough to sum queue waits from the
/// sweep pool's histogram (2% buckets from 1 µs to 100 s).
fn queue_wait_edges() -> Vec<f64> {
    let mut edges = vec![1e-6];
    while *edges.last().expect("non-empty") < 100.0 {
        edges.push(edges.last().expect("non-empty") * 1.02);
    }
    edges
}

/// Total queue wait recorded in the sweep pool's histogram, summing each
/// bucket at its geometric midpoint.
fn queue_wait_total(metrics: &Metrics, edges: &[f64]) -> f64 {
    let json = metrics.to_json();
    let Some(counts) = json
        .split_once("\"sweep.queue_wait_secs\":")
        .and_then(|(_, rest)| rest.split_once("\"counts\":["))
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(counts, _)| counts)
    else {
        return 0.0;
    };
    counts
        .split(',')
        .filter_map(|c| c.trim().parse::<f64>().ok())
        .enumerate()
        .map(|(i, n)| {
            let mid = match i {
                0 => edges[0] / 2.0,
                i if i < edges.len() => (edges[i - 1] * edges[i]).sqrt(),
                _ => edges[edges.len() - 1],
            };
            n * mid
        })
        .sum()
}

fn drive<W: Workload>(name: &'static str, o: &Options) -> RunResult {
    let wf = Workflow::with_defaults();
    let tracer = Tracer::new();
    let mut lines = Vec::new();

    // Set-up, several times after one untimed warm-up (first-touch page
    // faults, allocator growth); the median is `setup_s`. A traced run
    // also records one set-up's `netlist.build` spans.
    let mut setup_secs = Vec::new();
    let mut inputs = Some(W::setup(o.seed, o.tiny, &Tracer::off(), spans::Ctx::NONE));
    while setup_secs.len() < MIN_SETUPS
        || (setup_secs.iter().sum::<f64>() < SETUP_BUDGET_S && setup_secs.len() < MAX_SETUPS)
    {
        let t0 = Instant::now();
        let w = W::setup(o.seed, o.tiny, &Tracer::off(), spans::Ctx::NONE);
        setup_secs.push(since(t0));
        inputs = Some(w);
    }
    if o.trace {
        inputs = Some(tracer.root("setup", |at| W::setup(o.seed, o.tiny, &tracer, at)));
    }
    let w = inputs.expect("at least one set-up");

    let mut passes = Passes::new();
    let mut quality = None;
    let mut untraced_walls = Vec::new();
    let mut metrics = Vec::new();
    let start = Instant::now();
    if !o.trace {
        // Peak memory of set-up plus the first pass: repeated passes
        // retain allocator memory, so a later reading depends on how
        // many passes fit in the run.
        let mut peak_rss = None;
        while untraced_walls.len() < MIN_PASSES || since(start) < o.seconds {
            let t0 = Instant::now();
            let result = w.pass(&wf);
            untraced_walls.push(since(t0));
            peak_rss.get_or_insert_with(host::peak_rss_mib);
            if let (Ok(out), None) = (&result, &quality) {
                quality = Some(w.quality(&wf, &out.value));
            }
            passes.record(&w, &wf, &result, "pass");
        }
        let wall = median(&untraced_walls);
        let q = quality.unwrap_or_default();
        let values = [
            median(&setup_secs),
            wall,
            peak_rss.unwrap_or_default(),
            q.completed as f64 / wall.max(f64::MIN_POSITIVE),
            q.plan_saving_pct.unwrap_or(NOT_PRODUCED),
            q.predict_error_pct.unwrap_or(NOT_PRODUCED),
            q.recipe_gain_pct.unwrap_or(NOT_PRODUCED),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push(Metric { name, value, unit });
        }
        for (label, q) in [
            ("plan_saving_pct", q.plan_saving_pct),
            ("predict_error_pct", q.predict_error_pct),
            ("recipe_gain_pct", q.recipe_gain_pct),
        ] {
            if q.is_none() {
                lines.push(format!(
                    "{label}: not produced by {name}; printed as {NOT_PRODUCED}"
                ));
            }
        }
    } else {
        let edges = queue_wait_edges();
        let mut occupancy = Vec::new();
        let mut queue_wait = Vec::new();
        let mut counters = Counters::new();
        while untraced_walls.is_empty() || since(start) < o.seconds {
            // Untraced reference pass, with the program's own metrics
            // registry attached for the sweep pool's gauges.
            let registry = Metrics::new();
            registry.register_histogram("sweep.queue_wait_secs", edges.clone());
            let metered = Workflow::with_defaults().with_metrics(registry.clone());
            let t0 = Instant::now();
            let result = w.pass(&metered);
            untraced_walls.push(since(t0));
            occupancy.push(registry.gauge("sweep.worker_occupancy").unwrap_or(0.0));
            let jobs = registry.counter("sweep.jobs") as f64;
            queue_wait.push(ratio(queue_wait_total(&registry, &edges), jobs));
            passes.record(&w, &wf, &result, "untraced pass");

            let result = tracer.root("pass", |at| w.traced_pass(&wf, &tracer, at));
            if let Ok(out) = &result {
                counters.clone_from(&out.counters);
            }
            passes.record(&w, &wf, &result, "traced pass");
        }
        let spans = tracer.spans();
        let setup = profiles(&spans, "setup").pop().unwrap_or_default();
        let traced = profiles(&spans, "pass");
        let inputs = LayerInputs {
            setup: &setup,
            traced: &traced,
            counters: &counters,
            untraced_walls: &untraced_walls,
            occupancy: &occupancy,
            queue_wait: &queue_wait,
        };
        metrics = layer_metrics(&inputs);
        lines.extend(unit_costs(&inputs));
        lines.push(self_time_table(&traced));
    }

    let verdict = passes.verdict;
    let walls: Vec<String> = untraced_walls.iter().map(|w| format!("{w:.4}")).collect();
    lines.insert(0, format!("untraced pass walls (s): {}", walls.join(" ")));
    lines.insert(
        0,
        format!(
            "{name}: seed {}, {} timed set-ups, {} passes in {:.1} s",
            o.seed,
            setup_secs.len(),
            untraced_walls.len() * if o.trace { 2 } else { 1 },
            since(start)
        ),
    );
    RunResult {
        workload: name,
        correct: verdict.correct(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        problems: verdict.problems,
        metrics,
        digest: passes.first.map_or_else(|| "none".to_owned(), |d| d.hex()),
        lines,
        spans: tracer.spans(),
    }
}

/// The per-layer figures of a traced run, from its spans, the traced
/// pass's counters and the untraced passes' sweep-pool metrics.
struct LayerInputs<'a> {
    setup: &'a PassProfile,
    traced: &'a [PassProfile],
    counters: &'a Counters,
    untraced_walls: &'a [f64],
    occupancy: &'a [f64],
    queue_wait: &'a [f64],
}

impl LayerInputs<'_> {
    fn med(&self, f: impl Fn(&PassProfile) -> f64) -> f64 {
        median(&self.traced.iter().map(f).collect::<Vec<_>>())
    }

    /// Median self seconds of one span name per traced pass.
    fn self_s(&self, name: &str) -> f64 {
        self.med(|p| p.self_of(name))
    }

    /// Median span count of one name per traced pass.
    fn calls(&self, name: &str) -> f64 {
        self.med(|p| p.calls_of(name) as f64)
    }

    /// Quantile `q` of one span name's durations over every traced
    /// pass, seconds.
    fn quantile_s(&self, name: &str, q: f64) -> f64 {
        let all: Vec<f64> = self
            .traced
            .iter()
            .flat_map(|p| p.durations.get(name).into_iter().flatten())
            .copied()
            .collect();
        quantile(&all, q)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Median traced pass wall, seconds.
    fn wall(&self) -> f64 {
        self.med(|p| p.wall_s)
    }

    /// Self seconds of `name` as a share of the traced wall, percent.
    fn share(&self, name: &str) -> f64 {
        ratio(self.self_s(name), self.wall()) * 100.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(l: &LayerInputs) -> Vec<Metric> {
    let flow_s: f64 = [
        "flow.synthesis",
        "flow.placement",
        "flow.routing",
        "flow.sta",
    ]
    .iter()
    .map(|n| l.self_s(n))
    .sum();
    let untraced_wall = median(l.untraced_walls);
    let value = |name: &str| -> f64 {
        match name {
            "trace.wall_s" => l.wall(),
            "netlist.setup_pct" => ratio(l.setup.self_of("netlist.build"), l.setup.wall_s) * 100.0,
            "netlist.build_pct" => l.share("netlist.build"),
            "flow.synthesis_pct" => l.share("flow.synthesis"),
            "flow.placement_pct" => l.share("flow.placement"),
            "flow.routing_pct" => l.share("flow.routing"),
            "flow.sta_pct" => l.share("flow.sta"),
            "flow.synthesis_calls" => l.calls("flow.synthesis"),
            "flow.placement_calls" => l.calls("flow.placement"),
            "flow.routing_calls" => l.calls("flow.routing"),
            "flow.sta_calls" => l.calls("flow.sta"),
            "flow.sim_events" => l.counter("flow.sim_events"),
            "flow.sim_events_per_us" => ratio(l.counter("flow.sim_events"), flow_s * 1e6),
            "core.flow_cache_hit_ratio" => l.counter("core.flow_cache_hit_ratio"),
            "core.sweep_pct" => l.share("core.sweep"),
            "core.sweep_occupancy" => median(l.occupancy),
            "core.sweep_queue_wait_pct" => ratio(median(l.queue_wait), untraced_wall) * 100.0,
            "gcn.train_pct" => l.share("gcn.train"),
            "gcn.train_sample_epochs_per_s" => {
                ratio(l.counter("gcn.sample_epochs"), l.self_s("gcn.train"))
            }
            "gcn.predict_pct" => l.share("gcn.predict"),
            "mckp.solve_pct" => l.share("mckp.solve"),
            "mckp.problem_pct" => l.share("mckp.problem"),
            "mckp.solves" => l.calls("mckp.solve"),
            "mckp.solves_per_s" => ratio(l.calls("mckp.solve"), l.self_s("mckp.solve")),
            "mckp.solve_p99_p50_ratio" => ratio(
                l.quantile_s("mckp.solve", 0.99),
                l.quantile_s("mckp.solve", 0.5),
            ),
            "serve.run_pct" => {
                let run = l.med(|p| p.durations.get("serve.run").map_or(0.0, |d| d.iter().sum()));
                ratio(run, l.wall()) * 100.0
            }
            "serve.loop_pct" => l.share("serve.run"),
            "serve.forwards_per_loop_s" => {
                ratio(l.counter("serve.gcn_forwards"), l.self_s("serve.run"))
            }
            "ingest.ingest_pct" => l.share("ingest.ingest"),
            "ingest.calls" => l.calls("ingest.ingest"),
            "ingest.p99_p50_ratio" => ratio(
                l.quantile_s("ingest.ingest", 0.99),
                l.quantile_s("ingest.ingest", 0.5),
            ),
            "ingest.accepted_ratio" => {
                ratio(l.counter("ingest.accepted"), l.calls("ingest.ingest"))
            }
            "ingest.mb_per_s" => ratio(l.counter("ingest.bytes") * 1e-6, l.self_s("ingest.ingest")),
            "recipe.search_pct" => l.share("recipe.search"),
            "recipe.evaluations_per_s" => {
                ratio(l.counter("recipe.evaluations"), l.self_s("recipe.search"))
            }
            "recipe.fit_pct" => l.share("recipe.fit"),
            "recipe.plan_pct" => l.share("recipe.plan"),
            "pass.self_pct" => l.share("pass"),
            "trace.passes" => l.traced.len() as f64,
            "trace.overhead_pct" => ratio(l.wall() - untraced_wall, untraced_wall) * 100.0,
            "layers.coverage_pct" => l.med(|p| p.coverage_pct("pass")),
            other => l.counter(other),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect()
}

/// Host microseconds per call of each layer beside the serving
/// simulator's hand-set `ServeConfig` constants, which a calibrated cost
/// model should take from these.
fn unit_costs(l: &LayerInputs) -> Vec<String> {
    let per_call = |name: &str| ratio(l.self_s(name), l.calls(name)) * 1e6;
    let c = ServeConfig::default();
    let mut rows = vec![
        (
            "serve loop per GCN forward".to_owned(),
            ratio(l.self_s("serve.run"), l.counter("serve.gcn_forwards")) * 1e6,
            format!(
                "per_miss_us = {}, batch_overhead_us = {}",
                c.per_miss_us, c.batch_overhead_us
            ),
        ),
        (
            "MCKP solve (p50 / p99)".to_owned(),
            per_call("mckp.solve"),
            format!(
                "{:.1} / {:.1}; plan_us = {}",
                l.quantile_s("mckp.solve", 0.5) * 1e6,
                l.quantile_s("mckp.solve", 0.99) * 1e6,
                c.plan_us
            ),
        ),
        (
            "upload ingest (p50 / p99)".to_owned(),
            per_call("ingest.ingest"),
            format!(
                "{:.1} / {:.1}; ingest_us = {}",
                l.quantile_s("ingest.ingest", 0.5) * 1e6,
                l.quantile_s("ingest.ingest", 0.99) * 1e6,
                c.ingest_us
            ),
        ),
        (
            "synthesis evaluation".to_owned(),
            ratio(l.self_s("recipe.search"), l.counter("recipe.evaluations")) * 1e6,
            String::new(),
        ),
        (
            "GCN train, per sample-epoch".to_owned(),
            ratio(l.self_s("gcn.train"), l.counter("gcn.sample_epochs")) * 1e6,
            String::new(),
        ),
    ];
    for stage in ["synthesis", "placement", "routing", "sta"] {
        let name = format!("flow.{stage}");
        rows.push((format!("flow {stage} call"), per_call(&name), String::new()));
    }
    let mut out =
        vec!["unit costs (host µs per call, mean | p50 / p99; ServeConfig constant):".to_owned()];
    for (what, measured, constant) in rows {
        out.push(
            format!("  {what:<28} {measured:>12.1}  {constant}")
                .trim_end()
                .to_owned(),
        );
    }
    out
}

/// Self time per span name, median over the traced passes.
fn self_time_table(traced: &[PassProfile]) -> String {
    let mut names: Vec<&str> = traced
        .iter()
        .flat_map(|p| p.self_s.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    let wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let mut s = format!(
        "self time per span (median of {} traced passes, wall {wall:.4} s):",
        traced.len()
    );
    for name in names {
        let v = median(&traced.iter().map(|p| p.self_of(name)).collect::<Vec<_>>());
        let calls = median(
            &traced
                .iter()
                .map(|p| p.calls_of(name) as f64)
                .collect::<Vec<_>>(),
        );
        let _ = write!(s, "\n  {name:<16} {v:>10.4} s  {calls:>8} calls");
    }
    s
}

/// The result's last line: `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}
