//! `serve`: a seeded Poisson stream of predict, plan and upload requests
//! through `Server::run`, replayed on the host as fast as possible.
//!
//! The stream draws from a 90-design pool (18 families × 5 sizes), about
//! three times the 32-entry result cache, so misses drive GCN forwards.
//! Uploads come from a corpus with more distinct documents than the
//! 16-entry ingest cache holds, so they keep re-parsing, and torn copies
//! exercise quarantine. Arrivals are in simulated time; the simulated
//! latencies are not host time and are not reported.

use super::{Counters, Output, Quality, Workload};
use crate::check::{check_plan, Verdict};
use crate::spans::{Ctx, Tracer};
use crate::uploads::{self, UploadCorpus};
use eda_cloud_core::{StageRuntimes, Workflow, WorkflowPlanner};
use eda_cloud_flow::StageKind;
use eda_cloud_gcn::{GraphSample, ModelConfig};
use eda_cloud_ingest::{FrontDoor, FrontDoorConfig};
use eda_cloud_mckp::savings_vs_baselines;
use eda_cloud_netlist::{generators, DesignGraph};
use eda_cloud_serve::{
    synthetic_requests_with_uploads, IngestDisposition, IngestOutcome, Ingestor, ModelSnapshot,
    PlanSummary, Planner, RequestKind, RequestOutcome, ServeConfig, ServeDesign, ServeError,
    ServeReport, ServeRequest, Server, UploadDoc, WorkloadConfig,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Seed of the served model's weights, fixed so that every stream seed
/// serves the same predictions (the serve binary's default seed).
const SNAPSHOT_SEED: u64 = 7;

/// `ServeConfig::workers`. With more than one, every batch fans its
/// four stage forwards out to threads and joins them, about 1,400 joins
/// a pass; on a few shared vCPUs each join waits for whichever thread
/// the host descheduled, and a one-core co-tenant slowed a two-worker
/// pass by about 25% against none for one worker.
const WORKERS: usize = 1;

/// Where the timing wrappers record: the pass's tracer and the span
/// their calls hang under, set before each traced run.
#[derive(Clone)]
struct Probe {
    at: Arc<Mutex<(Tracer, Ctx)>>,
    bytes: Arc<AtomicU64>,
    accepted: Arc<AtomicU64>,
}

impl Probe {
    fn new() -> Self {
        Self {
            at: Arc::new(Mutex::new((Tracer::off(), Ctx::NONE))),
            bytes: Arc::new(AtomicU64::new(0)),
            accepted: Arc::new(AtomicU64::new(0)),
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (tracer, at) = self.at.lock().expect("probe").clone();
        tracer.span(name, at, |_| f())
    }
}

/// A [`Planner`] that times each solve as an `mckp.solve` span.
struct TimedPlanner {
    inner: WorkflowPlanner,
    probe: Probe,
}

impl Planner for TimedPlanner {
    fn plan(
        &self,
        stage_secs: &[[f64; 4]; 4],
        budget_secs: u64,
    ) -> Result<Option<PlanSummary>, ServeError> {
        self.probe
            .span("mckp.solve", || self.inner.plan(stage_secs, budget_secs))
    }
}

/// An [`Ingestor`] that times each upload as an `ingest.ingest` span.
struct TimedIngestor {
    inner: FrontDoor,
    probe: Probe,
}

impl Ingestor for TimedIngestor {
    fn ingest(&self, doc: &UploadDoc) -> IngestOutcome {
        let outcome = self.probe.span("ingest.ingest", || self.inner.ingest(doc));
        self.probe
            .bytes
            .fetch_add(doc.text.len() as u64, Ordering::Relaxed);
        if outcome.is_accepted() {
            self.probe.accepted.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }
}

/// The workload's inputs: pool, uploads, stream, snapshot and the two
/// servers (plain, and with timing wrappers around planner and
/// ingestor).
pub struct Serve {
    seed: u64,
    uploads: UploadCorpus,
    requests: Vec<ServeRequest>,
    server: Server,
    traced_server: Server,
    probe: Probe,
}

/// One pass's simulated results.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The serving report.
    pub report: ServeReport,
    /// One outcome per request, by ordinal.
    pub outcomes: Vec<RequestOutcome>,
}

/// A served `[stage][vCPU]` prediction in the planner's shape.
fn runtime_rows(secs: &[[f64; 4]; 4]) -> Vec<StageRuntimes> {
    StageKind::ALL
        .iter()
        .zip(secs)
        .map(|(&kind, row)| StageRuntimes {
            kind,
            runtimes_secs: *row,
        })
        .collect()
}

/// `families × sizes` pool designs; both views come from the AIG, as in
/// `eda_cloud_serve::design_pool`.
fn pool(families: &[&str], sizes: &[u32], tracer: &Tracer, at: Ctx) -> Vec<Arc<ServeDesign>> {
    families
        .iter()
        .flat_map(|f| sizes.iter().map(move |&s| (*f, s)))
        .map(|(family, size)| {
            tracer.span("netlist.build", at, |_| {
                let aig = generators::build_family(family, size).expect("generator family");
                let graph = DesignGraph::from_aig(&aig);
                let view = || GraphSample::new(&graph, [1.0; 4]);
                Arc::new(ServeDesign::new(format!("{family}{size}"), view(), view()))
            })
        })
        .collect()
}

/// `n` draws from `items` in seeded order, each item drawn equally often
/// to within one: whole copies of `items` plus a seeded subset for the
/// remainder, shuffled together.
fn even_draws<T: Clone>(items: &[T], n: usize, salt: u64) -> Vec<T> {
    if items.is_empty() {
        return Vec::new();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(salt);
    let mut rest = items.to_vec();
    rest.shuffle(&mut rng);
    rest.truncate(n % items.len());
    let mut draws: Vec<T> = (0..n / items.len())
        .flat_map(|_| items.iter().cloned())
        .chain(rest)
        .collect();
    draws.shuffle(&mut rng);
    draws
}

/// The stream with its designs and uploads re-drawn so that each pool
/// design and each upload document comes up equally often, in seeded
/// order; arrivals, deadlines and request kinds stay as drawn. With
/// independent uniform draws the pool's two largest designs (crossbars
/// of 7.6k and 9.1k nodes, a third of the pool's nodes) were asked for
/// a seed-dependent number of times, and the pass's cost moved by up to
/// 20% from one seed to the next. A shuffle of many copies still reads
/// like independent draws locally, so the result cache hits about as
/// often.
fn balanced(
    mut requests: Vec<ServeRequest>,
    designs: &[Arc<ServeDesign>],
    docs: &[Arc<UploadDoc>],
    seed: u64,
) -> Vec<ServeRequest> {
    let uploads = requests.iter().filter(|r| r.upload.is_some()).count();
    let mut design_draws = even_draws(designs, requests.len(), seed ^ 0xBA1A_0CED).into_iter();
    let mut doc_draws = even_draws(docs, uploads, seed ^ 0x0D0C_0D0C).into_iter();
    for request in &mut requests {
        request.design = design_draws.next().expect("one design per request");
        if request.upload.is_some() {
            request.upload = doc_draws.next();
        }
    }
    requests
}

impl Workload for Serve {
    type Value = Value;

    fn setup(seed: u64, tiny: bool, tracer: &Tracer, at: Ctx) -> Self {
        let all: Vec<&str> = generators::FAMILY_NAMES.to_vec();
        // Requests are a whole number of pool rounds (23 × 90, 8 × 12),
        // so every design is asked for exactly as often.
        let (families, sizes, upload_sizes, torn, requests): (
            &[&str],
            &[u32],
            &[u32],
            usize,
            usize,
        ) = if tiny {
            (&all[..6], &[4, 6], &[3], 4, 96)
        } else {
            (&all, &[4, 6, 8, 10, 12], &[3, 5], 12, 2_070)
        };
        let designs = pool(families, sizes, tracer, at);
        let uploads = uploads::corpus(&all[..families.len()], upload_sizes, torn, seed, tracer, at);
        let requests = balanced(
            synthetic_requests_with_uploads(
                &designs,
                &uploads.docs,
                &WorkloadConfig {
                    requests,
                    seed,
                    ingest_every: 4,
                    ..WorkloadConfig::default()
                },
            ),
            &designs,
            &uploads.docs,
            seed,
        );
        let snapshot = ModelSnapshot::seeded(&ModelConfig::fast(), SNAPSHOT_SEED);
        let config = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        let wf = Workflow::with_defaults();
        let front_door = || FrontDoor::with_pool_profile(FrontDoorConfig::default());
        let server = Server::new(
            snapshot.clone(),
            Box::new(WorkflowPlanner::new(wf.clone())),
            config.clone(),
        )
        .with_ingestor(Box::new(front_door()));
        let probe = Probe::new();
        let traced_server = Server::new(
            snapshot,
            Box::new(TimedPlanner {
                inner: WorkflowPlanner::new(wf),
                probe: probe.clone(),
            }),
            config,
        )
        .with_ingestor(Box::new(TimedIngestor {
            inner: front_door(),
            probe: probe.clone(),
        }));
        Self {
            seed,
            uploads,
            requests,
            server,
            traced_server,
            probe,
        }
    }

    fn ops(&self) -> u64 {
        self.requests.len() as u64
    }

    fn pass(&self, _wf: &Workflow) -> Result<Output<Value>, String> {
        let (report, outcomes) = self
            .server
            .run(self.seed, &self.requests)
            .map_err(|e| e.to_string())?;
        Ok(Output {
            value: Value { report, outcomes },
            counters: Counters::new(),
        })
    }

    fn traced_pass(&self, _wf: &Workflow, t: &Tracer, at: Ctx) -> Result<Output<Value>, String> {
        let run = t.reserve();
        *self.probe.at.lock().expect("probe") = (
            t.clone(),
            Ctx {
                pass: at.pass,
                parent: run,
            },
        );
        self.probe.bytes.store(0, Ordering::Relaxed);
        self.probe.accepted.store(0, Ordering::Relaxed);
        let result = t.span_with_id(run, "serve.run", at, |_| {
            self.traced_server.run(self.seed, &self.requests)
        });
        *self.probe.at.lock().expect("probe") = (Tracer::off(), Ctx::NONE);
        let (report, outcomes) = result.map_err(|e| e.to_string())?;
        Ok(Output {
            counters: serve_counters(&report, &self.probe),
            value: Value { report, outcomes },
        })
    }

    fn check(&self, wf: &Workflow, value: &Value) -> Verdict {
        let c = &value.report.counters;
        let n = self.requests.len() as u64;
        let mut v = Verdict {
            attempted: n,
            failed: c.shed,
            ..Verdict::default()
        };
        v.expect(c.requests == n, || {
            format!("report counts {} requests of {n}", c.requests)
        });
        v.expect(c.completed + c.shed == c.requests, || {
            format!(
                "completed {} + shed {} ≠ requests {}",
                c.completed, c.shed, c.requests
            )
        });
        v.expect(value.outcomes.len() as u64 == n, || {
            format!("{} outcomes for {n} requests", value.outcomes.len())
        });
        let mut shed = 0;
        for (request, outcome) in self.requests.iter().zip(&value.outcomes) {
            v.expect(outcome.ordinal() == request.ordinal, || {
                format!(
                    "outcome {} answers request {}",
                    outcome.ordinal(),
                    request.ordinal
                )
            });
            let RequestOutcome::Completed {
                stage_secs,
                plan,
                ingest,
                ..
            } = outcome
            else {
                shed += 1;
                continue;
            };
            match request.kind {
                RequestKind::Plan { budget_secs } => {
                    match wf.deployment_problem(&runtime_rows(stage_secs)) {
                        Ok(problem) => {
                            let answer = plan
                                .as_ref()
                                .map(|p| (&p.vcpus[..], p.total_cost_usd, p.total_runtime_secs));
                            if let Err(e) = check_plan(&problem, budget_secs, answer) {
                                v.problem(format!("request {}: {e}", request.ordinal));
                            }
                        }
                        Err(e) => v.problem(format!("request {}: {e}", request.ordinal)),
                    }
                }
                RequestKind::Ingest => {
                    let doc = request
                        .upload
                        .as_ref()
                        .expect("ingest requests carry an upload");
                    let expect_accept = self.uploads.accept.get(&doc.fingerprint).copied();
                    match ingest.as_deref() {
                        Some(IngestDisposition::Accepted { .. }) => v
                            .expect(expect_accept == Some(true), || {
                                format!("upload {} accepted, expected quarantine", doc.name)
                            }),
                        Some(IngestDisposition::Rejected { reason }) => {
                            v.expect(expect_accept == Some(false), || {
                                format!("upload {} quarantined: {reason}", doc.name)
                            });
                            v.expect(stage_secs.iter().flatten().all(|&s| s == 0.0), || {
                                format!("quarantined upload {} has predictions", doc.name)
                            });
                        }
                        None => v.problem(format!("upload {} has no disposition", doc.name)),
                    }
                }
                RequestKind::Predict | RequestKind::PlanRecipe { .. } => {
                    v.expect(
                        stage_secs
                            .iter()
                            .flatten()
                            .all(|s| s.is_finite() && *s > 0.0),
                        || format!("request {} has a non-positive prediction", request.ordinal),
                    );
                }
            }
        }
        v.expect(shed == c.shed, || {
            format!("{shed} shed outcomes, report counts {}", c.shed)
        });
        v
    }

    fn quality(&self, wf: &Workflow, value: &Value) -> Quality {
        let mut savings = Vec::new();
        for (request, outcome) in self.requests.iter().zip(&value.outcomes) {
            if let (
                RequestKind::Plan { budget_secs },
                RequestOutcome::Completed {
                    stage_secs,
                    plan: Some(_),
                    ..
                },
            ) = (request.kind, outcome)
            {
                if let Some(s) = wf
                    .deployment_problem(&runtime_rows(stage_secs))
                    .ok()
                    .and_then(|p| savings_vs_baselines(&p, budget_secs))
                {
                    savings.push(s.saving_vs_over * 100.0);
                }
            }
        }
        Quality {
            completed: value.report.counters.completed,
            plan_saving_pct: Some(savings.iter().sum::<f64>() / savings.len().max(1) as f64),
            ..Quality::default()
        }
    }
}

/// Per-layer counters of a serve run: the report's counts plus what the
/// ingest wrapper saw.
fn serve_counters(report: &ServeReport, probe: &Probe) -> Counters {
    let c = &report.counters;
    let mut counters = Counters::new();
    counters.insert("serve.gcn_forwards", c.gcn_predictions as f64);
    counters.insert("serve.batches", c.batches as f64);
    counters.insert("serve.mean_batch_size", report.mean_batch_size);
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    counters.insert(
        "serve.cache_hit_ratio",
        c.cache_hits as f64 / lookups.max(1.0),
    );
    counters.insert("serve.shed", c.shed as f64);
    counters.insert("ingest.bytes", probe.bytes.load(Ordering::Relaxed) as f64);
    counters.insert(
        "ingest.accepted",
        probe.accepted.load(Ordering::Relaxed) as f64,
    );
    counters
}

#[cfg(test)]
mod tests {
    use super::even_draws;

    #[test]
    fn even_draws_come_up_equally_often_in_seeded_order() {
        let items: Vec<u32> = (0..9).collect();
        let draws = even_draws(&items, 9 * 23, 1);
        for item in &items {
            assert_eq!(draws.iter().filter(|d| *d == item).count(), 23);
        }
        assert_eq!(draws, even_draws(&items, 9 * 23, 1));
        assert_ne!(draws, even_draws(&items, 9 * 23, 2));
        let cut = even_draws(&items, 40, 3);
        assert_eq!(cut.len(), 40);
        for item in &items {
            let n = cut.iter().filter(|d| *d == item).count();
            assert!((4..=5).contains(&n), "{item} drawn {n} times");
        }
    }
}
