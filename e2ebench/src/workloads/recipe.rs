//! `recipe_search`: `Workflow::recipe` over every design family — per-design
//! MCTS recipe search, the hybrid predictor fitted on traced synthesis
//! labels, and one joint recipe × VM plan per design through the
//! serving tier.
//!
//! The only workload where synthesis is the hot engine (as the search's
//! evaluator, through the recipe `EvalCache`).

use super::{Counters, Output, Quality, Workload};
use crate::check::Verdict;
use crate::spans::{Ctx, Tracer};
use eda_cloud_core::{RecipeScenario, Workflow, WorkflowPlanner, WorkflowRecipePlanner};
use eda_cloud_flow::{StageKind, Synthesizer};
use eda_cloud_gcn::{GraphSample, ModelConfig, Trainer};
use eda_cloud_netlist::{generators, Aig, DesignGraph};
use eda_cloud_recipe::{
    candidate_recipes, recipe_from_passes, DesignReport, HybridPredictor, HybridSample, JointPlan,
    RecipeReport, RecipeSearch,
};
use eda_cloud_serve::{
    ModelSnapshot, RecipePlanSummary, RecipePlanner, RequestKind, RequestOutcome, ServeConfig,
    ServeDesign, ServeError, ServeRequest, Server, VCPUS,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The searched families.
pub const FAMILIES: [&str; 18] = generators::FAMILY_NAMES;

/// Seed of the searches, the hybrid predictor and its snapshot (the
/// recipe binary's default). The benchmark seed only moves the joint
/// plans' deadline: seeded searches changed a pass's cost by about 20%
/// and, for some seeds, its peak memory twofold.
const SEARCH_SEED: u64 = 7;

/// The search's evaluation workers and the serving tier's workers. More
/// than one joins threads after every batch of evaluations; on a few
/// shared vCPUs each join waits for whichever thread the host
/// descheduled, and a one-core co-tenant slowed a two-worker pass by
/// about 25% against none for one worker. Reports are byte-identical
/// at every worker count.
const WORKERS: usize = 1;

/// The workload's inputs.
pub struct RecipeSearchWorkload {
    scenario: RecipeScenario,
    designs: Vec<Aig>,
}

/// A [`RecipePlanner`] that times each joint plan as a `recipe.plan` span.
struct TimedRecipePlanner {
    inner: WorkflowRecipePlanner,
    tracer: Tracer,
    at: Ctx,
}

impl RecipePlanner for TimedRecipePlanner {
    fn plan_recipe(
        &self,
        design: &ServeDesign,
        stage_secs: &[[f64; 4]; 4],
        deadline_secs: u64,
    ) -> Result<Option<RecipePlanSummary>, ServeError> {
        self.tracer.span("recipe.plan", self.at, |_| {
            self.inner.plan_recipe(design, stage_secs, deadline_secs)
        })
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Workload for RecipeSearchWorkload {
    type Value = RecipeReport;

    fn setup(seed: u64, tiny: bool, tracer: &Tracer, at: Ctx) -> Self {
        let scenario = RecipeScenario {
            designs: FAMILIES[..if tiny { 2 } else { 18 }]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            size: if tiny { 4 } else { 8 },
            seed: SEARCH_SEED,
            iters: if tiny { 8 } else { 96 },
            workers: WORKERS,
            deadline_secs: ChaCha8Rng::seed_from_u64(seed).gen_range(90_000..110_000),
        };
        let designs = scenario
            .designs
            .iter()
            .map(|f| {
                tracer.span("netlist.build", at, |_| {
                    generators::build_family(f, scenario.size).expect("generator family")
                })
            })
            .collect();
        Self { scenario, designs }
    }

    fn ops(&self) -> u64 {
        // One search and one joint-plan request per design.
        2 * self.scenario.designs.len() as u64
    }

    fn pass(&self, wf: &Workflow) -> Result<Output<RecipeReport>, String> {
        let report = wf.recipe(&self.scenario).map_err(err)?;
        Ok(Output {
            value: report,
            counters: Counters::new(),
        })
    }

    fn traced_pass(
        &self,
        wf: &Workflow,
        t: &Tracer,
        at: Ctx,
    ) -> Result<Output<RecipeReport>, String> {
        // `Workflow::recipe`, call for call.
        let scenario = &self.scenario;
        let designs = scenario
            .designs
            .iter()
            .map(|family| {
                t.span("netlist.build", at, |_| {
                    let aig = generators::build_family(family, scenario.size)
                        .ok_or_else(|| format!("unknown design family `{family}`"))?;
                    let name = format!("{family}_{}", scenario.size);
                    let graph = DesignGraph::from_aig(&aig);
                    let view = || GraphSample::new(&graph, [1.0; 4]);
                    let design = Arc::new(ServeDesign::new(name.clone(), view(), view()));
                    Ok::<_, String>((name, aig, design))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Phase 1: per-design search.
        let mut outcomes = Vec::with_capacity(designs.len());
        for (i, (name, aig, _)) in designs.iter().enumerate() {
            let search = RecipeSearch::new(scenario.search_config(i));
            outcomes.push(
                t.span("recipe.search", at, |_| search.run(name, aig))
                    .map_err(err)?,
            );
        }

        // Phase 2: the hybrid predictor on traced candidate labels.
        let predictor = t.span("recipe.fit", at, |fit| {
            let mut predictor = HybridPredictor::seeded(scenario.seed);
            let synthesizer = Synthesizer::new().with_verification(false);
            let trace_ctx = wf.exec_context(StageKind::Synthesis, 1);
            let cost_ctxs = VCPUS.map(|v| wf.exec_context(StageKind::Synthesis, v));
            let mut samples = Vec::new();
            for (name, aig, design) in &designs {
                let embedding = predictor.embed(&design.aig);
                for passes in candidate_recipes() {
                    let recipe = recipe_from_passes(&passes).map_err(err)?;
                    let (_, _, trace) = t
                        .span("flow.synthesis", fit, |_| {
                            synthesizer.run_traced(aig, &recipe, &trace_ctx)
                        })
                        .map_err(err)?;
                    let log_targets = cost_ctxs.each_ref().map(|ctx| {
                        Synthesizer::report_from_trace(&trace, ctx)
                            .runtime_secs
                            .max(1e-9)
                            .ln()
                    });
                    samples.push(HybridSample {
                        design: name.clone(),
                        embedding: embedding.clone(),
                        passes,
                        log_targets,
                    });
                }
            }
            predictor.fit(&samples, &Trainer::fast()).map_err(err)?;
            Ok::<_, String>(predictor)
        })?;

        // Phase 3: one PlanRecipe request per design.
        let requests: Vec<ServeRequest> = designs
            .iter()
            .enumerate()
            .map(|(i, (_, _, design))| ServeRequest {
                ordinal: i as u64,
                arrival_us: i as u64 * 1_000,
                deadline_us: i as u64 * 1_000 + 60_000_000,
                kind: RequestKind::PlanRecipe {
                    deadline_secs: scenario.deadline_secs,
                },
                design: design.clone(),
                upload: None,
            })
            .collect();
        let run = t.reserve();
        let (serve_report, serve_outcomes) = t
            .span_with_id(run, "serve.run", at, |_| {
                let server = Server::new(
                    ModelSnapshot::seeded(&ModelConfig::fast(), scenario.seed),
                    Box::new(WorkflowPlanner::new(wf.clone())),
                    ServeConfig {
                        workers: scenario.workers,
                        ..ServeConfig::default()
                    },
                )
                .with_recipe_planner(Box::new(TimedRecipePlanner {
                    inner: WorkflowRecipePlanner::new(wf.clone(), predictor),
                    tracer: t.clone(),
                    at: Ctx {
                        pass: at.pass,
                        parent: run,
                    },
                }));
                server.run(scenario.seed, &requests)
            })
            .map_err(err)?;

        let sections = outcomes
            .iter()
            .zip(&serve_outcomes)
            .map(|(outcome, served)| {
                let section = DesignReport::from_outcome(outcome);
                match served {
                    RequestOutcome::Completed {
                        recipe: Some(summary),
                        ..
                    } => section.with_plan(JointPlan {
                        recipe: summary.recipe.clone(),
                        vcpus: summary.vcpus,
                        total_runtime_secs: summary.total_runtime_secs,
                        total_cost_usd: summary.total_cost_usd,
                        predicted_synth_ms: summary.predicted_synth_ms,
                    }),
                    _ => section,
                }
            })
            .collect();
        let report = RecipeReport {
            seed: scenario.seed,
            iters: scenario.iters,
            designs: sections,
        };

        let evaluations: u64 = outcomes.iter().map(|o| o.evaluations).sum();
        let hits: u64 = outcomes.iter().map(|o| o.cache_hits).sum();
        let mut counters = Counters::new();
        counters.insert("recipe.evaluations", evaluations as f64);
        counters.insert(
            "recipe.eval_cache_hit_ratio",
            hits as f64 / (evaluations + hits).max(1) as f64,
        );
        counters.insert(
            "serve.gcn_forwards",
            serve_report.counters.gcn_predictions as f64,
        );
        counters.insert("serve.batches", serve_report.counters.batches as f64);
        counters.insert("serve.mean_batch_size", serve_report.mean_batch_size);
        counters.insert("serve.shed", serve_report.counters.shed as f64);
        Ok(Output {
            value: report,
            counters,
        })
    }

    fn check(&self, _wf: &Workflow, report: &RecipeReport) -> Verdict {
        let mut v = Verdict {
            attempted: self.ops(),
            ..Verdict::default()
        };
        v.expect(report.designs.len() == self.designs.len(), || {
            format!(
                "{} design sections for {} designs",
                report.designs.len(),
                self.designs.len()
            )
        });
        for d in &report.designs {
            v.expect(d.best_score <= d.baseline_score, || {
                format!(
                    "{}: best score {} worse than default {}",
                    d.design, d.best_score, d.baseline_score
                )
            });
            v.expect(d.tree_visits == self.scenario.iters, || {
                format!(
                    "{}: {} root visits for {} iterations",
                    d.design, d.tree_visits, self.scenario.iters
                )
            });
            match &d.plan {
                Some(p) => {
                    v.expect(p.vcpus.iter().all(|c| VCPUS.contains(c)), || {
                        format!("{}: joint plan picks {:?} vCPUs", d.design, p.vcpus)
                    });
                    v.expect(p.total_runtime_secs <= self.scenario.deadline_secs, || {
                        format!("{}: joint plan takes {} s", d.design, p.total_runtime_secs)
                    });
                }
                None => v.problem(format!(
                    "{}: no joint plan under a generous deadline",
                    d.design
                )),
            }
        }
        v
    }

    fn quality(&self, _wf: &Workflow, report: &RecipeReport) -> Quality {
        let gains: Vec<f64> = report
            .designs
            .iter()
            .map(|d| {
                100.0 * (d.baseline_score as f64 - d.best_score as f64)
                    / d.baseline_score.max(1) as f64
            })
            .collect();
        Quality {
            completed: self.ops(),
            recipe_gain_pct: Some(gains.iter().sum::<f64>() / gains.len().max(1) as f64),
            ..Quality::default()
        }
    }
}
