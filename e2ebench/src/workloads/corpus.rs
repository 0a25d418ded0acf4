//! `corpus_train`: the runtime-label corpus over every design family at
//! one small size, the four per-stage GCNs trained on it, then held-out
//! predictions planned with the MCKP.
//!
//! The same flow engines as `characterize` run on many small netlists,
//! so per-design fixed costs, `FlowCache` replay and a many-job sweep
//! pool matter more than grid size; GCN training is the largest share.
//! A router change that only helps large grids should move nothing here.

use super::characterize::sim_events;
use super::{pool, Counters, Output, Quality, Workload};
use crate::check::{check_plan, Verdict};
use crate::host::nproc;
use crate::spans::{Ctx, Tracer};
use eda_cloud_core::dataset::{DatasetBuilder, DatasetConfig, StageDatasets};
use eda_cloud_core::predict::StagePredictors;
use eda_cloud_core::{
    design_fingerprint, DeploymentPlan, FlowCache, FlowKey, StageRuntimes, Workflow,
};
use eda_cloud_flow::{Placer, Recipe, Router, StaEngine, StageKind, Synthesizer};
use eda_cloud_gcn::{DatasetSplit, GraphSample, TrainOutcome, Trainer};
use eda_cloud_netlist::{generators, Aig, DesignGraph};
use eda_cloud_serve::VCPUS;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Share of design families held out of training.
const TEST_FRACTION: f64 = 0.2;

/// Deadlines per held-out design, as multiples of its fastest predicted
/// total; each run moves every rung by up to ±2% from its seed.
const HELD_OUT_LADDER: [f64; 3] = [1.1, 1.5, 2.0];

/// The workload's inputs.
pub struct CorpusTrain {
    config: DatasetConfig,
    trainer: Trainer,
    designs: Vec<Aig>,
    ladder: Vec<f64>,
}

/// One held-out design's prediction and plan.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldOut {
    /// Sample index in the corpus.
    pub index: usize,
    /// Predicted runtimes.
    pub predicted: Vec<StageRuntimes>,
    /// Deadlines, seconds.
    pub budgets: Vec<u64>,
    /// Plan per deadline (`None` when infeasible).
    pub plans: Vec<Option<DeploymentPlan>>,
}

/// One pass's simulated results.
#[derive(Debug, Clone)]
pub struct Value {
    /// The labeled corpus.
    pub data: StageDatasets,
    /// The trained models and their held-out reports.
    pub predictors: StagePredictors,
    /// Held-out predictions and plans.
    pub held_out: Vec<HeldOut>,
}

/// Predict every held-out sample and plan it over `ladder`; predictions
/// are `gcn.predict` spans and plans `mckp.solve` spans when `t`
/// records.
fn held_out(
    wf: &Workflow,
    ladder: &[f64],
    data: &StageDatasets,
    predictors: &StagePredictors,
    seed: u64,
    t: &Tracer,
    at: Ctx,
) -> Result<Vec<HeldOut>, String> {
    let split = DatasetSplit::by_design(&data.synthesis, TEST_FRACTION, seed);
    split
        .test
        .iter()
        .map(|&index| {
            let predicted = t.span("gcn.predict", at, |_| {
                predictors.predict_design(&data.synthesis[index], &data.routing[index])
            });
            let min_total = t
                .span("mckp.problem", at, |_| wf.deployment_problem(&predicted))
                .map_err(|e| e.to_string())?
                .min_total_runtime();
            let budgets: Vec<u64> = ladder
                .iter()
                .map(|rel| (min_total as f64 * rel).round() as u64)
                .collect();
            let plans = budgets
                .iter()
                .map(|&b| t.span("mckp.solve", at, |_| wf.plan_deployment(&predicted, b)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            Ok(HeldOut {
                index,
                predicted,
                budgets,
                plans,
            })
        })
        .collect()
}

/// The four corpus samples of one (family, size, recipe) job.
type Entry = [GraphSample; 4];

impl Workload for CorpusTrain {
    type Value = Value;

    fn setup(seed: u64, tiny: bool, tracer: &Tracer, at: Ctx) -> Self {
        let families: Vec<String> = if tiny {
            ["adder", "parity", "max", "gray2bin"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect()
        } else {
            generators::FAMILY_NAMES
                .iter()
                .map(|s| (*s).to_owned())
                .collect()
        };
        let config = DatasetConfig {
            families,
            sizes: vec![if tiny { 3 } else { 4 }],
            recipes: if tiny { 2 } else { 3 },
            verify: false,
            workers: nproc(),
        };
        let designs = config
            .families
            .iter()
            .flat_map(|f| config.sizes.iter().map(move |&s| (f, s)))
            .map(|(f, s)| {
                tracer.span("netlist.build", at, |_| {
                    generators::build_family(f, s).expect("generator family")
                })
            })
            .collect();
        let mut trainer = Trainer::fast();
        if tiny {
            trainer.epochs = 3;
        }
        // The seed only moves the held-out deadlines: a seeded trainer
        // (weights, shuffle, held-out split) or corpus order changed the
        // training cost and the held-out error by up to a third.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ladder = HELD_OUT_LADDER
            .iter()
            .map(|rel| rel * rng.gen_range(0.98..1.02))
            .collect();
        Self {
            config,
            trainer,
            designs,
            ladder,
        }
    }

    fn ops(&self) -> u64 {
        // Four stages at four vCPU counts per netlist, four fits, and
        // a ladder of plans per held-out family's netlists.
        let families = self.config.families.len() as f64;
        let held = (families * TEST_FRACTION)
            .round()
            .clamp(1.0, families - 1.0) as usize
            * self.config.sizes.len()
            * self.config.recipes;
        (self.config.netlist_count() * 16 + 4 + held * HELD_OUT_LADDER.len()) as u64
    }

    fn pass(&self, wf: &Workflow) -> Result<Output<Value>, String> {
        let data = DatasetBuilder::new(wf)
            .build(&self.config)
            .map_err(|e| e.to_string())?;
        let predictors = StagePredictors::train(&data, &self.trainer).map_err(|e| e.to_string())?;
        let held_out = held_out(
            wf,
            &self.ladder,
            &data,
            &predictors,
            self.trainer.seed,
            &Tracer::off(),
            Ctx::NONE,
        )?;
        Ok(Output {
            value: Value {
                data,
                predictors,
                held_out,
            },
            counters: Counters::new(),
        })
    }

    fn traced_pass(&self, wf: &Workflow, t: &Tracer, at: Ctx) -> Result<Output<Value>, String> {
        // `DatasetBuilder::build`, call for call.
        let config = &self.config;
        let recipes: Vec<Recipe> = Recipe::standard_suite()
            .into_iter()
            .take(config.recipes.max(1))
            .collect();
        let mut jobs: Vec<(String, u32, Recipe)> = Vec::new();
        for family in &config.families {
            for &size in &config.sizes {
                for recipe in &recipes {
                    jobs.push((family.clone(), size, recipe.clone()));
                }
            }
        }
        let cache = FlowCache::new();
        let events = Mutex::new(0.0f64);
        let entries = t.span("core.sweep", at, |sweep| {
            pool(config.workers, &jobs, |_, (family, size, recipe)| {
                let Some(aig) = t.span("netlist.build", sweep, |_| {
                    generators::build_family(family, *size)
                }) else {
                    return Ok(None);
                };
                let aig_graph = t.span("netlist.build", sweep, |_| DesignGraph::from_aig(&aig));
                let synthesizer = Synthesizer::new().with_verification(config.verify);
                let key = FlowKey {
                    design: design_fingerprint(&aig),
                    recipe: recipe.name().to_owned(),
                    verify: config.verify,
                };
                let mut times = [[0.0f64; 4]; 4];
                let mut netlist = None;
                for (k, &vcpus) in VCPUS.iter().enumerate() {
                    let ctx = wf.exec_context(StageKind::Synthesis, vcpus);
                    let (nl, syn) = t.span("flow.synthesis", sweep, |_| {
                        cache.synthesize(&synthesizer, &aig, &key, recipe, &ctx)
                    })?;
                    let ctx = wf.exec_context(StageKind::Placement, vcpus);
                    let (placement, place) =
                        t.span("flow.placement", sweep, |_| Placer::new().run(&nl, &ctx))?;
                    let ctx = wf.exec_context(StageKind::Routing, vcpus);
                    let (_, route) = t.span("flow.routing", sweep, |_| {
                        Router::new().run(&nl, &placement, &ctx)
                    })?;
                    let ctx = wf.exec_context(StageKind::Sta, vcpus);
                    let (_, sta) = t.span("flow.sta", sweep, |_| {
                        StaEngine::new().run(&nl, &placement, &ctx)
                    })?;
                    *events.lock().expect("event tally") +=
                        sim_events([&syn, &place, &route, &sta]);
                    for (row, report) in times.iter_mut().zip([&syn, &place, &route, &sta]) {
                        row[k] = report.runtime_secs;
                    }
                    netlist = Some(nl);
                }
                let netlist = netlist.expect("sweep ran at least once");
                let base_name = format!("{family}{size}.{}", recipe.name());
                let entry: Entry = t.span("netlist.build", sweep, |_| {
                    let nl_graph = DesignGraph::from_netlist(&netlist);
                    let sample = |graph: &DesignGraph, k: usize| {
                        let mut sample = GraphSample::new(graph, times[k]);
                        sample.name = base_name.clone();
                        sample
                    };
                    [
                        sample(&aig_graph, 0),
                        sample(&nl_graph, 1),
                        sample(&nl_graph, 2),
                        sample(&nl_graph, 3),
                    ]
                });
                Ok::<_, eda_cloud_flow::FlowError>(Some(entry))
            })
        });
        let mut data = StageDatasets::default();
        for result in entries {
            if let Some([synthesis, placement, routing, sta]) = result.map_err(|e| e.to_string())? {
                data.synthesis.push(synthesis);
                data.placement.push(placement);
                data.routing.push(routing);
                data.sta.push(sta);
            }
        }
        if data.synthesis.is_empty() {
            return Err("dataset for stage `synthesis` is empty".to_owned());
        }

        // `StagePredictors::train`, call for call.
        let trainer = &self.trainer;
        let mut sample_epochs = 0.0;
        let mut fit = |samples: &[GraphSample]| -> Result<TrainOutcome, String> {
            t.span("gcn.train", at, |_| {
                let split = DatasetSplit::by_design(samples, TEST_FRACTION, trainer.seed);
                sample_epochs += (split.train.len() * trainer.epochs) as f64;
                trainer.try_fit(samples, &split).map_err(|e| e.to_string())
            })
        };
        let predictors = StagePredictors {
            synthesis: fit(&data.synthesis)?,
            placement: fit(&data.placement)?,
            routing: fit(&data.routing)?,
            sta: fit(&data.sta)?,
        };
        let held_out = held_out(wf, &self.ladder, &data, &predictors, trainer.seed, t, at)?;

        let mut counters = Counters::new();
        let lookups = (cache.hits() + cache.misses()) as f64;
        counters.insert(
            "core.flow_cache_hit_ratio",
            cache.hits() as f64 / lookups.max(1.0),
        );
        counters.insert("flow.sim_events", events.into_inner().expect("event tally"));
        counters.insert("gcn.sample_epochs", sample_epochs);
        Ok(Output {
            value: Value {
                data,
                predictors,
                held_out,
            },
            counters,
        })
    }

    fn check(&self, wf: &Workflow, value: &Value) -> Verdict {
        let mut v = Verdict {
            attempted: self.ops(),
            ..Verdict::default()
        };
        let data = &value.data;
        let expected = self.config.netlist_count();
        for kind in StageKind::ALL {
            let samples = data.for_stage(kind);
            v.expect(samples.len() == expected, || {
                format!(
                    "{kind} corpus has {} samples, expected {expected}",
                    samples.len()
                )
            });
            v.expect(
                samples
                    .iter()
                    .all(|s| s.targets_secs.iter().all(|t| t.is_finite() && *t > 0.0)),
                || format!("{kind} corpus has a non-positive label"),
            );
        }
        // One netlist per set-up design and recipe.
        v.expect(self.designs.len() * self.config.recipes == expected, || {
            format!(
                "{} designs × {} recipes ≠ {expected}",
                self.designs.len(),
                self.config.recipes
            )
        });
        let error = value.predictors.mean_error();
        v.expect(error.is_finite() && error > 0.0, || {
            format!("mean held-out error {error}")
        });
        v.expect(!value.held_out.is_empty(), || {
            "no held-out designs".to_owned()
        });
        for h in &value.held_out {
            let problem = match wf.deployment_problem(&h.predicted) {
                Ok(p) => p,
                Err(e) => {
                    v.problem(format!("held-out problem: {e}"));
                    continue;
                }
            };
            for (&budget, plan) in h.budgets.iter().zip(&h.plans) {
                let vcpus: Option<Vec<u32>> = plan
                    .as_ref()
                    .map(|p| p.stages.iter().map(|s| s.vcpus).collect());
                let answer = plan
                    .as_ref()
                    .zip(vcpus.as_deref())
                    .map(|(p, vc)| (vc, p.total_cost_usd, p.total_runtime_secs));
                if let Err(e) = check_plan(&problem, budget, answer) {
                    v.problem(format!("held-out sample {}: {e}", h.index));
                }
            }
        }
        v
    }

    fn quality(&self, _wf: &Workflow, value: &Value) -> Quality {
        let savings: Vec<f64> = value
            .held_out
            .iter()
            .flat_map(|h| h.plans.iter().flatten())
            .map(|p| p.savings.saving_vs_over * 100.0)
            .collect();
        Quality {
            completed: self.ops(),
            plan_saving_pct: Some(savings.iter().sum::<f64>() / savings.len().max(1) as f64),
            predict_error_pct: Some(value.predictors.mean_error() * 100.0),
            ..Quality::default()
        }
    }
}
