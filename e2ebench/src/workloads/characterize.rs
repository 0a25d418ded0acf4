//! `characterize`: one large netlist through the four-stage flow at
//! 1/2/4/8 vCPUs, then MCKP plans over the Table I and Fig 6 deadline
//! ladders.
//!
//! Routing and placement dominate; the GCN is not used and the MCKP is
//! small, so router, placer and sweep-pool changes show here while GCN
//! or serve changes do not.

use super::{pool, Counters, Output, Quality, Workload};
use crate::check::{check_plan, Verdict};
use crate::host::nproc;
use crate::spans::{Ctx, Tracer};
use eda_cloud_core::{
    design_fingerprint, recommended_family, CharacterizationConfig, CharacterizationReport,
    DeploymentPlan, FlowCache, FlowKey, StageCharacterization, StageRuntimes, VcpuRun, Workflow,
};
use eda_cloud_flow::{Placer, Router, StaEngine, StageKind, StageReport, Synthesizer};
use eda_cloud_netlist::{generators, Aig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deadlines as multiples of the fastest possible total: Table I's rows
/// (0.8857 is below the fastest total, an "NA" answer) then Fig 6's
/// sweep.
pub const LADDER: [f64; 12] = [
    1.7715, 1.0629, 1.0, 0.8857, 1.0, 1.1, 1.25, 1.5, 1.77, 2.0, 2.5, 3.0,
];

/// The characterized design: `aes` from `generators::openpiton_design`
/// (a small composite of the same families for the self-test).
#[must_use]
pub fn design(tiny: bool) -> Aig {
    if tiny {
        generators::merge("aes", &[generators::sbox(1, 4), generators::ctrl(5, 40)])
    } else {
        generators::openpiton_design("aes").expect("aes is an OpenPiton design")
    }
}

/// The seeded deadline ladder: each rung of [`LADDER`] moved by up to
/// ±2%, the first one (a Fig 6 edge, feasible by construction) kept.
#[must_use]
pub fn ladder(seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    LADDER
        .iter()
        .map(|&rel| {
            if rel == 1.0 {
                rel
            } else {
                rel * rng.gen_range(0.98..1.02)
            }
        })
        .collect()
}

/// The workload's inputs.
pub struct Characterize {
    design: Aig,
    config: CharacterizationConfig,
    ladder: Vec<f64>,
}

/// One pass's simulated results.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The characterization report.
    pub report: CharacterizationReport,
    /// Deadline per ladder rung, seconds.
    pub budgets: Vec<u64>,
    /// Plan per rung; `None` is an infeasible ("NA") deadline.
    pub plans: Vec<Option<DeploymentPlan>>,
}

/// Measured runtimes in the planner's shape.
fn runtimes_of(report: &CharacterizationReport) -> Vec<StageRuntimes> {
    report
        .stages
        .iter()
        .map(|s| {
            let mut runtimes_secs = [0.0; 4];
            for (slot, run) in runtimes_secs.iter_mut().zip(&s.runs) {
                *slot = run.report.runtime_secs;
            }
            StageRuntimes {
                kind: s.kind,
                runtimes_secs,
            }
        })
        .collect()
}

/// Simulated events (instructions + cache references) across reports.
pub fn sim_events<'a>(reports: impl IntoIterator<Item = &'a StageReport>) -> f64 {
    reports
        .into_iter()
        .map(|r| (r.counters.instructions + r.counters.cache_refs) as f64)
        .sum()
}

impl Characterize {
    /// Plan every ladder rung; each solve is an `mckp.solve` span when
    /// `t` records.
    fn plan_ladder(
        &self,
        wf: &Workflow,
        runtimes: &[StageRuntimes],
        min_total: u64,
        t: &Tracer,
        at: Ctx,
    ) -> Result<(Vec<u64>, Vec<Option<DeploymentPlan>>), String> {
        let budgets: Vec<u64> = self
            .ladder
            .iter()
            .map(|rel| (min_total as f64 * rel).round() as u64)
            .collect();
        let plans = budgets
            .iter()
            .map(|&budget| t.span("mckp.solve", at, |_| wf.plan_deployment(runtimes, budget)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((budgets, plans))
    }
}

impl Workload for Characterize {
    type Value = Value;

    fn setup(seed: u64, tiny: bool, tracer: &Tracer, at: Ctx) -> Self {
        let design = tracer.span("netlist.build", at, |_| design(tiny));
        let config = CharacterizationConfig::paper().with_workers(nproc());
        Self {
            design,
            config,
            ladder: ladder(seed),
        }
    }

    fn ops(&self) -> u64 {
        (self.config.vcpu_sweep.len() * 4 + LADDER.len()) as u64
    }

    fn pass(&self, wf: &Workflow) -> Result<Output<Value>, String> {
        let report = wf
            .characterize_design(&self.design, &self.config)
            .map_err(|e| e.to_string())?;
        let runtimes = runtimes_of(&report);
        let min_total = wf
            .deployment_problem(&runtimes)
            .map_err(|e| e.to_string())?
            .min_total_runtime();
        let (budgets, plans) =
            self.plan_ladder(wf, &runtimes, min_total, &Tracer::off(), Ctx::NONE)?;
        Ok(Output {
            value: Value {
                report,
                budgets,
                plans,
            },
            counters: Counters::new(),
        })
    }

    fn traced_pass(&self, wf: &Workflow, t: &Tracer, at: Ctx) -> Result<Output<Value>, String> {
        // `Workflow::characterize_design`, call for call.
        let config = &self.config;
        let synthesizer = Synthesizer::new().with_verification(config.verify);
        let cache = FlowCache::new();
        let key = FlowKey {
            design: design_fingerprint(&self.design),
            recipe: config.recipe.name().to_owned(),
            verify: config.verify,
        };
        let points = t.span("core.sweep", at, |sweep| {
            pool(config.workers, &config.vcpu_sweep, |_, &vcpus| {
                let ctx = wf.exec_context(StageKind::Synthesis, vcpus);
                let (netlist, syn) = t.span("flow.synthesis", sweep, |_| {
                    cache.synthesize(&synthesizer, &self.design, &key, &config.recipe, &ctx)
                })?;
                let ctx = wf.exec_context(StageKind::Placement, vcpus);
                let (placement, place) = t.span("flow.placement", sweep, |_| {
                    Placer::new().run(&netlist, &ctx)
                })?;
                let ctx = wf.exec_context(StageKind::Routing, vcpus);
                let (_, route) = t.span("flow.routing", sweep, |_| {
                    Router::new().run(&netlist, &placement, &ctx)
                })?;
                let ctx = wf.exec_context(StageKind::Sta, vcpus);
                let (_, sta) = t.span("flow.sta", sweep, |_| {
                    StaEngine::new().run(&netlist, &placement, &ctx)
                })?;
                Ok::<_, eda_cloud_flow::FlowError>((netlist.cell_count(), [syn, place, route, sta]))
            })
        });
        let points = points
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut stages: Vec<StageCharacterization> = StageKind::ALL
            .iter()
            .map(|&kind| StageCharacterization {
                kind,
                family: recommended_family(kind).to_string(),
                runs: Vec::new(),
            })
            .collect();
        let mut cells = 0;
        for (&vcpus, (point_cells, reports)) in config.vcpu_sweep.iter().zip(points) {
            cells = point_cells;
            for (stage, report) in stages.iter_mut().zip(reports) {
                stage.runs.push(VcpuRun { vcpus, report });
            }
        }
        let report = CharacterizationReport {
            design: self.design.name().to_owned(),
            cells,
            stages,
        };

        let runtimes = runtimes_of(&report);
        let min_total = t
            .span("mckp.problem", at, |_| wf.deployment_problem(&runtimes))
            .map_err(|e| e.to_string())?
            .min_total_runtime();
        let (budgets, plans) = self.plan_ladder(wf, &runtimes, min_total, t, at)?;

        let mut counters = Counters::new();
        let lookups = (cache.hits() + cache.misses()) as f64;
        counters.insert(
            "core.flow_cache_hit_ratio",
            cache.hits() as f64 / lookups.max(1.0),
        );
        counters.insert(
            "flow.sim_events",
            sim_events(
                report
                    .stages
                    .iter()
                    .flat_map(|s| s.runs.iter().map(|r| &r.report)),
            ),
        );
        Ok(Output {
            value: Value {
                report,
                budgets,
                plans,
            },
            counters,
        })
    }

    fn check(&self, wf: &Workflow, value: &Value) -> Verdict {
        let mut v = Verdict {
            attempted: self.ops(),
            ..Verdict::default()
        };
        let report = &value.report;
        v.expect(report.stages.len() == 4, || {
            format!("{} stages characterized", report.stages.len())
        });
        for stage in &report.stages {
            v.expect(stage.runs.len() == self.config.vcpu_sweep.len(), || {
                format!("{} has {} runs", stage.kind, stage.runs.len())
            });
            for run in &stage.runs {
                let secs = run.report.runtime_secs;
                v.expect(secs.is_finite() && secs > 0.0, || {
                    format!("{} at {} vCPUs took {secs} s", stage.kind, run.vcpus)
                });
            }
        }
        match wf.deployment_problem(&runtimes_of(report)) {
            Ok(problem) => {
                for (&budget, plan) in value.budgets.iter().zip(&value.plans) {
                    let vcpus: Option<Vec<u32>> = plan
                        .as_ref()
                        .map(|p| p.stages.iter().map(|s| s.vcpus).collect());
                    let answer = plan
                        .as_ref()
                        .zip(vcpus.as_deref())
                        .map(|(p, v)| (v, p.total_cost_usd, p.total_runtime_secs));
                    if let Err(e) = check_plan(&problem, budget, answer) {
                        v.problem(format!("characterize ladder: {e}"));
                    }
                }
            }
            Err(e) => v.problem(format!("deployment problem: {e}")),
        }
        v
    }

    fn quality(&self, _wf: &Workflow, value: &Value) -> Quality {
        let savings: Vec<f64> = value
            .plans
            .iter()
            .flatten()
            .map(|p| p.savings.saving_vs_over * 100.0)
            .collect();
        Quality {
            completed: self.ops(),
            plan_saving_pct: Some(savings.iter().sum::<f64>() / savings.len().max(1) as f64),
            ..Quality::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_seeded_and_keeps_its_shape() {
        assert_eq!(ladder(3), ladder(3));
        assert_ne!(ladder(3), ladder(4));
        for (rung, base) in ladder(3).iter().zip(LADDER) {
            assert!((rung / base - 1.0).abs() <= 0.02, "{rung} vs {base}");
        }
        assert!(
            ladder(3).iter().filter(|&&r| r < 1.0).count() == 1,
            "one NA rung"
        );
    }
}
