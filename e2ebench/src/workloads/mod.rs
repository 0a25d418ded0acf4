//! The four workloads and the interface the benchmark runs them through.
//!
//! Each workload runs one *pass* two ways:
//!
//! * [`Workload::pass`] calls the program's own entry points
//!   (`Workflow::characterize_design`, `DatasetBuilder::build`,
//!   `Server::run`, `Workflow::recipe`, …) and is what the end-to-end
//!   metrics time;
//! * [`Workload::traced_pass`] composes the same pass from the layers'
//!   public calls, in the order the entry point makes them, and wraps
//!   each call in a span. Its output must match the untraced pass byte
//!   for byte.

pub mod characterize;
pub mod corpus;
pub mod recipe;
pub mod serve;

use crate::check::Verdict;
use crate::spans::{Ctx, Tracer};
use eda_cloud_core::Workflow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counts a traced pass observed (cache hits, forwards, bytes …), by
/// per-layer metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// One pass's output: what the checks and the byte-for-byte comparison
/// see, plus counters only a traced pass fills in.
#[derive(Debug, Clone)]
pub struct Output<T> {
    /// The simulated results.
    pub value: T,
    /// Layer counters observed by a traced pass (empty otherwise).
    pub counters: Counters,
}

/// End-to-end quality figures of one pass; `None` where the workload
/// does not produce the quantity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Operations answered in one pass (requests on `serve`).
    pub completed: u64,
    /// Mean MCKP saving of the pass's plans, percent.
    pub plan_saving_pct: Option<f64>,
    /// Mean held-out runtime-prediction error, percent.
    pub predict_error_pct: Option<f64>,
    /// Mean best-vs-default recipe score gain, percent.
    pub recipe_gain_pct: Option<f64>,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// The simulated results of one pass.
    type Value: std::fmt::Debug;

    /// Build the inputs for `seed` (tiny sizes for the self-test),
    /// recording `netlist.build` spans under `at`.
    fn setup(seed: u64, tiny: bool, tracer: &Tracer, at: Ctx) -> Self;

    /// Operations one pass attempts.
    fn ops(&self) -> u64;

    /// One pass through the program's entry points.
    ///
    /// # Errors
    ///
    /// The program's typed error, rendered.
    fn pass(&self, wf: &Workflow) -> Result<Output<Self::Value>, String>;

    /// The same pass composed from layer calls, each in a span.
    ///
    /// # Errors
    ///
    /// The program's typed error, rendered.
    fn traced_pass(
        &self,
        wf: &Workflow,
        tracer: &Tracer,
        at: Ctx,
    ) -> Result<Output<Self::Value>, String>;

    /// Check a pass's outputs and count its operations.
    fn check(&self, wf: &Workflow, value: &Self::Value) -> Verdict;

    /// End-to-end quality figures of a pass.
    fn quality(&self, wf: &Workflow, value: &Self::Value) -> Quality;
}

/// Run `f` over `items` on `workers` threads pulling from one shared
/// queue, results in item order — the shape of the program's sweep
/// pool.
pub fn pool<I: Sync, T: Send>(
    workers: usize,
    items: &[I],
    f: impl Fn(usize, &I) -> T + Sync,
) -> Vec<T> {
    let workers = workers.max(1).min(items.len().max(1));
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(i, item);
                slots.lock().expect("pool slots")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("pool slots")
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect()
}
