//! Output checks shared by the workloads: the brute-force MCKP oracle
//! and the per-pass verdict tally.

use eda_cloud_mckp::Problem;
use eda_cloud_serve::VCPUS;

/// Cheapest selection (one choice per stage) whose total runtime meets
/// `budget_secs`, found by enumerating every combination: `(cost,
/// runtime, picks)`, or `None` when no combination is feasible.
#[must_use]
pub fn brute_force_min(problem: &Problem, budget_secs: u64) -> Option<(f64, u64, Vec<usize>)> {
    let stages = problem.stages();
    let mut best: Option<(f64, u64, Vec<usize>)> = None;
    let mut picks = vec![0usize; stages.len()];
    loop {
        // Saturating: predicted runtimes can be near `u64::MAX`, and a
        // wrapped sum would pass for a short flow.
        let runtime = picks.iter().zip(stages).fold(0u64, |acc, (&j, s)| {
            acc.saturating_add(s.choices[j].runtime_secs)
        });
        if runtime <= budget_secs {
            let cost: f64 = picks
                .iter()
                .zip(stages)
                .map(|(&j, s)| s.choices[j].cost_usd)
                .sum();
            if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best = Some((cost, runtime, picks.clone()));
            }
        }
        // Odometer increment over the choice rows.
        let mut k = 0;
        loop {
            if k == stages.len() {
                return best;
            }
            picks[k] += 1;
            if picks[k] < stages[k].choices.len() {
                break;
            }
            picks[k] = 0;
            k += 1;
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Check a solver's answer against [`brute_force_min`]. `answer` is the
/// plan's per-stage vCPU picks with its claimed total cost and runtime,
/// or `None` when the solver called the budget infeasible.
///
/// # Errors
///
/// Describes the first disagreement.
pub fn check_plan(
    problem: &Problem,
    budget_secs: u64,
    answer: Option<(&[u32], f64, u64)>,
) -> Result<(), String> {
    let oracle = brute_force_min(problem, budget_secs);
    match (answer, oracle) {
        (None, None) => Ok(()),
        (None, Some((cost, _, _))) => Err(format!(
            "budget {budget_secs}s called infeasible, brute force finds ${cost:.6}"
        )),
        (Some(_), None) => Err(format!(
            "budget {budget_secs}s planned, brute force finds none"
        )),
        (Some((vcpus, cost, runtime)), Some((best, _, _))) => {
            if vcpus.len() != problem.stages().len() {
                return Err(format!(
                    "plan has {} stages, problem {}",
                    vcpus.len(),
                    problem.stages().len()
                ));
            }
            let mut sum_cost = 0.0;
            let mut sum_runtime = 0;
            for (stage, &v) in problem.stages().iter().zip(vcpus) {
                let j = VCPUS
                    .iter()
                    .position(|&x| x == v)
                    .filter(|&j| j < stage.choices.len())
                    .ok_or_else(|| format!("plan picks {v} vCPUs for {}", stage.name))?;
                sum_cost += stage.choices[j].cost_usd;
                sum_runtime = stage.choices[j].runtime_secs.saturating_add(sum_runtime);
            }
            if sum_runtime != runtime || runtime > budget_secs {
                return Err(format!(
                    "budget {budget_secs}s: plan claims {runtime}s, its picks take {sum_runtime}s"
                ));
            }
            if !close(sum_cost, cost) {
                return Err(format!(
                    "plan claims ${cost:.9}, its picks cost ${sum_cost:.9}"
                ));
            }
            if !close(cost, best) {
                return Err(format!(
                    "budget {budget_secs}s: plan costs ${cost:.9}, brute-force minimum ${best:.9}"
                ));
            }
            Ok(())
        }
    }
}

/// Tally of one pass's (or one run's) operations and check results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (typed error, shed request).
    pub failed: u64,
    /// Every check that did not hold, described.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Record a check; keeps at most a handful of messages.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problem(message());
        }
    }

    /// Record a failed check.
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 8 {
            self.problems.push(message);
        } else if self.problems.len() == 8 {
            self.problems
                .push("... further problems omitted".to_owned());
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            self.problem(p);
        }
    }

    /// Whether every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_mckp::{Choice, Stage};

    fn problem() -> Problem {
        let row = |rt: [u64; 4], cost: [f64; 4]| {
            Stage::new(
                "s",
                (0..4)
                    .map(|j| Choice::new(format!("c{j}"), rt[j], cost[j]))
                    .collect(),
            )
        };
        Problem::new(vec![
            row([100, 60, 40, 30], [1.0, 1.2, 1.6, 2.4]),
            row([50, 30, 20, 18], [0.5, 0.6, 0.8, 1.4]),
        ])
        .expect("valid")
    }

    #[test]
    fn brute_force_finds_the_cheapest_feasible_pair() {
        let p = problem();
        assert_eq!(brute_force_min(&p, 1_000).map(|b| b.2), Some(vec![0, 0]));
        // 90s: (60,30) = 1.8 beats (40,50) = 2.1 and (60,20) = 2.0.
        let (cost, runtime, picks) = brute_force_min(&p, 90).expect("feasible");
        assert_eq!((runtime, picks), (90, vec![1, 1]));
        assert!((cost - 1.8).abs() < 1e-12);
        assert!(brute_force_min(&p, 47).is_none());
    }

    #[test]
    fn huge_runtimes_do_not_wrap_into_feasibility() {
        let stage = |rt: u64| Stage::new("s", vec![Choice::new("c", rt, 1.0)]);
        let p = Problem::new(vec![stage(u64::MAX - 5), stage(10)]).expect("valid");
        assert!(brute_force_min(&p, 100).is_none());
        assert!(check_plan(&p, 100, None).is_ok());
    }

    #[test]
    fn check_plan_flags_a_dearer_answer() {
        let p = problem();
        assert!(check_plan(&p, 90, Some((&[2, 2], 1.8, 90))).is_ok());
        assert!(check_plan(&p, 90, Some((&[4, 4], 2.4, 60))).is_err());
        assert!(check_plan(&p, 47, None).is_ok());
        assert!(check_plan(&p, 90, None).is_err());
    }
}
