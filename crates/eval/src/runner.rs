//! Drives a progressive method against a ground truth, producing a
//! [`RecallCurve`] plus initialization/emission statistics.

use crate::curve::RecallCurve;
use sper_core::ProgressiveEr;
use sper_model::{GroundTruth, Pair};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Options for a progressive run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Stop after `max_ec_star · |DP|` emissions (the paper plots up to
    /// `ec* = 30`).
    pub max_ec_star: f64,
    /// Also stop once every match has been found (the tail adds nothing to
    /// the curve but costs time). Defaults to true.
    pub stop_at_full_recall: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            max_ec_star: 30.0,
            stop_at_full_recall: true,
        }
    }
}

impl RunOptions {
    /// Budget in emissions for a task with `num_matches` true matches.
    pub fn max_emissions(&self, num_matches: usize) -> u64 {
        ((self.max_ec_star * num_matches as f64).ceil() as u64).max(1)
    }
}

/// The outcome of one progressive run.
///
/// Round-trips through JSON (`Serialize` + `Deserialize`), so resumed
/// sessions and trajectory tooling can merge previously exported results
/// with fresh ones.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunResult {
    /// Method acronym.
    pub method: String,
    /// The recall curve.
    pub curve: RecallCurve,
    /// Time spent constructing the method (the initialization phase).
    pub init_time: Duration,
    /// Time spent emitting (excludes match-function cost; the oracle is
    /// O(1)).
    pub emission_time: Duration,
    /// Emitted comparisons that were repeats of earlier emissions.
    pub repeated_emissions: u64,
}

impl RunResult {
    /// `AUC*@ec*` of this run.
    pub fn auc(&self, ec_star: f64) -> f64 {
        crate::auc::normalized_auc(&self.curve, ec_star)
    }
}

/// Runs an already-initialized method (init time supplied by the caller;
/// see [`run_progressive`] for the one-call variant).
pub fn run_prepared(
    mut method: Box<dyn ProgressiveEr + '_>,
    truth: &GroundTruth,
    options: RunOptions,
    init_time: Duration,
) -> RunResult {
    let name = method.method_name();
    let budget = options.max_emissions(truth.num_matches());
    let mut emitted: u64 = 0;
    let mut repeated: u64 = 0;
    let mut seen: HashSet<Pair> = HashSet::new();
    let mut found: HashSet<Pair> = HashSet::with_capacity(truth.num_matches());
    let mut match_indices: Vec<u64> = Vec::new();

    let start = Instant::now();
    while emitted < budget {
        let Some(c) = method.next() else { break };
        emitted += 1;
        if !seen.insert(c.pair) {
            repeated += 1;
            continue;
        }
        if truth.is_match_pair(c.pair) && found.insert(c.pair) {
            match_indices.push(emitted);
            if options.stop_at_full_recall && found.len() == truth.num_matches() {
                break;
            }
        }
    }
    let emission_time = start.elapsed();

    RunResult {
        method: name.to_string(),
        curve: RecallCurve::new(truth.num_matches(), emitted, match_indices),
        init_time,
        emission_time,
        repeated_emissions: repeated,
    }
}

/// Builds the method via `build` (timing the initialization phase) and runs
/// it to the emission budget.
pub fn run_progressive<'a, F>(build: F, truth: &GroundTruth, options: RunOptions) -> RunResult
where
    F: FnOnce() -> Box<dyn ProgressiveEr + 'a>,
{
    let t0 = Instant::now();
    let method = build();
    let init_time = t0.elapsed();
    run_prepared(method, truth, options, init_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};
    use sper_blocking::{TokenBlocking, WeightingScheme};
    use sper_core::{pbs::Pbs, sa_psn::SaPsn};

    #[test]
    fn pbs_run_reaches_full_recall_quickly() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        // Raw token blocks: the 10 % purging rule is meaningless on a
        // six-profile toy example.
        let result = run_progressive(
            || {
                let blocks = TokenBlocking.build(&profiles);
                Box::new(Pbs::from_blocks(blocks, WeightingScheme::Arcs))
            },
            &truth,
            RunOptions::default(),
        );
        assert_eq!(result.method, "PBS");
        assert_eq!(result.curve.final_recall(), 1.0);
        assert!(result.curve.emissions() <= 15);
        assert_eq!(result.repeated_emissions, 0, "LeCoBI dedups");
        assert!(result.auc(5.0) > 0.3);
    }

    #[test]
    fn sa_psn_run_counts_repeats() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let result = run_progressive(
            || Box::new(SaPsn::new(&profiles, 7)),
            &truth,
            RunOptions {
                max_ec_star: 30.0,
                stop_at_full_recall: false,
            },
        );
        assert!(result.repeated_emissions > 0, "SA-PSN repeats comparisons");
    }

    #[test]
    fn budget_is_respected() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let result = run_progressive(
            || Box::new(SaPsn::new(&profiles, 7)),
            &truth,
            RunOptions {
                max_ec_star: 1.0,
                stop_at_full_recall: false,
            },
        );
        assert!(
            result.curve.emissions() <= 4,
            "|DP| = 4 → at most 4 emissions"
        );
    }

    #[test]
    fn run_result_json_round_trips() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let result = run_progressive(
            || {
                let blocks = TokenBlocking.build(&profiles);
                Box::new(Pbs::from_blocks(blocks, WeightingScheme::Arcs))
            },
            &truth,
            RunOptions::default(),
        );
        let text = serde::json::to_string(&result);
        let back: RunResult = serde::json::from_str(&text).expect("round-trip parses");
        assert_eq!(back.method, result.method);
        assert_eq!(back.curve.emissions(), result.curve.emissions());
        assert_eq!(back.curve.match_indices(), result.curve.match_indices());
        assert_eq!(back.repeated_emissions, result.repeated_emissions);
        assert!((back.auc(5.0) - result.auc(5.0)).abs() < 1e-12);
    }

    #[test]
    fn repeats_do_not_advance_recall() {
        // A curve's found matches are distinct pairs only.
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let result = run_progressive(
            || Box::new(SaPsn::new(&profiles, 7)),
            &truth,
            RunOptions::default(),
        );
        assert!(result.curve.matches_found() <= truth.num_matches());
    }
}
