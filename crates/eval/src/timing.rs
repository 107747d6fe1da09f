//! Wall-clock experiments (Fig. 13): run a progressive method paired with a
//! *real* match function (edit distance = expensive, Jaccard = cheap) and
//! record recall as a function of elapsed time, including the
//! initialization time.

use sper_core::ProgressiveEr;
use sper_model::{GroundTruth, MatchFunction, Pair};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Options for a timed run.
#[derive(Debug, Clone, Copy)]
pub struct TimingOptions {
    /// Emission budget as a multiple of `|DP|`.
    pub max_ec_star: f64,
    /// Number of evenly spaced (in emissions) checkpoints to record.
    pub checkpoints: usize,
}

impl Default for TimingOptions {
    fn default() -> Self {
        Self {
            max_ec_star: 10.0,
            checkpoints: 20,
        }
    }
}

/// Result of a timed run: the recall trajectory over wall-clock time.
///
/// Round-trips through JSON (`Serialize` + `Deserialize`) for trajectory
/// merging across runs.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TimedResult {
    /// Method acronym.
    pub method: String,
    /// Match function name.
    pub match_function: String,
    /// Initialization time (constructing the method).
    pub init_time: Duration,
    /// `(elapsed since start incl. init, recall)` checkpoints.
    pub trajectory: Vec<(Duration, f64)>,
    /// Total comparisons emitted.
    pub emissions: u64,
    /// Comparisons the match function labelled positive (distinct pairs).
    pub declared_matches: u64,
}

impl TimedResult {
    /// Recall at the end of the run.
    pub fn final_recall(&self) -> f64 {
        self.trajectory.last().map_or(0.0, |&(_, r)| r)
    }

    /// Time at which recall first reached `target` (None if never).
    pub fn time_to_recall(&self, target: f64) -> Option<Duration> {
        self.trajectory
            .iter()
            .find(|&&(_, r)| r >= target)
            .map(|&(t, _)| t)
    }
}

/// Builds the method (timed), then emits comparisons, applying `matcher` to
/// each one — so elapsed time includes both emission and match-function
/// cost, as in §7.3. Recall is measured against the ground truth (the match
/// function's own verdict is recorded but does not gate recall, matching
/// the paper's footnote 10: "the outcome of the match function is assumed
/// to be identical to the known ground truth").
pub fn run_timed<'a, F, M>(
    build: F,
    matcher: &M,
    truth: &GroundTruth,
    options: TimingOptions,
) -> TimedResult
where
    F: FnOnce() -> Box<dyn ProgressiveEr + 'a>,
    M: MatchFunction + ?Sized,
{
    let start = Instant::now();
    let mut method = build();
    let init_time = start.elapsed();

    let budget = ((options.max_ec_star * truth.num_matches() as f64).ceil() as u64).max(1);
    let step = (budget / options.checkpoints.max(1) as u64).max(1);

    let mut found: HashSet<Pair> = HashSet::new();
    let mut declared: HashSet<Pair> = HashSet::new();
    let mut trajectory: Vec<(Duration, f64)> = vec![(init_time, 0.0)];
    let mut emitted = 0u64;

    while emitted < budget {
        let Some(c) = method.next() else { break };
        emitted += 1;
        // Apply the (possibly expensive) match function — this is the cost
        // being measured.
        if matcher.matches(c.pair.first, c.pair.second) {
            declared.insert(c.pair);
        }
        if truth.is_match_pair(c.pair) {
            found.insert(c.pair);
        }
        if emitted.is_multiple_of(step) || emitted == budget {
            let recall = if truth.num_matches() == 0 {
                1.0
            } else {
                found.len() as f64 / truth.num_matches() as f64
            };
            trajectory.push((start.elapsed(), recall));
            if recall >= 1.0 {
                break;
            }
        }
    }
    // Final checkpoint when the loop ended between steps.
    let final_recall = if truth.num_matches() == 0 {
        1.0
    } else {
        found.len() as f64 / truth.num_matches() as f64
    };
    if trajectory.last().map(|&(_, r)| r) != Some(final_recall) {
        trajectory.push((start.elapsed(), final_recall));
    }

    TimedResult {
        method: method.method_name().to_string(),
        match_function: matcher.name().to_string(),
        init_time,
        trajectory,
        emissions: emitted,
        declared_matches: declared.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};
    use sper_blocking::{TokenBlocking, WeightingScheme};
    use sper_core::pbs::Pbs;
    use sper_model::{JaccardMatcher, ProfileText};

    #[test]
    fn timed_run_records_trajectory() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let text = ProfileText::extract(&profiles);
        let matcher = JaccardMatcher::new(&text, 0.2);
        let result = run_timed(
            || {
                let blocks = TokenBlocking.build(&profiles);
                Box::new(Pbs::from_blocks(blocks, WeightingScheme::Arcs))
            },
            &matcher,
            &truth,
            TimingOptions::default(),
        );
        assert_eq!(result.method, "PBS");
        assert_eq!(result.match_function, "jaccard");
        assert!(result.final_recall() > 0.9);
        assert!(result.emissions > 0);
        // Trajectory is time-monotone and recall-monotone.
        for w in result.trajectory.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!(result.time_to_recall(0.5).is_some());
        assert!(result.time_to_recall(2.0).is_none());
    }

    #[test]
    fn timed_result_json_round_trips() {
        let result = TimedResult {
            method: "PBS".into(),
            match_function: "jaccard".into(),
            init_time: Duration::from_micros(1500),
            trajectory: vec![
                (Duration::from_micros(1500), 0.0),
                (Duration::from_millis(2), 0.75),
            ],
            emissions: 42,
            declared_matches: 3,
        };
        let text = serde::json::to_string(&result);
        let back: TimedResult = serde::json::from_str(&text).expect("round-trip parses");
        assert_eq!(back.method, result.method);
        assert_eq!(back.match_function, result.match_function);
        assert_eq!(back.emissions, result.emissions);
        assert_eq!(back.declared_matches, result.declared_matches);
        assert_eq!(back.trajectory.len(), result.trajectory.len());
        assert!((back.final_recall() - result.final_recall()).abs() < 1e-12);
        assert!(
            (back.init_time.as_secs_f64() - result.init_time.as_secs_f64()).abs() < 1e-9,
            "durations survive the fractional-second encoding"
        );
    }
}
