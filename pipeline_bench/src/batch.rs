//! The batch closed loop: one caller builds a method, pulls its budgeted
//! comparisons and passes each through the match function before asking
//! for more. The build is decomposed into the public calls
//! `build_method` makes, each wrapped in a `bench.<layer>.<call>` span.

use crate::stats::Digest;
use crate::trace::span;
use sper_blocking::{
    take_last_fanout_stats, BlockCollection, BlockFilter, BlockPurger, NeighborList, TokenBlocking,
};
use sper_core::gs_psn::GsPsn;
use sper_core::ls_psn::LsPsn;
use sper_core::pbs::Pbs;
use sper_core::pps::Pps;
use sper_core::{build_method, Comparison, MethodConfig, ProgressiveEr, ProgressiveMethod};
use sper_eval::{normalized_auc, RecallCurve};
use sper_model::{
    GroundTruth, JaccardMatcher, MatchFunction, Pair, ProfileCollection, ProfileText,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Jaccard threshold of the match function (the cheap one of §7.3).
pub const MATCH_THRESHOLD: f64 = 0.5;

/// Emission budget per true match (`ec*`), as in Fig. 13.
pub const EC_STAR: f64 = 10.0;

/// Comparisons the caller pulls before handing them to the matcher: the
/// granularity of the `bench.core.next` / `bench.model.match` spans.
const CHUNK: usize = 4096;

/// A generated twin ready for the batch loop.
pub struct BatchData<'a> {
    /// The profile collection.
    pub profiles: &'a ProfileCollection,
    /// Its ground truth.
    pub truth: &'a GroundTruth,
    /// Pre-extracted matcher texts.
    pub text: &'a ProfileText,
}

impl BatchData<'_> {
    /// Emissions per method: `ec* · |DP|`.
    pub fn budget(&self) -> usize {
        (EC_STAR * self.truth.num_matches() as f64).round() as usize
    }
}

/// One closed-loop run of one method.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Seconds from the start of the build to the first comparison.
    pub first_emission_s: f64,
    /// Seconds for build + budgeted emission + matching.
    pub total_s: f64,
    /// Digest of the emitted `(pair, weight-bits)` sequence.
    pub digest: u64,
    /// Comparisons emitted.
    pub emissions: u64,
    /// Distinct pairs among them.
    pub distinct: u64,
    /// Distinct true matches among them.
    pub true_matches: u64,
    /// Recall at the budget.
    pub recall: f64,
    /// `AUC*@10` of the recall curve.
    pub auc10: f64,
    /// Pairs the match function accepted.
    pub positives: u64,
    /// Every emitted pair is a valid comparison of the collection.
    pub valid: bool,
}

/// Largest heap high-water mark seen across per-call peak measurements
/// (each of which rebases the allocator's peak).
static RUN_PEAK: AtomicUsize = AtomicUsize::new(0);

/// Runs `f`, returning its result and the heap it needed above the bytes
/// live at entry, while keeping the run-wide high-water mark intact.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let alloc = &sper_bench::ALLOC;
    RUN_PEAK.fetch_max(alloc.peak_bytes(), Ordering::Relaxed);
    let before = alloc.live_bytes();
    alloc.reset_peak();
    let out = f();
    let peak = alloc.peak_bytes();
    RUN_PEAK.fetch_max(peak, Ordering::Relaxed);
    (out, peak.saturating_sub(before))
}

/// The heap high-water mark of the whole process so far, in bytes.
pub fn run_peak_bytes() -> usize {
    RUN_PEAK
        .load(Ordering::Relaxed)
        .max(sper_bench::ALLOC.peak_bytes())
}

/// Runs one method through the closed loop.
pub fn run_method(
    method: ProgressiveMethod,
    data: &BatchData<'_>,
    config: &MethodConfig,
) -> MethodRun {
    let budget = data.budget();
    let matcher = JaccardMatcher::new(data.text, MATCH_THRESHOLD);
    let mut emitted: Vec<Comparison> = Vec::with_capacity(budget);
    let mut positives = 0u64;
    let mut first_emission_s = f64::NAN;

    let start = Instant::now();
    let root = span("bench.method");
    let mut m = build(method, data.profiles, config);
    while emitted.len() < budget {
        let from = emitted.len();
        let want = CHUNK.min(budget - from);
        {
            let _next = span("bench.core.next");
            for _ in 0..want {
                let Some(c) = m.next() else { break };
                if from == 0 && emitted.is_empty() {
                    first_emission_s = start.elapsed().as_secs_f64();
                }
                emitted.push(c);
            }
        }
        {
            let _match = span("bench.model.match");
            positives += emitted[from..]
                .iter()
                .filter(|c| matcher.matches(c.pair.first, c.pair.second))
                .count() as u64;
        }
        if emitted.len() - from < want {
            break; // the method ran dry before the budget
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    drop(root);
    drop(m);
    summarize(&emitted, data, first_emission_s, total_s, positives)
}

/// Digest and quality of an emitted sequence (computed after the clock
/// stops).
fn summarize(
    emitted: &[Comparison],
    data: &BatchData<'_>,
    first_emission_s: f64,
    total_s: f64,
    positives: u64,
) -> MethodRun {
    let mut seen: HashSet<Pair> = HashSet::with_capacity(emitted.len());
    let mut found: HashSet<Pair> = HashSet::new();
    let mut match_indices = Vec::new();
    let mut valid = true;
    for (i, c) in emitted.iter().enumerate() {
        valid &= data
            .profiles
            .is_valid_comparison(c.pair.first, c.pair.second);
        if seen.insert(c.pair) && data.truth.is_match_pair(c.pair) && found.insert(c.pair) {
            match_indices.push(i as u64 + 1);
        }
    }
    let curve = RecallCurve::new(
        data.truth.num_matches(),
        emitted.len() as u64,
        match_indices,
    );
    MethodRun {
        first_emission_s,
        total_s,
        digest: digest(emitted),
        emissions: emitted.len() as u64,
        distinct: seen.len() as u64,
        true_matches: found.len() as u64,
        recall: curve.final_recall(),
        auc10: normalized_auc(&curve, EC_STAR),
        positives,
        valid,
    }
}

/// Digest of a comparison sequence.
pub fn digest(comparisons: &[Comparison]) -> u64 {
    let mut d = Digest::default();
    for c in comparisons {
        d.push(c.pair.first.0, c.pair.second.0, c.weight);
    }
    d.value()
}

/// Digest of the budgeted emissions of the engine's own factory
/// (`build_method`) — the reference the decomposed build must match.
pub fn reference_digest(
    method: ProgressiveMethod,
    data: &BatchData<'_>,
    config: &MethodConfig,
) -> u64 {
    let emitted: Vec<Comparison> = build_method(method, data.profiles, config, None)
        .take(data.budget())
        .collect();
    digest(&emitted)
}

/// `build_method`, one public call per span.
fn build<'a>(
    method: ProgressiveMethod,
    profiles: &'a ProfileCollection,
    config: &MethodConfig,
) -> Box<dyn ProgressiveEr + 'a> {
    let par = config.threads;
    match method {
        ProgressiveMethod::LsPsn | ProgressiveMethod::GsPsn => {
            let nl = {
                let mut s = span("bench.blocking.neighbor_list");
                let (nl, peak) = peak_during(|| {
                    NeighborList::par_build(profiles, config.seed, par.get())
                        .expect("thread count is non-zero")
                });
                s.record("peak_bytes", peak);
                nl
            };
            init(|| -> Box<dyn ProgressiveEr + 'a> {
                if method == ProgressiveMethod::LsPsn {
                    Box::new(LsPsn::from_neighbor_list_par(
                        profiles,
                        nl,
                        config.neighbor_weighting,
                        par,
                    ))
                } else {
                    Box::new(GsPsn::from_neighbor_list_par(
                        profiles,
                        nl,
                        config.wmax,
                        config.neighbor_weighting,
                        par,
                    ))
                }
            })
        }
        ProgressiveMethod::Pbs | ProgressiveMethod::Pps => {
            let blocks = workflow(profiles, config);
            init(|| -> Box<dyn ProgressiveEr + 'a> {
                if method == ProgressiveMethod::Pbs {
                    Box::new(Pbs::from_blocks_par(blocks, config.scheme, par))
                } else {
                    Box::new(Pps::from_blocks_par(
                        blocks,
                        config.scheme,
                        config.kmax,
                        par,
                    ))
                }
            })
        }
        other => unreachable!("{other} is not one of the benchmarked methods"),
    }
}

/// The method constructor, under `bench.core.init` with its heap peak and
/// the worker utilization of its work-stealing fan-out.
fn init<'a>(f: impl FnOnce() -> Box<dyn ProgressiveEr + 'a>) -> Box<dyn ProgressiveEr + 'a> {
    let mut s = span("bench.core.init");
    let _ = take_last_fanout_stats();
    let (m, peak) = peak_during(f);
    s.record("peak_bytes", peak);
    if let Some(stats) = take_last_fanout_stats() {
        let u = stats.utilization();
        if !u.is_empty() {
            s.record("utilization", u.iter().sum::<f64>() / u.len() as f64);
        }
    }
    m
}

/// The Token Blocking Workflow (`TokenBlockingWorkflow::run`), one span
/// per step.
pub fn workflow(profiles: &ProfileCollection, config: &MethodConfig) -> BlockCollection {
    let blocks = {
        let mut s = span("bench.blocking.token_blocking");
        let (b, peak) = peak_during(|| TokenBlocking::default().build(profiles));
        s.record("peak_bytes", peak);
        b
    };
    let blocks = {
        let _s = span("bench.blocking.purge");
        BlockPurger::new(config.workflow.purge_ratio).purge(blocks)
    };
    let _s = span("bench.blocking.filter");
    BlockFilter::new(config.workflow.filter_ratio).filter(blocks)
}
