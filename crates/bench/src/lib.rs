//! # sper-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation (see `DESIGN.md` §4 for the index) plus criterion
//! micro-benchmarks (`benches/benches.rs`).
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run -p sper-bench --release --bin fig09_structured_recall
//! SPER_SCALE=1.0 cargo run -p sper-bench --release --bin fig11_heterogeneous_recall
//! ```
//!
//! `SPER_SCALE` multiplies the per-dataset default scale (the heterogeneous
//! twins default to a fraction of their laptop-scale-1.0 size so every
//! binary finishes in minutes).

use sper_core::{build_method, MethodConfig, ProgressiveMethod};
use sper_datagen::{DatasetKind, DatasetSpec, GeneratedDataset};
use sper_eval::runner::{run_progressive, RunOptions, RunResult};

/// The counting allocator of every binary linking this crate: two relaxed
/// atomic ops per allocation, so the end-to-end benchmark
/// (`pipeline_bench/`) reads its run and per-layer heap peaks from one
/// place.
#[global_allocator]
pub static ALLOC: sper_obs::PeakAllocTracker = sper_obs::PeakAllocTracker::new();

/// Probes the measuring machine for the `host` section of a benchmark
/// report, so every result line says what hardware produced it.
pub fn host_info() -> sper_obs::HostInfo {
    sper_obs::HostInfo::probe()
}

/// Captures the timestamp + git revision stamped into every benchmark
/// report, so a result can be matched to the commit that produced it.
pub fn run_stamp() -> sper_obs::RunStamp {
    sper_obs::RunStamp::capture()
}

/// The `ec*` sampling grid used by the recall-progressiveness figures.
pub const EC_GRID: [f64; 9] = [1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0];

/// Default generation scale per dataset: Table 2 scale for the structured
/// twins, a fraction of laptop-scale-1.0 for the heterogeneous ones.
pub fn default_scale(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Census | DatasetKind::Restaurant | DatasetKind::Cora => 1.0,
        DatasetKind::Cddb => 1.0,
        DatasetKind::Movies => 0.2,
        DatasetKind::Dbpedia => 0.3,
        DatasetKind::Freebase => 0.3,
    }
}

/// Scale multiplier from the `SPER_SCALE` environment variable (default 1).
pub fn env_scale() -> f64 {
    std::env::var("SPER_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// Generates a twin at its default (env-scaled) size.
pub fn dataset(kind: DatasetKind) -> GeneratedDataset {
    let scale = default_scale(kind) * env_scale();
    DatasetSpec::paper(kind).with_scale(scale).generate()
}

/// The method configuration the paper uses for a dataset family (§7):
/// `wmax = 20` for structured, `wmax = 200` for heterogeneous datasets.
pub fn paper_config(kind: DatasetKind) -> MethodConfig {
    if DatasetKind::STRUCTURED.contains(&kind) {
        MethodConfig::default()
    } else {
        MethodConfig::heterogeneous()
    }
}

/// Runs one method on a generated dataset up to `max_ec_star`.
pub fn run_on(
    method: ProgressiveMethod,
    data: &GeneratedDataset,
    config: &MethodConfig,
    max_ec_star: f64,
) -> RunResult {
    let options = RunOptions {
        max_ec_star,
        stop_at_full_recall: true,
    };
    run_progressive(
        || build_method(method, &data.profiles, config, data.schema_keys.as_deref()),
        &data.truth,
        options,
    )
}

/// The methods plotted for a dataset in Figs. 9/11: PSN only where schema
/// keys exist; SA-PSAB is skipped on the two largest RDF twins, where its
/// suffix forest does not scale (exactly as in Fig. 11b–c).
pub fn methods_for(kind: DatasetKind) -> Vec<ProgressiveMethod> {
    let mut methods = Vec::new();
    if kind.has_schema_keys() {
        methods.push(ProgressiveMethod::Psn);
    }
    methods.push(ProgressiveMethod::SaPsn);
    if !matches!(kind, DatasetKind::Dbpedia | DatasetKind::Freebase) {
        methods.push(ProgressiveMethod::SaPsab);
    }
    methods.extend(ProgressiveMethod::ADVANCED);
    methods
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_positive() {
        for kind in DatasetKind::ALL {
            assert!(default_scale(kind) > 0.0);
        }
    }

    #[test]
    fn method_lists_follow_the_paper() {
        let census = methods_for(DatasetKind::Census);
        assert!(census.contains(&ProgressiveMethod::Psn));
        assert!(census.contains(&ProgressiveMethod::SaPsab));
        let freebase = methods_for(DatasetKind::Freebase);
        assert!(!freebase.contains(&ProgressiveMethod::Psn));
        assert!(!freebase.contains(&ProgressiveMethod::SaPsab));
        assert!(freebase.contains(&ProgressiveMethod::Pps));
    }

    #[test]
    fn quick_run_smoke() {
        let data = DatasetSpec::paper(DatasetKind::Census)
            .with_scale(0.1)
            .generate();
        let result = run_on(
            ProgressiveMethod::LsPsn,
            &data,
            &paper_config(DatasetKind::Census),
            5.0,
        );
        assert!(result.curve.matches_found() > 0);
    }
}
