//! Method registry and factory: build any progressive method from a shared
//! configuration — the entry point used by the evaluation harness.

use crate::gs_psn::GsPsn;
use crate::ls_psn::LsPsn;
use crate::pbs::Pbs;
use crate::pps::Pps;
use crate::psn::Psn;
use crate::rcf::NeighborWeighting;
use crate::sa_psab::SaPsab;
use crate::sa_psn::SaPsn;
use crate::ProgressiveEr;
use sper_blocking::{NeighborList, Parallelism, TokenBlockingWorkflow, WeightingScheme};
use sper_model::ProfileCollection;

/// The progressive methods of the paper (Fig. 2 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgressiveMethod {
    /// Schema-based baseline (requires per-profile blocking keys).
    Psn,
    /// Naïve schema-agnostic sorted neighborhood (§4.1).
    SaPsn,
    /// Naïve progressive suffix-arrays blocking (§4.2).
    SaPsab,
    /// Local weighted sorted neighborhood (§5.1.1).
    LsPsn,
    /// Global weighted sorted neighborhood (§5.1.2).
    GsPsn,
    /// Progressive block scheduling (§5.2.1).
    Pbs,
    /// Progressive profile scheduling (§5.2.2).
    Pps,
}

impl ProgressiveMethod {
    /// The six schema-agnostic methods (everything but PSN).
    pub const SCHEMA_AGNOSTIC: [ProgressiveMethod; 6] = [
        ProgressiveMethod::SaPsn,
        ProgressiveMethod::SaPsab,
        ProgressiveMethod::LsPsn,
        ProgressiveMethod::GsPsn,
        ProgressiveMethod::Pbs,
        ProgressiveMethod::Pps,
    ];

    /// The four advanced methods of §5.
    pub const ADVANCED: [ProgressiveMethod; 4] = [
        ProgressiveMethod::LsPsn,
        ProgressiveMethod::GsPsn,
        ProgressiveMethod::Pbs,
        ProgressiveMethod::Pps,
    ];

    /// Canonical acronym.
    pub fn name(self) -> &'static str {
        match self {
            ProgressiveMethod::Psn => "PSN",
            ProgressiveMethod::SaPsn => "SA-PSN",
            ProgressiveMethod::SaPsab => "SA-PSAB",
            ProgressiveMethod::LsPsn => "LS-PSN",
            ProgressiveMethod::GsPsn => "GS-PSN",
            ProgressiveMethod::Pbs => "PBS",
            ProgressiveMethod::Pps => "PPS",
        }
    }

    /// Whether the method needs schema-based blocking keys.
    pub fn is_schema_based(self) -> bool {
        self == ProgressiveMethod::Psn
    }

    /// Stable wire code of the method — the persistence format
    /// (`sper-store`) stores this byte; codes are append-only and never
    /// reassigned.
    pub fn code(self) -> u8 {
        match self {
            ProgressiveMethod::Psn => 0,
            ProgressiveMethod::SaPsn => 1,
            ProgressiveMethod::SaPsab => 2,
            ProgressiveMethod::LsPsn => 3,
            ProgressiveMethod::GsPsn => 4,
            ProgressiveMethod::Pbs => 5,
            ProgressiveMethod::Pps => 6,
        }
    }

    /// The method with the given wire code, if any.
    pub fn from_code(code: u8) -> Option<Self> {
        [ProgressiveMethod::Psn]
            .into_iter()
            .chain(Self::SCHEMA_AGNOSTIC)
            .find(|m| m.code() == code)
    }
}

impl std::fmt::Display for ProgressiveMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared configuration for the factory, defaulting to the paper's §7
/// parameter configuration.
#[derive(Debug, Clone)]
pub struct MethodConfig {
    /// Seed for all tie-shuffling (coincidental proximity).
    pub seed: u64,
    /// GS-PSN window bound (`wmax`): 20 for structured datasets, 200 for
    /// large heterogeneous ones in the paper.
    pub wmax: usize,
    /// SA-PSAB minimum suffix length.
    pub lmin: usize,
    /// PPS per-profile emission cap.
    pub kmax: usize,
    /// Meta-blocking weighting scheme (ARCS in the paper).
    pub scheme: WeightingScheme,
    /// Sliding-window weighting (RCF in the paper).
    pub neighbor_weighting: NeighborWeighting,
    /// Blocking workflow for the equality-based methods.
    pub workflow: TokenBlockingWorkflow,
    /// Optional bound on SA-PSN's maximum window (None = exhaustive).
    pub max_window: Option<usize>,
    /// Worker threads of the parallel engine (1 = sequential). All methods
    /// emit the exact same comparison sequence at any thread count; threads
    /// only change initialization/refill wall-clock time.
    pub threads: Parallelism,
}

impl Default for MethodConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            wmax: GsPsn::WMAX_STRUCTURED,
            lmin: SaPsab::DEFAULT_LMIN,
            kmax: Pps::DEFAULT_KMAX,
            scheme: WeightingScheme::Arcs,
            neighbor_weighting: NeighborWeighting::Rcf,
            workflow: TokenBlockingWorkflow::default(),
            max_window: None,
            threads: Parallelism::SEQUENTIAL,
        }
    }
}

impl MethodConfig {
    /// The paper's configuration for large, heterogeneous datasets
    /// (`wmax = 200`).
    pub fn heterogeneous() -> Self {
        Self {
            wmax: GsPsn::WMAX_HETEROGENEOUS,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count of the parallel engine.
    pub fn with_threads(mut self, threads: Parallelism) -> Self {
        self.threads = threads;
        self
    }
}

/// Builds a boxed progressive method over `profiles`.
///
/// `schema_keys` is required for [`ProgressiveMethod::Psn`] (one key per
/// profile) and ignored otherwise.
///
/// # Panics
///
/// Panics when `method` is PSN and `schema_keys` is `None`.
pub fn build_method<'a>(
    method: ProgressiveMethod,
    profiles: &'a ProfileCollection,
    config: &MethodConfig,
    schema_keys: Option<&[String]>,
) -> Box<dyn ProgressiveEr + 'a> {
    let _span = sper_obs::span!(
        "core.build_method",
        method = method.name(),
        profiles = profiles.len(),
        threads = config.threads.get(),
    );
    let par = config.threads;
    // Every substrate build takes the configured worker count: the
    // similarity methods share the Neighbor List build, the equality
    // methods the Token Blocking Workflow.
    let par_nl = |seed: u64| {
        NeighborList::par_build(profiles, seed, par.get()).expect("Parallelism is validated")
    };
    match method {
        ProgressiveMethod::Psn => {
            let keys =
                schema_keys.expect("PSN is schema-based: provide one blocking key per profile");
            Box::new(Psn::new(profiles, keys, config.seed))
        }
        ProgressiveMethod::SaPsn => {
            let mut m = SaPsn::from_neighbor_list(profiles, par_nl(config.seed));
            if let Some(mw) = config.max_window {
                m = m.with_max_window(mw);
            }
            Box::new(m)
        }
        ProgressiveMethod::SaPsab => Box::new(SaPsab::new(profiles, config.lmin)),
        ProgressiveMethod::LsPsn => Box::new(LsPsn::from_neighbor_list_par(
            profiles,
            par_nl(config.seed),
            config.neighbor_weighting,
            par,
        )),
        ProgressiveMethod::GsPsn => Box::new(GsPsn::from_neighbor_list_par(
            profiles,
            par_nl(config.seed),
            config.wmax,
            config.neighbor_weighting,
            par,
        )),
        ProgressiveMethod::Pbs => Box::new(Pbs::from_blocks_par(
            config.workflow.par_run(profiles, par),
            config.scheme,
            par,
        )),
        ProgressiveMethod::Pps => Box::new(Pps::from_blocks_par(
            config.workflow.par_run(profiles, par),
            config.scheme,
            config.kmax,
            par,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};

    #[test]
    fn factory_builds_every_schema_agnostic_method() {
        let profiles = fig3_profiles();
        let config = MethodConfig::default();
        for method in ProgressiveMethod::SCHEMA_AGNOSTIC {
            let mut m = build_method(method, &profiles, &config, None);
            assert_eq!(m.method_name(), method.name());
            assert!(m.next().is_some(), "{method} should emit something");
        }
    }

    #[test]
    fn factory_builds_psn_with_keys() {
        let profiles = fig3_profiles();
        let keys: Vec<String> = profiles
            .iter()
            .map(|p| p.concat_values().to_lowercase())
            .collect();
        let mut m = build_method(
            ProgressiveMethod::Psn,
            &profiles,
            &MethodConfig::default(),
            Some(&keys),
        );
        assert_eq!(m.method_name(), "PSN");
        assert!(m.next().is_some());
    }

    #[test]
    #[should_panic(expected = "schema-based")]
    fn psn_without_keys_panics() {
        let profiles = fig3_profiles();
        let _ = build_method(
            ProgressiveMethod::Psn,
            &profiles,
            &MethodConfig::default(),
            None,
        );
    }

    #[test]
    fn advanced_methods_front_load_matches() {
        // Shared sanity check across the whole family: within the first
        // |DP| + 2 emissions, every advanced method finds at least half the
        // matches of the Fig. 3 example.
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        // wmax = 20 on a 24-position Neighbor List would count co-occurrence
        // at nearly every distance, washing out the signal; keep the window
        // range proportionate to this toy example.
        let config = MethodConfig {
            wmax: 3,
            ..MethodConfig::default()
        };
        for method in ProgressiveMethod::ADVANCED {
            let m = build_method(method, &profiles, &config, None);
            let budget = truth.num_matches() + 2;
            let hits = m
                .take(budget)
                .filter(|c| truth.is_match_pair(c.pair))
                .map(|c| c.pair)
                .collect::<std::collections::HashSet<_>>()
                .len();
            assert!(
                hits * 2 >= truth.num_matches(),
                "{method}: only {hits}/{} matches in first {budget} emissions",
                truth.num_matches()
            );
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let c = MethodConfig::default();
        assert_eq!(c.wmax, 20);
        assert_eq!(c.scheme, WeightingScheme::Arcs);
        assert_eq!(MethodConfig::heterogeneous().wmax, 200);
    }

    #[test]
    fn display_names() {
        assert_eq!(ProgressiveMethod::LsPsn.to_string(), "LS-PSN");
        assert!(ProgressiveMethod::Psn.is_schema_based());
        assert!(!ProgressiveMethod::Pps.is_schema_based());
    }
}
