//! # sper-datagen
//!
//! Synthetic **twins** of the seven benchmark datasets of the paper's
//! evaluation (§7, Table 2). The real datasets (census, restaurant, cora,
//! cddb, movies, dbpedia, freebase) cannot be redistributed; these
//! generators reproduce their *statistical shape* — ER type, profile
//! counts, attribute counts, duplicate density and cluster-size
//! distribution, average name–value pairs — and, crucially, their *noise
//! regime*:
//!
//! * structured twins inject **character-level** noise (typos), the regime
//!   where alphabetical proximity of tokens is informative (similarity
//!   principle, §5.1);
//! * RDF twins inject **token-level** noise and URI-valued attributes whose
//!   alphabetical order is dominated by meaningless prefixes and opaque
//!   machine ids — the regime where only the equality principle survives
//!   (§7.2, freebase discussion).
//!
//! All generation is deterministic given the seed in [`DatasetSpec`].

#![forbid(unsafe_code)]

pub mod build;
pub mod cddb;
pub mod census;
pub mod cora;
pub mod movies;
pub mod noise;
pub mod plan;
pub mod rdf;
pub mod restaurant;
pub mod vocab;

use sper_model::{GroundTruth, ProfileCollection};

/// The seven benchmark datasets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// US Census sample: Dirty ER, 841 profiles, 5 attributes, 344 matches.
    Census,
    /// Fodor's/Zagat restaurants: Dirty ER, 864 profiles, 112 matches.
    Restaurant,
    /// Cora citations: Dirty ER, 1.3 k profiles, 12 attributes, 17 k matches
    /// (large equivalence clusters).
    Cora,
    /// CDDB discs: Dirty ER, 9.8 k profiles, 106 attributes, 300 matches.
    Cddb,
    /// IMDB–DBpedia movies: Clean-clean ER, 28 k — 23 k profiles, 23 k
    /// matches.
    Movies,
    /// Two DBpedia snapshots (2007 / 2009): Clean-clean ER, RDF, ~25 %
    /// name-value overlap between matching profiles.
    Dbpedia,
    /// Freebase–DBpedia: Clean-clean ER, RDF with opaque machine-id URIs.
    Freebase,
}

impl DatasetKind {
    /// All seven datasets, in Table 2 order.
    pub const ALL: [DatasetKind; 7] = [
        DatasetKind::Census,
        DatasetKind::Restaurant,
        DatasetKind::Cora,
        DatasetKind::Cddb,
        DatasetKind::Movies,
        DatasetKind::Dbpedia,
        DatasetKind::Freebase,
    ];

    /// The four structured datasets of §7.1.
    pub const STRUCTURED: [DatasetKind; 4] = [
        DatasetKind::Census,
        DatasetKind::Restaurant,
        DatasetKind::Cora,
        DatasetKind::Cddb,
    ];

    /// The three large, heterogeneous datasets of §7.2.
    pub const HETEROGENEOUS: [DatasetKind; 3] = [
        DatasetKind::Movies,
        DatasetKind::Dbpedia,
        DatasetKind::Freebase,
    ];

    /// Dataset name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Census => "census",
            DatasetKind::Restaurant => "restaurant",
            DatasetKind::Cora => "cora",
            DatasetKind::Cddb => "cddb",
            DatasetKind::Movies => "movies",
            DatasetKind::Dbpedia => "dbpedia",
            DatasetKind::Freebase => "freebase",
        }
    }

    /// Whether the twin provides schema-based PSN keys (only the structured
    /// datasets do; the paper notes schema-based methods are inapplicable to
    /// the heterogeneous ones).
    pub fn has_schema_keys(self) -> bool {
        matches!(
            self,
            DatasetKind::Census | DatasetKind::Restaurant | DatasetKind::Cora | DatasetKind::Cddb
        )
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which twin to build.
    pub kind: DatasetKind,
    /// RNG seed — same seed, same dataset.
    pub seed: u64,
    /// Linear size factor. `1.0` reproduces Table 2 for the structured
    /// datasets; the heterogeneous twins define scale 1.0 as a laptop-sized
    /// downscaling of the paper's millions (documented per generator).
    pub scale: f64,
}

impl DatasetSpec {
    /// Table 2 configuration for `kind` with the default seed.
    pub fn paper(kind: DatasetKind) -> Self {
        Self {
            kind,
            seed: 0xC0FFEE ^ kind as u64,
            scale: 1.0,
        }
    }

    /// Adjusts the size factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// Adjusts the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    pub fn generate(&self) -> GeneratedDataset {
        match self.kind {
            DatasetKind::Census => census::generate(self),
            DatasetKind::Restaurant => restaurant::generate(self),
            DatasetKind::Cora => cora::generate(self),
            DatasetKind::Cddb => cddb::generate(self),
            DatasetKind::Movies => movies::generate(self),
            DatasetKind::Dbpedia => rdf::generate_dbpedia(self),
            DatasetKind::Freebase => rdf::generate_freebase(self),
        }
    }
}

/// A generated dataset: profiles, ground truth, and (for structured twins)
/// the schema-based PSN blocking keys known from the literature.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Which twin this is.
    pub kind: DatasetKind,
    /// The profile collection (Dirty or Clean-clean).
    pub profiles: ProfileCollection,
    /// The known matches.
    pub truth: GroundTruth,
    /// One schema-based blocking key per profile (structured twins only).
    pub schema_keys: Option<Vec<String>>,
}

impl GeneratedDataset {
    /// Table 2 row for this dataset: (|P| or |P1|—|P2|, #attributes, |DP|,
    /// avg name-value pairs).
    pub fn table2_row(&self) -> String {
        let p = match self.profiles.kind() {
            sper_model::ErKind::Dirty => format!("{}", self.profiles.len()),
            sper_model::ErKind::CleanClean => format!(
                "{}—{}",
                self.profiles.len_first(),
                self.profiles.len_second()
            ),
        };
        format!(
            "{:<11} {:>13} {:>7} {:>9} {:>7.2}",
            self.kind.name(),
            p,
            self.profiles.num_attribute_names(),
            self.truth.num_matches(),
            self.profiles.avg_pairs(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_enumerations() {
        assert_eq!(DatasetKind::ALL.len(), 7);
        assert_eq!(DatasetKind::STRUCTURED.len(), 4);
        assert_eq!(DatasetKind::HETEROGENEOUS.len(), 3);
        assert!(DatasetKind::Census.has_schema_keys());
        assert!(!DatasetKind::Freebase.has_schema_keys());
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        DatasetSpec::paper(DatasetKind::Census).with_scale(0.0);
    }
}
