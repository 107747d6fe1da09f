//! The **cora** twin: Dirty ER, 1.3 k profiles, 12 attributes, 17 k matches,
//! 5.53 avg name-value pairs (Table 2).
//!
//! Cora is a bibliographic dataset: the same paper cited dozens of times
//! with wildly varying completeness — hence the *large equivalence clusters*
//! (17 k pairs from 1.3 k profiles) and the low average pair count despite
//! 12 possible attributes. Citations of the same paper overlap heavily in
//! title/author tokens, which is why the schema-agnostic similarity methods
//! shine here (Fig. 9c).

use crate::build::{assemble_dirty, EntityInstance};
use crate::noise::CharNoise;
use crate::plan::plan_clusters;
use crate::vocab::{Vocab, SURNAMES, VENUES};
use crate::{DatasetSpec, GeneratedDataset};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use sper_model::Attribute;

struct Paper {
    authors: Vec<String>,
    title: Vec<String>,
    venue: String,
    year: u32,
    pages: String,
    volume: u32,
    publisher: String,
    address: String,
    editor: String,
    month: &'static str,
    note: String,
    tech: String,
}

const MONTHS: [&str; 12] = [
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
];

/// Generates the cora twin.
pub fn generate(spec: &DatasetSpec) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = ((1300.0 * spec.scale).round() as usize).max(6);
    let pairs = ((17000.0 * spec.scale).round() as usize).max(1);
    let plan = plan_clusters(n, pairs, 30);

    let authors_vocab = Vocab::new(SURNAMES, 300, &mut rng);
    let title_vocab = Vocab::new(&[], 900, &mut rng);
    let venues = Vocab::new(VENUES, 40, &mut rng);
    let publishers = Vocab::new(
        &["springer", "acm", "ieee", "elsevier", "mit"],
        20,
        &mut rng,
    );
    let noise = CharNoise::moderate();

    let make = |rng: &mut StdRng| Paper {
        authors: (0..rng.gen_range(1..=4))
            .map(|_| authors_vocab.pick(rng).to_string())
            .collect(),
        title: (0..rng.gen_range(4..=8))
            .map(|_| title_vocab.pick_skewed(rng).to_string())
            .collect(),
        venue: venues.pick(rng).to_string(),
        year: rng.gen_range(1985..2005),
        pages: format!("{}--{}", rng.gen_range(1..400), rng.gen_range(400..800)),
        volume: rng.gen_range(1..40),
        publisher: publishers.pick(rng).to_string(),
        address: "new york".to_string(),
        editor: authors_vocab.pick(rng).to_string(),
        month: MONTHS[rng.gen_range(0..12)],
        note: "technical report".to_string(),
        tech: format!("tr-{}", rng.gen_range(1..999)),
    };

    // A citation instance: authors/title/year are (nearly) always present;
    // the other nine attributes appear sporadically — this yields 12
    // distinct attribute names but only ~5.5 pairs per profile.
    let instantiate = |p: &Paper, noisy: bool, rng: &mut StdRng| -> Vec<Attribute> {
        let mut attrs: Vec<Attribute> = Vec::with_capacity(7);
        let mut authors = p.authors.join(" and ");
        let mut title = p.title.join(" ");
        if noisy {
            authors = noise.apply(&authors, rng);
            title = noise.apply(&title, rng);
            // Citations frequently truncate the author list.
            if rng.gen_bool(0.25) && p.authors.len() > 1 {
                authors = format!("{} et al", p.authors[0]);
            }
        }
        attrs.push(Attribute::new("author", authors));
        attrs.push(Attribute::new("title", title));
        if rng.gen_bool(0.9) {
            attrs.push(Attribute::new("year", p.year.to_string()));
        }
        if rng.gen_bool(0.65) {
            attrs.push(Attribute::new("venue", p.venue.clone()));
        }
        if rng.gen_bool(0.35) {
            attrs.push(Attribute::new("pages", p.pages.clone()));
        }
        if rng.gen_bool(0.3) {
            attrs.push(Attribute::new("volume", p.volume.to_string()));
        }
        if rng.gen_bool(0.25) {
            attrs.push(Attribute::new("publisher", p.publisher.clone()));
        }
        if rng.gen_bool(0.15) {
            attrs.push(Attribute::new("address", p.address.clone()));
        }
        if rng.gen_bool(0.12) {
            attrs.push(Attribute::new("editor", p.editor.clone()));
        }
        if rng.gen_bool(0.15) {
            attrs.push(Attribute::new("month", p.month.to_string()));
        }
        if rng.gen_bool(0.08) {
            attrs.push(Attribute::new("note", p.note.clone()));
        }
        if rng.gen_bool(0.08) {
            attrs.push(Attribute::new("tech", p.tech.clone()));
        }
        attrs
    };

    let mut instances = Vec::with_capacity(n);
    let mut entity_id = 0usize;
    for &size in &plan.sizes {
        let paper = make(&mut rng);
        for k in 0..size {
            instances.push(EntityInstance {
                entity_id,
                attributes: instantiate(&paper, k > 0, &mut rng),
            });
        }
        entity_id += 1;
    }
    for _ in 0..plan.singletons() {
        let paper = make(&mut rng);
        instances.push(EntityInstance {
            entity_id,
            attributes: instantiate(&paper, false, &mut rng),
        });
        entity_id += 1;
    }

    let (profiles, truth) = assemble_dirty(instances, &mut rng);

    // Literature key: first author surname + year.
    let schema_keys: Vec<String> = profiles
        .iter()
        .map(|p| {
            let author = p.value_of("author").unwrap_or("");
            let first = author.split_whitespace().next().unwrap_or("");
            let year = p.value_of("year").unwrap_or("0");
            format!("{first}{year}")
        })
        .collect();

    GeneratedDataset {
        kind: spec.kind,
        profiles,
        truth,
        schema_keys: Some(schema_keys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;

    fn twin() -> GeneratedDataset {
        DatasetSpec::paper(DatasetKind::Cora).generate()
    }

    #[test]
    fn table2_shape() {
        let d = twin();
        assert_eq!(d.profiles.len(), 1300);
        assert_eq!(d.truth.num_matches(), 17000);
        assert_eq!(d.profiles.num_attribute_names(), 12);
        let avg = d.profiles.avg_pairs();
        assert!((4.8..=6.2).contains(&avg), "avg pairs {avg}");
    }

    #[test]
    fn has_large_clusters() {
        let d = twin();
        let max = d.truth.clusters().iter().map(Vec::len).max().unwrap();
        assert_eq!(max, 30, "cora packs pairs into big clusters");
    }

    #[test]
    fn duplicates_overlap_in_title_tokens() {
        let d = twin();
        let text = sper_model::ProfileText::extract(&d.profiles);
        let mut overlapping = 0usize;
        let mut total = 0usize;
        for p in d.truth.pairs().take(500) {
            let (a, b) = (text.tokens(p.first), text.tokens(p.second));
            let inter = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
            total += 1;
            if inter >= 3 {
                overlapping += 1;
            }
        }
        assert!(
            overlapping * 10 >= total * 8,
            "duplicates should share ≥3 tokens: {overlapping}/{total}"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(twin().truth.num_matches(), twin().truth.num_matches());
    }
}
