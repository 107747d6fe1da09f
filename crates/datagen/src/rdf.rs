//! The RDF twins: **dbpedia** (two snapshots of the same KB, 2007 vs 2009)
//! and **freebase** (Freebase vs DBpedia), both Clean-clean ER.
//!
//! Paper scale is millions of profiles (Table 2); scale 1.0 here is a
//! laptop-sized downscaling (documented per generator) that preserves the
//! mechanisms the evaluation hinges on:
//!
//! * **dbpedia** — matching profiles share only ~25 % of their name-value
//!   pairs (paper footnote 2): predicates get renamed between snapshots and
//!   values drift at the token level. Local names of URIs remain readable,
//!   so similarity-based methods still work, just worse than PPS
//!   (Fig. 11b).
//! * **freebase** — the Freebase side is dominated by opaque machine-id
//!   URIs (`m.0…`) that exist only in that source: they flood the Neighbor
//!   List with meaningless placements (similarity methods degrade to
//!   SA-PSN level, Fig. 11c) while Token Blocking structurally ignores
//!   them (single-source blocks), keeping the equality-based methods
//!   robust.

use crate::build::{assemble_clean_clean, EntityInstance};
use crate::noise::{CharNoise, TokenNoise};
use crate::vocab::{gen_mid, Vocab, MOVIE_GENRES, SURNAMES};
use crate::{DatasetSpec, GeneratedDataset};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use sper_model::Attribute;

/// A knowledge-base entity shared by both sides of a Clean-clean RDF task.
struct KbEntity {
    /// Readable name words (the cross-source matching signal).
    name: Vec<String>,
    /// Category/type word.
    kind: String,
    /// Readable related-resource local names.
    links: Vec<String>,
    /// A year-ish literal.
    year: u32,
}

fn resource_uri(base: &str, words: &[String]) -> String {
    format!("{base}/resource/{}", words.join("_"))
}

fn make_entity(
    rng: &mut StdRng,
    names: &Vocab,
    kinds: &Vocab,
    link_pool: &Vocab,
    n_links: std::ops::RangeInclusive<usize>,
) -> KbEntity {
    KbEntity {
        name: (0..rng.gen_range(2..=3))
            .map(|_| names.pick(rng).to_string())
            .collect(),
        kind: kinds.pick_skewed(rng).to_string(),
        links: {
            let k = rng.gen_range(n_links);
            (0..k).map(|_| link_pool.pick(rng).to_string()).collect()
        },
        year: rng.gen_range(1900..2010),
    }
}

/// One DBpedia-style instance of `e`. `snapshot` switches the predicate
/// namespace (schema drift between 2007 and 2009); `keep_prob` is the
/// fraction of optional pairs retained, and token noise drifts the values —
/// together these push the cross-snapshot name-value overlap down to ~25 %.
fn dbpedia_instance(
    e: &KbEntity,
    snapshot: u8,
    keep_prob: f64,
    rng: &mut StdRng,
    char_noise: &CharNoise,
    token_noise: &TokenNoise,
) -> Vec<Attribute> {
    let ns = if snapshot == 0 {
        "http://dbpedia.org/property"
    } else {
        "http://dbpedia.org/ontology"
    };
    let mut attrs = Vec::with_capacity(e.links.len() + 5);
    let label = char_noise.apply(&e.name.join(" "), rng);
    attrs.push(Attribute::new(
        "http://www.w3.org/2000/01/rdf-schema#label",
        label,
    ));
    attrs.push(Attribute::new(
        format!("{ns}/name"),
        token_noise.apply(&e.name.join(" "), rng),
    ));
    if rng.gen_bool(keep_prob) {
        attrs.push(Attribute::new(
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            format!("http://dbpedia.org/ontology/{}", e.kind),
        ));
    }
    if rng.gen_bool(keep_prob) {
        attrs.push(Attribute::new(format!("{ns}/year"), e.year.to_string()));
    }
    for link in &e.links {
        if !rng.gen_bool(keep_prob) {
            continue;
        }
        // Each snapshot names the linking predicate differently.
        let pred = format!(
            "{ns}/{}",
            if snapshot == 0 { "wikilink" } else { "related" }
        );
        attrs.push(Attribute::new(
            pred,
            resource_uri("http://dbpedia.org", std::slice::from_ref(link)),
        ));
    }
    attrs
}

/// Generates the **dbpedia** twin. Scale 1.0 = 12 000 — 22 000 profiles
/// with 8 930 matches (a 1:100 downscaling of the paper's 1.2 M — 2.2 M /
/// 893 k).
pub fn generate_dbpedia(spec: &DatasetSpec) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let matches = ((8930.0 * spec.scale).round() as usize).max(1);
    let p1_only = ((3070.0 * spec.scale).round() as usize).max(1);
    let p2_only = ((13070.0 * spec.scale).round() as usize).max(1);

    let names = Vocab::new(SURNAMES, 6000, &mut rng);
    let kinds = Vocab::new(MOVIE_GENRES, 60, &mut rng);
    let link_pool = Vocab::new(&[], 4000, &mut rng);
    let char_noise = CharNoise::light();
    let token_noise = TokenNoise::rdf();

    let mut first = Vec::new();
    let mut second = Vec::new();
    let mut entity_id = 0usize;
    let push_pairs = |n: usize,
                      both: bool,
                      into_first: bool,
                      first: &mut Vec<EntityInstance>,
                      second: &mut Vec<EntityInstance>,
                      rng: &mut StdRng,
                      entity_id: &mut usize| {
        for _ in 0..n {
            let e = make_entity(rng, &names, &kinds, &link_pool, 6..=14);
            if both || into_first {
                first.push(EntityInstance {
                    entity_id: *entity_id,
                    attributes: dbpedia_instance(&e, 0, 0.55, rng, &char_noise, &token_noise),
                });
            }
            if both || !into_first {
                second.push(EntityInstance {
                    entity_id: *entity_id,
                    attributes: dbpedia_instance(&e, 1, 0.55, rng, &char_noise, &token_noise),
                });
            }
            *entity_id += 1;
        }
    };
    push_pairs(
        matches,
        true,
        true,
        &mut first,
        &mut second,
        &mut rng,
        &mut entity_id,
    );
    push_pairs(
        p1_only,
        false,
        true,
        &mut first,
        &mut second,
        &mut rng,
        &mut entity_id,
    );
    push_pairs(
        p2_only,
        false,
        false,
        &mut first,
        &mut second,
        &mut rng,
        &mut entity_id,
    );

    let (profiles, truth) = assemble_clean_clean(first, second, &mut rng);
    GeneratedDataset {
        kind: spec.kind,
        profiles,
        truth,
        schema_keys: None,
    }
}

/// Generates the **freebase** twin. Scale 1.0 = 21 000 — 18 500 profiles
/// with 7 500 matches (a 1:200 downscaling of the paper's 4.2 M — 3.7 M /
/// 1.5 M).
pub fn generate_freebase(spec: &DatasetSpec) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let matches = ((7500.0 * spec.scale).round() as usize).max(1);
    let p1_only = ((13500.0 * spec.scale).round() as usize).max(1);
    let p2_only = ((11000.0 * spec.scale).round() as usize).max(1);

    let names = Vocab::new(SURNAMES, 6000, &mut rng);
    let kinds = Vocab::new(MOVIE_GENRES, 60, &mut rng);
    let link_pool = Vocab::new(&[], 4000, &mut rng);
    let char_noise = CharNoise::moderate();
    let token_noise = TokenNoise::rdf();

    // Freebase-side instance: a couple of readable literals buried under a
    // pile of opaque machine-id links that exist only in this source.
    let freebase_instance = |e: &KbEntity, rng: &mut StdRng| -> Vec<Attribute> {
        let mut attrs = Vec::new();
        attrs.push(Attribute::new(
            "http://rdf.freebase.com/ns/type.object.name",
            token_noise.apply(&char_noise.apply(&e.name.join(" "), rng), rng),
        ));
        attrs.push(Attribute::new(
            "http://rdf.freebase.com/ns/type.object.type",
            format!("http://rdf.freebase.com/ns/common.topic.{}", e.kind),
        ));
        // ~20 machine-id links: meaningless alphabetically, single-source.
        let n_mids = rng.gen_range(16..=24);
        for i in 0..n_mids {
            attrs.push(Attribute::new(
                format!("http://rdf.freebase.com/ns/link.{:02}", i % 12),
                format!("http://rdf.freebase.com/ns/{}", gen_mid(rng)),
            ));
        }
        attrs
    };

    let mut first = Vec::new();
    let mut second = Vec::new();
    for (entity_id, i) in (0..(matches + p1_only + p2_only)).enumerate() {
        let e = make_entity(&mut rng, &names, &kinds, &link_pool, 4..=10);
        let in_first = i < matches + p1_only;
        let in_second = i < matches || i >= matches + p1_only;
        if in_first {
            first.push(EntityInstance {
                entity_id,
                attributes: freebase_instance(&e, &mut rng),
            });
        }
        if in_second {
            second.push(EntityInstance {
                entity_id,
                attributes: dbpedia_instance(&e, 1, 0.6, &mut rng, &char_noise, &token_noise),
            });
        }
    }

    let (profiles, truth) = assemble_clean_clean(first, second, &mut rng);
    GeneratedDataset {
        kind: spec.kind,
        profiles,
        truth,
        schema_keys: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;
    use sper_model::ErKind;

    fn dbp() -> GeneratedDataset {
        DatasetSpec::paper(DatasetKind::Dbpedia)
            .with_scale(0.05)
            .generate()
    }

    fn fb() -> GeneratedDataset {
        DatasetSpec::paper(DatasetKind::Freebase)
            .with_scale(0.05)
            .generate()
    }

    #[test]
    fn dbpedia_shape() {
        let d = dbp();
        assert_eq!(d.profiles.kind(), ErKind::CleanClean);
        assert_eq!(d.truth.num_matches(), 447); // 8930 × 0.05 rounded
        assert!(d.profiles.len_second() > d.profiles.len_first());
        assert_eq!(d.truth.validate(&d.profiles), 0);
    }

    #[test]
    fn dbpedia_low_pair_overlap() {
        // Footnote 2: the two snapshots share only ~25 % of name-value
        // pairs. Measure exact (name, value) overlap on matching profiles.
        let d = dbp();
        let mut ratios = Vec::new();
        for p in d.truth.pairs().take(200) {
            let a: std::collections::HashSet<(String, String)> = d
                .profiles
                .get(p.first)
                .attributes
                .iter()
                .map(|x| (x.name.clone(), x.value.clone()))
                .collect();
            let b: std::collections::HashSet<(String, String)> = d
                .profiles
                .get(p.second)
                .attributes
                .iter()
                .map(|x| (x.name.clone(), x.value.clone()))
                .collect();
            let inter = a.intersection(&b).count();
            let union = a.len() + b.len() - inter;
            ratios.push(inter as f64 / union as f64);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean < 0.35, "pair overlap should be low: {mean:.3}");
    }

    #[test]
    fn freebase_shape() {
        let d = fb();
        assert_eq!(d.truth.num_matches(), 375); // 7500 × 0.05
        assert_eq!(d.truth.validate(&d.profiles), 0);
        // Freebase side is pair-heavy (~20+ attrs).
        let p1_avg: f64 = {
            let firsts: Vec<_> = d
                .profiles
                .iter()
                .filter(|p| p.source == sper_model::SourceId::FIRST)
                .collect();
            firsts.iter().map(|p| p.num_pairs()).sum::<usize>() as f64 / firsts.len() as f64
        };
        assert!(p1_avg > 15.0, "freebase avg pairs {p1_avg}");
    }

    #[test]
    fn freebase_mids_are_single_source() {
        // The machine-id tokens must never appear on the DBpedia side —
        // that asymmetry is the whole point of the twin.
        let d = fb();
        for p in d.profiles.iter() {
            if p.source == sper_model::SourceId::SECOND {
                for a in &p.attributes {
                    assert!(!a.value.contains("/ns/m.0"), "mid leaked to P2: {a:?}");
                }
            }
        }
    }

    #[test]
    fn freebase_matching_profiles_share_name_tokens() {
        use sper_text::Tokenizer;
        let d = fb();
        let t = Tokenizer;
        let mut share = 0;
        let mut total = 0;
        for p in d.truth.pairs().take(200) {
            let a = d.profiles.get(p.first).token_set(&t);
            let b = d.profiles.get(p.second).token_set(&t);
            let inter = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
            total += 1;
            // Shared: name tokens + URI prefixes (http, org...).
            if inter >= 3 {
                share += 1;
            }
        }
        assert!(share * 2 >= total, "{share}/{total} pairs share tokens");
    }

    #[test]
    fn deterministic() {
        assert_eq!(dbp().profiles.len(), dbp().profiles.len());
        assert_eq!(fb().truth.num_matches(), fb().truth.num_matches());
    }
}
