//! The **movies** twin: Clean-clean ER between an IMDB-style source
//! (4 attributes) and a DBpedia-style source (7 attributes); paper scale is
//! 27 615 — 23 182 profiles with 22 863 matches (Table 2).
//!
//! Nearly every `P2` movie has an `P1` counterpart. Titles overlap heavily
//! at the token level while the schemata are disjoint — the canonical
//! schema-agnostic Clean-clean task.

use crate::build::{assemble_clean_clean, EntityInstance};
use crate::noise::CharNoise;
use crate::vocab::{Vocab, FIRST_NAMES, MOVIE_GENRES, SURNAMES};
use crate::{DatasetSpec, GeneratedDataset};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use sper_model::Attribute;

struct Movie {
    title: Vec<String>,
    year: u32,
    director: String,
    genre: String,
    starring: Vec<String>,
    runtime: u32,
}

/// Generates the movies twin. Scale 1.0 reproduces Table 2
/// (27 615 — 23 182, 22 863 matches).
pub fn generate(spec: &DatasetSpec) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let matches = ((22863.0 * spec.scale).round() as usize).max(1);
    let p1_only = ((4752.0 * spec.scale).round() as usize).max(1);
    let p2_only = ((319.0 * spec.scale).round() as usize).max(1);

    let title_words = Vocab::new(&[], 4000, &mut rng);
    let people_first = Vocab::new(FIRST_NAMES, 500, &mut rng);
    let people_last = Vocab::new(SURNAMES, 1500, &mut rng);
    let genres = Vocab::new(MOVIE_GENRES, 0, &mut rng);
    let noise = CharNoise::light();

    let person = |rng: &mut StdRng| format!("{} {}", people_first.pick(rng), people_last.pick(rng));
    let make = |rng: &mut StdRng| Movie {
        title: (0..rng.gen_range(1..=4))
            .map(|_| title_words.pick_skewed(rng).to_string())
            .collect(),
        year: rng.gen_range(1950..2010),
        director: person(rng),
        genre: genres.pick_skewed(rng).to_string(),
        starring: {
            let k = rng.gen_range(2..=3);
            (0..k).map(|_| person(rng)).collect()
        },
        runtime: rng.gen_range(70..210),
    };

    // IMDB-style instance: 4 attributes.
    let imdb = |m: &Movie, rng: &mut StdRng| -> Vec<Attribute> {
        let _ = rng;
        vec![
            Attribute::new("title", m.title.join(" ")),
            Attribute::new("year", m.year.to_string()),
            Attribute::new("director", m.director.clone()),
            Attribute::new("genre", m.genre.clone()),
        ]
    };
    // DBpedia-style instance: 7 attributes, lightly drifted values.
    let dbp = |m: &Movie, rng: &mut StdRng| -> Vec<Attribute> {
        let mut title = noise.apply(&m.title.join(" "), rng);
        if rng.gen_bool(0.3) {
            title.push_str(" film");
        }
        vec![
            Attribute::new("name", title),
            Attribute::new("released", format!("{}-01-01", m.year)),
            Attribute::new("director", noise.apply(&m.director, rng)),
            Attribute::new("starring", m.starring.join(", ")),
            Attribute::new("runtime", m.runtime.to_string()),
            Attribute::new("genre", m.genre.clone()),
            Attribute::new("label", format!("{} {}", m.title.join(" "), m.year)),
        ]
    };

    let mut first = Vec::with_capacity(matches + p1_only);
    let mut second = Vec::with_capacity(matches + p2_only);
    let mut entity_id = 0usize;
    for _ in 0..matches {
        let m = make(&mut rng);
        first.push(EntityInstance {
            entity_id,
            attributes: imdb(&m, &mut rng),
        });
        second.push(EntityInstance {
            entity_id,
            attributes: dbp(&m, &mut rng),
        });
        entity_id += 1;
    }
    for _ in 0..p1_only {
        let m = make(&mut rng);
        first.push(EntityInstance {
            entity_id,
            attributes: imdb(&m, &mut rng),
        });
        entity_id += 1;
    }
    for _ in 0..p2_only {
        let m = make(&mut rng);
        second.push(EntityInstance {
            entity_id,
            attributes: dbp(&m, &mut rng),
        });
        entity_id += 1;
    }

    let (profiles, truth) = assemble_clean_clean(first, second, &mut rng);
    GeneratedDataset {
        kind: spec.kind,
        profiles,
        truth,
        schema_keys: None, // schema-based methods inapplicable (§7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;
    use sper_model::ErKind;

    fn twin() -> GeneratedDataset {
        DatasetSpec::paper(DatasetKind::Movies)
            .with_scale(0.05)
            .generate()
    }

    #[test]
    fn table2_shape_scaled() {
        let d = twin();
        assert_eq!(d.profiles.kind(), ErKind::CleanClean);
        assert_eq!(d.profiles.len_first(), 1143 + 238); // matches + p1_only
        assert_eq!(d.profiles.len_second(), 1143 + 16);
        assert_eq!(d.truth.num_matches(), 1143);
        assert_eq!(d.truth.validate(&d.profiles), 0);
        assert!(d.truth.clean_sources_are_duplicate_free(&d.profiles));
    }

    #[test]
    fn disjoint_schemata() {
        let d = twin();
        // 4 + 7 names, sharing only "genre" and "director" → 9 distinct.
        assert_eq!(d.profiles.num_attribute_names(), 9);
        let p1 = &d.profiles.profiles()[0];
        assert!(p1.num_pairs() == 4 || p1.num_pairs() == 7);
    }

    #[test]
    fn no_schema_keys() {
        assert!(twin().schema_keys.is_none());
    }

    #[test]
    fn matching_movies_share_title_tokens() {
        use sper_text::Tokenizer;
        let d = twin();
        let t = Tokenizer;
        let mut share = 0;
        let mut total = 0;
        for p in d.truth.pairs().take(300) {
            let a = d.profiles.get(p.first).token_set(&t);
            let b = d.profiles.get(p.second).token_set(&t);
            let inter = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
            total += 1;
            if inter >= 2 {
                share += 1;
            }
        }
        assert!(share * 10 >= total * 9, "{share}/{total}");
    }
}
