//! Exports the Fig. 9 / Fig. 11 recall curves (one series per method ×
//! dataset, sampled on a dense ec\* grid) for external plotting and
//! trajectory tracking.
//!
//! ```text
//! cargo run -p sper-bench --release --bin export_curves > curves.csv
//! cargo run -p sper-bench --release --bin export_curves -- --json > curves.json
//! ```
//!
//! The JSON form is machine-readable for trajectory tracking: an array of
//! series, each carrying its summary statistics (`auc_at_10`,
//! `final_recall`, timing) next to the sampled curve.

use serde::Serialize;
use sper_bench::{dataset, methods_for, paper_config, run_on};
use sper_datagen::DatasetKind;

#[derive(Serialize)]
struct SamplePoint {
    ec_star: f64,
    recall: f64,
}

#[derive(Serialize)]
struct CurveSeries {
    dataset: &'static str,
    method: &'static str,
    n_profiles: usize,
    n_matches: usize,
    auc_at_10: f64,
    final_recall: f64,
    init_time_us: u128,
    emission_time_us: u128,
    samples: Vec<SamplePoint>,
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    // Dense ec* grid for smooth plots.
    let grid: Vec<f64> = (1..=60).map(|i| i as f64 * 0.5).collect();
    let mut series: Vec<CurveSeries> = Vec::new();
    if !json {
        println!("dataset,method,ec_star,recall");
    }
    for kind in DatasetKind::ALL {
        let data = dataset(kind);
        let config = paper_config(kind);
        for method in methods_for(kind) {
            let result = run_on(method, &data, &config, 30.0);
            let samples = result.curve.sample(&grid);
            if json {
                series.push(CurveSeries {
                    dataset: kind.name(),
                    method: method.name(),
                    n_profiles: data.profiles.len(),
                    n_matches: data.truth.num_matches(),
                    auc_at_10: result.auc(10.0),
                    final_recall: result.curve.final_recall(),
                    init_time_us: result.init_time.as_micros(),
                    emission_time_us: result.emission_time.as_micros(),
                    samples: samples
                        .into_iter()
                        .map(|(ec_star, recall)| SamplePoint { ec_star, recall })
                        .collect(),
                });
            } else {
                for (ec, recall) in samples {
                    println!("{},{},{ec},{recall:.6}", kind.name(), method.name());
                }
            }
        }
    }
    if json {
        println!("{}", serde::json::to_string(&series));
    }
}
