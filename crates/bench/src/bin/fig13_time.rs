//! Figure 13: time-efficiency experiments on movies and dbpedia.
//!
//! Each schema-agnostic method is paired with the cheap match function
//! (Jaccard similarity, `O(s+t)`) and the expensive one (edit distance,
//! `O(s·t)`), per §7.3. We report the initialization time (Fig. 13e), the
//! wall-clock time to reach recall milestones, and the final recall within
//! the emission budget. As in the paper (footnote 10), the match function
//! is *executed* for its cost but recall is scored against the ground
//! truth.

use sper_bench::{dataset, paper_config};
use sper_core::{build_method, ProgressiveMethod};
use sper_datagen::DatasetKind;
use sper_eval::report::{fmt_duration, Table};
use sper_eval::timing::{run_timed, TimingOptions};
use sper_model::{EditDistanceMatcher, JaccardMatcher, MatchFunction, ProfileText};

fn main() {
    println!("== Figure 13: time experiments (movies, dbpedia) ==\n");
    let methods = [
        ProgressiveMethod::SaPsn,
        ProgressiveMethod::LsPsn,
        ProgressiveMethod::GsPsn,
        ProgressiveMethod::Pbs,
        ProgressiveMethod::Pps,
    ];
    let options = TimingOptions {
        max_ec_star: 10.0,
        checkpoints: 40,
    };

    for kind in [DatasetKind::Movies, DatasetKind::Dbpedia] {
        let data = dataset(kind);
        let config = paper_config(kind);
        let text = ProfileText::extract(&data.profiles);
        println!(
            "-- {} (|P| = {}, |DP| = {}) --",
            kind,
            data.profiles.len(),
            data.truth.num_matches()
        );

        for cheap in [true, false] {
            let jaccard;
            let edit;
            let matcher: &dyn MatchFunction = if cheap {
                jaccard = JaccardMatcher::new(&text, 0.5);
                &jaccard
            } else {
                edit = EditDistanceMatcher::new(&data.profiles, 0.8);
                &edit
            };
            println!(
                "   match function: {} ({})",
                matcher.name(),
                if cheap {
                    "cheap, O(s+t)"
                } else {
                    "expensive, O(s·t)"
                }
            );
            let mut table = Table::new([
                "method",
                "init",
                "t@recall.25",
                "t@recall.50",
                "t@recall.75",
                "final recall",
                "total time",
            ]);
            for method in methods {
                let result = run_timed(
                    || build_method(method, &data.profiles, &config, data.schema_keys.as_deref()),
                    matcher,
                    &data.truth,
                    options,
                );
                let milestone = |target: f64| {
                    result
                        .time_to_recall(target)
                        .map_or("—".to_string(), fmt_duration)
                };
                table.add_row([
                    method.name().to_string(),
                    fmt_duration(result.init_time),
                    milestone(0.25),
                    milestone(0.50),
                    milestone(0.75),
                    format!("{:.3}", result.final_recall()),
                    fmt_duration(result.trajectory.last().unwrap().0),
                ]);
            }
            println!("{}", table.render());
        }
    }

    println!("-- Fig. 13(e): initialization times (independent of match function) --");
    let mut table = Table::new(["dataset", "SA-PSN", "LS-PSN", "GS-PSN", "PBS", "PPS"]);
    for kind in [DatasetKind::Movies, DatasetKind::Dbpedia] {
        let data = dataset(kind);
        let config = paper_config(kind);
        let mut row = vec![kind.name().to_string()];
        for method in &methods {
            let t0 = std::time::Instant::now();
            let mut m = build_method(
                *method,
                &data.profiles,
                &config,
                data.schema_keys.as_deref(),
            );
            let _ = m.next(); // include the first emission, as in the paper
            row.push(fmt_duration(t0.elapsed()));
        }
        table.add_row(row);
    }
    println!("{}", table.render());
}
