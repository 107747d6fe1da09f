//! Quickstart: resolve a handful of heterogeneous profiles progressively.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the paper's running example (Fig. 3): six profiles extracted
//! from a data lake — relational rows, RDF resources and free text — with
//! no shared schema. We run PPS (the best all-round method) and print the
//! comparisons in the order a pay-as-you-go application would receive them.

use sper::prelude::*;

fn main() {
    // 1. Assemble profiles from heterogeneous sources. Attribute names are
    //    free-form; the methods never look at them.
    let mut builder = ProfileCollectionBuilder::dirty();
    let p1 = builder.add_profile([
        ("Name", "Carl"),
        ("Surname", "White"),
        ("City", "NY"),
        ("Profession", "Tailor"),
    ]);
    let p2 = builder.add_profile([
        (":livesIn", "NY"),
        (":n", "Carl_White"),
        (":workAs", "Tailor"),
    ]);
    let p3 = builder.add_profile([(":loc", "NY"), (":n", "Karl_White"), (":job", "Tailor")]);
    let p4 = builder.add_profile([
        ("Name", "Ellen"),
        ("Surname", "White"),
        ("City", "ML"),
        ("Profession", "Teacher"),
    ]);
    let p5 = builder.add_profile([("text", "Hellen White, ML teacher")]);
    let p6 = builder.add_profile([("text", "Emma White, WI Tailor")]);
    let profiles = builder.build();
    println!("{} profiles from 3 kinds of sources\n", profiles.len());

    // 2. Build a progressive method. PPS = Progressive Profile Scheduling:
    //    blocks → blocking graph → duplication likelihood per profile.
    //    (The 10% purging default is meant for large collections, so we use
    //    raw token blocks here.)
    let blocks = sper::blocking::TokenBlocking.build(&profiles);
    let pps = sper::core::pps::Pps::from_blocks(blocks, WeightingScheme::Arcs, 3);

    // 3. Consume comparisons best-first. A real application would stop
    //    whenever its time budget runs out — recall is front-loaded.
    println!("{:<6} {:>12} {:>9}", "rank", "comparison", "weight");
    for (rank, c) in pps.enumerate().take(8) {
        println!(
            "{:<6} {:>12} {:>9.3}",
            rank + 1,
            format!("{}", c.pair),
            c.weight
        );
    }

    // The true matches of this example:
    println!("\nground truth: {p1}≡{p2}≡{p3} and {p4}≡{p5}; {p6} is unique");
}
