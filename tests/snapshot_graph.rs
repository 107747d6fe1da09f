//! Blackbox check of the blocking graph's one production caller:
//! `sper snapshot --with-graph` stores the edge list that the seed
//! seen-set builder produces over the stored blocks — the same pairs in
//! the same order, with the same weight bits.

use sper::blocking::legacy::legacy_graph_edges;
use sper::blocking::WeightingScheme;
use sper::model::Pair;
use sper::store::Snapshot;
use std::process::Command;

fn bits(edges: impl IntoIterator<Item = (Pair, f64)>) -> Vec<(Pair, u64)> {
    edges.into_iter().map(|(p, w)| (p, w.to_bits())).collect()
}

#[test]
fn snapshot_graph_equals_the_legacy_edge_list() {
    let dir = std::env::temp_dir().join(format!("sper-snapshot-graph-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("census.sper");
    let out = Command::new(env!("CARGO_BIN_EXE_sper"))
        .args([
            "snapshot",
            "census",
            "--scale",
            "0.2",
            "--with-graph",
            "--out",
        ])
        .arg(&path)
        .output()
        .expect("spawn sper snapshot");
    assert!(
        out.status.success(),
        "sper snapshot failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let snapshot = Snapshot::read_from_path(&path).expect("load the snapshot");
    let blocks = snapshot.blocks.as_ref().expect("blocks stored");
    let graph = snapshot.graph.as_ref().expect("graph stored");
    let expected = legacy_graph_edges(blocks, WeightingScheme::Arcs);
    assert!(!expected.is_empty(), "census 0.2 entails comparisons");
    assert_eq!(bits(graph.edges()), bits(expected));
    let _ = std::fs::remove_dir_all(&dir);
}
