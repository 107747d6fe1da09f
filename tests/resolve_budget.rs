//! `sper resolve` pulls exactly its budget from the method. GS-PSN emits
//! in bands of `10 · |P|` comparisons and up, each cut by one window pass
//! when the previous band runs out, so one pull past the default budget
//! (`10 · |P|`, the first band) would start a second pass for nothing.

use std::process::Command;

#[test]
fn default_budget_gs_psn_resolve_makes_one_window_pass() {
    let dir = std::env::temp_dir().join(format!("sper-resolve-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let sper = || {
        let mut command = Command::new(env!("CARGO_BIN_EXE_sper"));
        command.current_dir(&dir);
        command
    };
    let out = sper()
        .args(["generate", "census", "--scale", "0.05", "--out", "p.csv"])
        .output()
        .expect("spawn sper generate");
    assert!(out.status.success(), "generate failed");
    let out = sper()
        .args([
            "resolve", "p.csv", "--method", "gs-psn", "--trace", "t.jsonl",
        ])
        .output()
        .expect("spawn sper resolve");
    assert!(out.status.success(), "resolve failed");

    let trace = std::fs::read_to_string(dir.join("t.jsonl")).expect("read trace");
    let passes: Vec<serde::json::Value> = trace
        .lines()
        .map(|line| serde::json::parse(line).expect("trace line is JSON"))
        .filter(|r| r.get("name").and_then(|n| n.as_str()) == Some("core.gs_psn.window_pass"))
        .collect();
    assert_eq!(passes.len(), 1, "one window pass, for the first band");
    let field = |name: &str| {
        let fields = passes[0].get("fields").expect("span fields");
        fields.get(name).and_then(|v| v.as_u64())
    };
    // The collection has more comparisons than the first band holds, so a
    // pull past the budget would have cut a second band.
    let (kept, weighed) = (field("kept").unwrap(), field("comparisons").unwrap());
    assert!(
        kept < weighed,
        "{weighed} comparisons fit the first band of {kept}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
