//! Persistence perf harness: times loading a `.sper` snapshot against the
//! cold substrate rebuild it replaces, and the checkpoint save/load cycle
//! of a mid-stream session, emitting `BENCH_store.json` — the baseline
//! future PRs compare against.
//!
//! ```text
//! cargo run -q --release -p sper-bench --bin bench_store            # full run
//! cargo run -q --release -p sper-bench --bin bench_store -- --quick # CI smoke
//! cargo run -q --release -p sper-bench --bin bench_store -- --out x.json
//! ```
//!
//! Each measurement is the median of `iters` wall-clock runs (quick: 3,
//! full: 7) on the movies twin:
//!
//! * **cold rebuild** — token blocking + cardinality scheduling + profile
//!   index + neighbor list from raw profiles (tokenize, hash, sort);
//! * **snapshot write / load** — the same substrates through the store's
//!   sectioned binary format (array dumps + CRC32, no tokenization);
//! * **checkpoint write / load** — a budgeted PPS streaming session saved
//!   mid-run by `CheckpointWriter::save` (encoded from the live session,
//!   streamed to a temp directory, fsynced, rotated) and parsed back.
//!
//! The loaded substrates are verified bit-identical to the built ones, so
//! the recorded speedup is for an exact replacement, not an approximation,
//! and the saved checkpoint is verified byte-identical to the encoding of
//! the session's owned copy.

use serde::Serialize;
use sper_bench::peak_bytes;
use sper_blocking::{NeighborList, ProfileIndex, TokenBlocking};
use sper_core::ProgressiveMethod;
use sper_datagen::{DatasetKind, DatasetSpec};
use sper_obs::{event, Level};
use sper_store::{CheckpointOutcome, CheckpointWriter, SessionCheckpoint, Snapshot, Store};
use sper_stream::{ProgressiveSession, SessionConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    dataset: String,
    n_profiles: usize,
    iters: usize,
    host: sper_obs::HostInfo,
    stamp: sper_obs::RunStamp,
    /// Tokenize + block + schedule + index + neighbor-list, from raw
    /// profiles.
    cold_rebuild_ms: f64,
    /// High-water allocation of one cold rebuild, bytes.
    cold_rebuild_peak_bytes: usize,
    /// Serializing the same substrates to the sectioned store (in
    /// memory; the file write adds only the page-cache copy).
    snapshot_write_ms: f64,
    /// Parsing + validating + reassembling the substrates from bytes.
    snapshot_load_ms: f64,
    /// High-water allocation of one snapshot load, bytes.
    snapshot_load_peak_bytes: usize,
    /// `cold_rebuild_ms / snapshot_load_ms` — the acceptance-bar number.
    load_speedup_vs_rebuild: f64,
    /// Snapshot size on disk.
    snapshot_bytes: usize,
    /// Loaded substrates verified bit-identical to the built ones.
    identical: bool,
    /// Mid-stream session → committed checkpoint file, through
    /// `CheckpointWriter::save`: encode from the live session, streamed
    /// write to a temp directory, fsyncs and rotation.
    checkpoint_write_ms: f64,
    /// High-water allocation of one checkpoint save, bytes.
    checkpoint_write_peak_bytes: usize,
    /// The saved file equals the bytes encoded from the session's owned
    /// copy (`SessionCheckpoint::of`).
    checkpoint_identical: bool,
    /// Store bytes → validated, resumable session state.
    checkpoint_load_ms: f64,
    /// High-water allocation of one checkpoint load, bytes.
    checkpoint_load_peak_bytes: usize,
    /// Checkpoint size.
    checkpoint_bytes: usize,
    /// Epochs the checkpointed session had completed.
    checkpoint_epochs: usize,
}

fn median_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    times[times.len() / 2]
}

fn main() {
    sper_bench::init_obs();
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_store.json")
        .to_string();
    let iters = if quick { 3 } else { 7 };
    let scale = if quick { 0.1 } else { 0.5 };

    let data = DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(scale)
        .generate();
    let profiles = &data.profiles;
    event!(
        Level::Info,
        "bench_store.start",
        dataset = "movies",
        profiles = profiles.len(),
        iters = iters,
    );

    // --- Cold rebuild: what a restart pays without the store ---
    let build = || {
        let mut blocks = TokenBlocking::default().build(profiles);
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let nl = NeighborList::build(profiles, 42);
        (blocks, index, nl)
    };
    let ((blocks, index, nl), cold_rebuild_peak_bytes) = peak_bytes(build);
    let cold_rebuild_ms = median_ms(iters, || {
        std::hint::black_box(build());
    });

    // --- Snapshot write / load ---
    let make_snapshot = || {
        let mut s = Snapshot::new(Arc::clone(blocks.interner()));
        s.profiles = Some(profiles.clone());
        s.blocks = Some(blocks.clone());
        s.profile_index = Some(index.clone());
        s.neighbor_list = Some(nl.clone());
        s
    };
    let bytes = make_snapshot()
        .to_store()
        .expect("substrates share one interner")
        .to_bytes();
    let snapshot_bytes = bytes.len();
    let snapshot_write_ms = median_ms(iters, || {
        std::hint::black_box(
            make_snapshot()
                .to_store()
                .expect("substrates share one interner")
                .to_bytes(),
        );
    });
    let snapshot_load_ms = median_ms(iters, || {
        let store = Store::from_bytes(&bytes).expect("clean bytes parse");
        std::hint::black_box(Snapshot::from_store(&store).expect("clean snapshot loads"));
    });
    let (_, snapshot_load_peak_bytes) = peak_bytes(|| {
        let store = Store::from_bytes(&bytes).expect("clean bytes parse");
        Snapshot::from_store(&store).expect("clean snapshot loads")
    });

    // --- Identity: the load is an exact replacement for the rebuild ---
    let loaded = Snapshot::from_store(&Store::from_bytes(&bytes).expect("parses")).expect("loads");
    let identical = {
        let a = blocks.raw_parts();
        let b = loaded.blocks.as_ref().expect("blocks stored").raw_parts();
        let l_index = loaded.profile_index.as_ref().expect("index stored");
        let l_nl = loaded.neighbor_list.as_ref().expect("nl stored");
        a.keys == b.keys
            && a.offsets == b.offsets
            && a.members == b.members
            && a.n_firsts == b.n_firsts
            && index.raw_parts() == l_index.raw_parts()
            && nl.as_slice() == l_nl.as_slice()
    };

    // --- Checkpoint save / load of a mid-stream session ---
    let mut session = ProgressiveSession::new(
        sper_model::ProfileCollectionBuilder::dirty().build(),
        SessionConfig::new(ProgressiveMethod::Pps),
    );
    let rows: Vec<Vec<sper_model::Attribute>> =
        profiles.iter().map(|p| p.attributes.clone()).collect();
    for chunk in rows.chunks(rows.len().div_ceil(3).max(1)) {
        session.ingest_batch(chunk.to_vec());
        session.emit_epoch(Some(500));
    }
    let checkpoint_epochs = session.reports().len();
    let ck_dir = std::env::temp_dir().join(format!("sper-bench-store-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&ck_dir) {
        eprintln!("error: {}: {e}", ck_dir.display());
        std::process::exit(1);
    }
    let mut writer = CheckpointWriter::new(ck_dir.join("session.sper"));
    let mut save = || {
        let outcome = writer.save(&session).expect("checkpoint saves");
        assert_eq!(outcome, CheckpointOutcome::Saved);
    };
    let checkpoint_write_ms = median_ms(iters, &mut save);
    let ((), checkpoint_write_peak_bytes) = peak_bytes(save);
    let ck_bytes = std::fs::read(writer.path()).expect("saved checkpoint reads");
    let _ = std::fs::remove_dir_all(&ck_dir);
    let checkpoint_bytes = ck_bytes.len();
    let checkpoint_identical = ck_bytes == SessionCheckpoint::of(&session).to_store().to_bytes();
    let checkpoint_load_ms = median_ms(iters, || {
        let store = Store::from_bytes(&ck_bytes).expect("clean bytes parse");
        std::hint::black_box(
            SessionCheckpoint::from_store(&store).expect("clean checkpoint loads"),
        );
    });
    let (_, checkpoint_load_peak_bytes) = peak_bytes(|| {
        let store = Store::from_bytes(&ck_bytes).expect("clean bytes parse");
        SessionCheckpoint::from_store(&store).expect("clean checkpoint loads")
    });

    let report = Report {
        dataset: "movies".into(),
        n_profiles: profiles.len(),
        iters,
        host: sper_bench::host_info(),
        stamp: sper_bench::run_stamp(),
        cold_rebuild_ms,
        cold_rebuild_peak_bytes,
        snapshot_write_ms,
        snapshot_load_ms,
        snapshot_load_peak_bytes,
        load_speedup_vs_rebuild: cold_rebuild_ms / snapshot_load_ms,
        snapshot_bytes,
        identical,
        checkpoint_write_ms,
        checkpoint_write_peak_bytes,
        checkpoint_identical,
        checkpoint_load_ms,
        checkpoint_load_peak_bytes,
        checkpoint_bytes,
        checkpoint_epochs,
    };
    println!(
        "cold rebuild      {:>9.3} ms\nsnapshot write    {:>9.3} ms\nsnapshot load     {:>9.3} ms   ({:.2}x faster than rebuild)\nsnapshot size     {:>9} bytes   identical {}\ncheckpoint write  {:>9.3} ms   identical {}\ncheckpoint load   {:>9.3} ms\ncheckpoint size   {:>9} bytes   ({} epochs)",
        report.cold_rebuild_ms,
        report.snapshot_write_ms,
        report.snapshot_load_ms,
        report.load_speedup_vs_rebuild,
        report.snapshot_bytes,
        report.identical,
        report.checkpoint_write_ms,
        report.checkpoint_identical,
        report.checkpoint_load_ms,
        report.checkpoint_bytes,
        report.checkpoint_epochs,
    );
    if let Err(e) = std::fs::write(&out, serde::json::to_string(&report)) {
        eprintln!("error: {out}: {e}");
        std::process::exit(1);
    }
    event!(Level::Info, "bench_store.wrote", path = out.as_str());
}
