//! Blackbox tests for the live-introspection surface: the `--listen`
//! scrape endpoint, the profiler exports, the `--progress`/verbosity
//! interplay, and the `sper report` HTML — all driven through the real
//! `sper` binary, the way an operator would use it.
//!
//! The one invariant everything here leans on: observability is a pure
//! observer. A run scraped mid-flight over HTTP must emit the exact
//! same comparison stream, bit for bit, as a run nobody watched.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn sper() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sper"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sper-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Issues a plain HTTP/1.1 GET against `addr` and returns (status line,
/// body). The server closes the connection after each response, so
/// read-to-end is the framing.
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: sper\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw.lines().next().unwrap_or_default().to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Runs `sper stream census` to completion with the given extra flags,
/// returning (stdout, stderr).
fn run_stream(extra: &[&str]) -> (String, String) {
    let out = sper()
        .args([
            "stream",
            "census",
            "--scale",
            "0.3",
            "--batches",
            "3",
            "--threads",
            "2",
        ])
        .args(extra)
        .output()
        .expect("spawn sper stream");
    assert!(
        out.status.success(),
        "sper stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Delays the first three stream epochs by 300 ms each, so a listened run
/// outlives the scrapes made against it.
const EPOCH_DELAY: &str = "session.epoch=3*delay(300)";

fn read_to_string(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scraping a live run over HTTP must not perturb it: the `--emit-pairs`
/// dump (pair ids + exact weight bits) from a listened-and-scraped run
/// is byte-identical to an unlistened one, and every endpoint answers
/// while the run is still in flight.
#[test]
fn scraped_run_is_bit_identical_and_endpoints_answer_mid_run() {
    let quiet_pairs = tmp("quiet-pairs.csv");
    run_stream(&["--emit-pairs", quiet_pairs.to_str().unwrap()]);
    let baseline = read_to_string(&quiet_pairs);
    assert!(!baseline.is_empty(), "baseline run emitted nothing");

    // The same workload, held in flight by delayed epochs: a delay does
    // not change emission, and it keeps the child alive until every
    // scrape below has been answered (a child that exits with a
    // connection still queued resets it).
    let live_pairs = tmp("live-pairs.csv");
    let mut child = sper()
        .args([
            "stream",
            "census",
            "--scale",
            "0.3",
            "--batches",
            "3",
            "--threads",
            "2",
        ])
        .args(["--failpoints", EPOCH_DELAY])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--emit-pairs", live_pairs.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sper stream --listen");

    let addr = wait_for_listen_line(&mut child);

    // The listener starts before any dataset generation or streaming
    // work, so the child must still be running when we scrape.
    assert!(
        child.try_wait().expect("try_wait").is_none(),
        "run finished before we could scrape it"
    );

    let (status, health) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "healthz: {status}");
    assert!(health.contains("ok"), "healthz body: {health}");

    let (status, metrics) = http_get(&addr, "/metrics");
    assert!(status.contains("200"), "metrics: {status}");
    assert!(
        metrics.contains("# TYPE"),
        "Prometheus exposition text needs TYPE comments: {metrics}"
    );

    let (status, build) = http_get(&addr, "/buildz");
    assert!(status.contains("200"), "buildz: {status}");
    for key in ["\"version\"", "\"kernel\"", "\"cores\"", "\"os\""] {
        assert!(build.contains(key), "buildz missing {key}: {build}");
    }

    let (status, tracez) = http_get(&addr, "/tracez");
    assert!(status.contains("200"), "tracez: {status}");
    for key in ["\"capacity\"", "\"dropped\"", "\"records\""] {
        assert!(tracez.contains(key), "tracez missing {key}: {tracez}");
    }

    let (status, _) = http_get(&addr, "/no-such-page");
    assert!(status.contains("404"), "unknown path: {status}");

    let out = child.wait_with_output().expect("wait for child");
    assert!(
        out.status.success(),
        "listened run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let live = read_to_string(&live_pairs);
    assert_eq!(
        baseline, live,
        "scraping a live run changed its emission stream"
    );
}

/// Hostile clients must not take the scrape endpoint down or perturb
/// the run: a slow-loris connection that trickles header bytes cannot
/// stall `/healthz` for other clients (per-connection handler threads +
/// a cumulative header deadline), and a malformed request line gets a
/// clean 400 instead of wedging the server. The run itself completes
/// successfully under both.
#[test]
fn hostile_clients_neither_stall_healthz_nor_kill_the_run() {
    let mut child = sper()
        .args([
            "stream",
            "census",
            "--scale",
            "0.3",
            "--batches",
            "3",
            "--threads",
            "2",
        ])
        .args(["--failpoints", EPOCH_DELAY])
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sper stream --listen");
    let addr = wait_for_listen_line(&mut child);

    // Slow loris: open a connection, send a header fragment, then stall.
    // The connection stays open while we talk to the server on others.
    let mut loris = TcpStream::connect(&addr).expect("connect loris");
    loris
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: s")
        .expect("write loris fragment");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // With the loris connection pending, a well-formed client must be
    // answered promptly — well inside the loris header deadline.
    let t0 = std::time::Instant::now();
    let (status, _) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "healthz behind a loris: {status}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "healthz stalled behind a slow-loris connection: {:?}",
        t0.elapsed()
    );

    // A request line that is not `METHOD PATH HTTP/...` is a 400.
    let mut bad = TcpStream::connect(&addr).expect("connect malformed");
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    bad.write_all(b"NOT-AN-HTTP-REQUEST\r\n\r\n")
        .expect("write malformed request");
    let mut raw = String::new();
    bad.read_to_string(&mut raw)
        .expect("read malformed response");
    assert!(
        raw.starts_with("HTTP/1.1 400"),
        "malformed request line should get 400: {raw:?}"
    );

    // The loris connection is cut off by the cumulative header deadline
    // with 408 — unless the run (and with it the server process) ended
    // first, in which case a bare close is equally acceptable.
    let mut loris_raw = String::new();
    let _ = loris.read_to_string(&mut loris_raw);
    assert!(
        loris_raw.is_empty() || loris_raw.starts_with("HTTP/1.1 408"),
        "loris should time out with 408 or be dropped: {loris_raw:?}"
    );

    let out = child.wait_with_output().expect("wait for child");
    assert!(
        out.status.success(),
        "run failed under hostile clients: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Reads the child's stderr until the `listening on ADDR` banner,
/// returns the bound address, and hands the rest of the stderr pipe to
/// a drain thread so the child never blocks on a full pipe.
fn wait_for_listen_line(child: &mut Child) -> String {
    let stderr = child.stderr.take().expect("stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read child stderr");
        assert!(n > 0, "child exited before announcing its listen address");
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    addr
}

/// `--trace FILE` alone must keep stderr silent: the file sink raising
/// the global threshold to Debug is not a license for the stderr sink
/// to start printing. With `-v`, stderr shows Info-level records but
/// still not the Debug-level ones that the file receives.
#[test]
fn trace_file_level_is_independent_of_stderr_verbosity() {
    // No -v: the trace file captures Debug records, stderr stays empty.
    let trace = tmp("quiet-trace.jsonl");
    let (_, stderr) = run_stream(&["--trace", trace.to_str().unwrap()]);
    let traced = read_to_string(&trace);
    assert!(
        traced.contains("\"cli.epoch_alloc\""),
        "file sink should receive Debug records: {traced}"
    );
    assert!(
        !stderr.contains("stream.epoch") && !stderr.contains("cli.epoch_alloc"),
        "--trace must not leak records to stderr: {stderr}"
    );

    // -v + --trace: stderr shows Info spans, but the Debug records that
    // land in the file never reach the terminal.
    let trace_v = tmp("verbose-trace.jsonl");
    let (_, stderr) = run_stream(&["-v", "--trace", trace_v.to_str().unwrap()]);
    assert!(
        stderr.contains("stream.epoch"),
        "-v should print Info spans to stderr: {stderr}"
    );
    assert!(
        !stderr.contains("cli.epoch_alloc") && !stderr.contains("parallel.worker"),
        "-v stderr must stay at Info even when a file sink wants Debug: {stderr}"
    );
    let traced_v = read_to_string(&trace_v);
    assert!(
        traced_v.contains("\"cli.epoch_alloc\""),
        "file sink still gets Debug alongside -v: {traced_v}"
    );

    // -vv: now the terminal asked for Debug explicitly.
    let (_, stderr) = run_stream(&["-vv"]);
    assert!(
        stderr.contains("cli.epoch_alloc"),
        "-vv should print Debug records to stderr: {stderr}"
    );
}

/// `--progress` renders via `\r` rewrites on a TTY; when stderr is a
/// pipe (as here) it must stay completely silent.
#[test]
fn progress_line_is_suppressed_when_stderr_is_not_a_tty() {
    let (_, stderr) = run_stream(&["--progress"]);
    assert!(
        !stderr.contains('\r'),
        "--progress must not write status lines to a non-TTY stderr: {stderr:?}"
    );
}

/// The profiler exports load in standard tooling: collapsed stacks obey
/// the `frames… <count>` grammar flamegraph.pl expects, and the Chrome
/// trace is a JSON object Perfetto can open.
#[test]
fn profiler_exports_follow_their_formats() {
    let collapsed = tmp("profile.folded");
    let chrome = tmp("trace.json");
    run_stream(&[
        "--profile",
        collapsed.to_str().unwrap(),
        "--chrome-trace",
        chrome.to_str().unwrap(),
    ]);

    let folded = read_to_string(&collapsed);
    assert!(!folded.trim().is_empty(), "collapsed profile is empty");
    for line in folded.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("collapsed line has no sample count: {line:?}"));
        assert!(
            count.parse::<u64>().is_ok(),
            "sample count must be an integer: {line:?}"
        );
        assert!(
            stack.split(';').all(|frame| !frame.is_empty()),
            "empty frame in stack: {line:?}"
        );
    }
    assert!(
        folded.lines().any(|l| l.contains(';')),
        "profile should contain at least one nested stack: {folded}"
    );

    let trace = read_to_string(&chrome);
    assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
    for key in [
        "\"traceEvents\"",
        "\"displayTimeUnit\"",
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
    ] {
        assert!(trace.contains(key), "chrome trace missing {key}");
    }
}

/// `sper report` fuses a trace (and metrics) into one HTML file with no
/// external references — it must open on an air-gapped machine.
#[test]
fn report_html_is_self_contained() {
    let trace = tmp("report-trace.jsonl");
    let metrics = tmp("report-metrics.json");
    run_stream(&[
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);

    let html_path = tmp("report.html");
    let out = sper()
        .args(["report", "--trace", trace.to_str().unwrap()])
        .args(["--metrics", metrics.to_str().unwrap()])
        .args(["--out", html_path.to_str().unwrap()])
        .output()
        .expect("spawn sper report");
    assert!(
        out.status.success(),
        "sper report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The report must not consume its own inputs: the trace it read is
    // intact afterwards (regression pin for the sink-vs-input mixup).
    assert!(
        read_to_string(&trace).contains("\"stream.epoch\""),
        "report truncated its input trace"
    );

    let html = read_to_string(&html_path);
    assert!(html.contains("<svg"), "report should inline SVG charts");
    assert!(html.contains("stream.epoch"), "hotspot table missing spans");
    assert!(
        !html.to_ascii_lowercase().contains("http"),
        "report references external resources"
    );
    assert!(
        !html.contains("<script"),
        "report should not need JavaScript"
    );
}

/// Hostile nesting in either report input is skipped like any other
/// malformed line or file: 200,000 nested `[` in a trace line and
/// 200,000 nested `{"a":` objects as the metrics file used to overflow
/// the stack (SIGABRT, exit 134).
#[test]
fn report_skips_pathologically_nested_inputs() {
    let span = r#"{"t":1000,"kind":"span","level":"info","name":"deep.survivor","thread":0,"depth":0,"dur_ns":5000,"fields":{}}"#;
    let deep_trace = tmp("deep-trace.jsonl");
    std::fs::write(&deep_trace, format!("{}\n{span}\n", "[".repeat(200_000))).unwrap();
    let plain_trace = tmp("plain-trace.jsonl");
    std::fs::write(&plain_trace, format!("{span}\n")).unwrap();
    let deep_metrics = tmp("deep-metrics.json");
    std::fs::write(&deep_metrics, "{\"a\":".repeat(200_000)).unwrap();

    for (trace, metrics) in [(&deep_trace, None), (&plain_trace, Some(&deep_metrics))] {
        let html_path = tmp("deep-report.html");
        let mut cmd = sper();
        cmd.args(["report", "--trace", trace.to_str().unwrap()]);
        if let Some(metrics) = metrics {
            cmd.args(["--metrics", metrics.to_str().unwrap()]);
        }
        let out = cmd
            .args(["--out", html_path.to_str().unwrap()])
            .output()
            .expect("spawn sper report");
        assert_eq!(
            out.status.code(),
            Some(0),
            "sper report on deep input ({}): {}",
            trace.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let html = read_to_string(&html_path);
        assert!(html.contains("deep.survivor"), "the valid span was lost");
        assert!(
            !html.contains("Latency percentiles"),
            "the deep metrics file should be skipped"
        );
    }
}
