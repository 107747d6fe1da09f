//! The live scrape endpoint: a dependency-free HTTP/1.1 listener.
//!
//! [`serve()`](serve()) spawns one listener thread over [`std::net::TcpListener`] —
//! no async runtime, no HTTP crate — answering the four read-only
//! introspection routes of a running session:
//!
//! | route      | payload                                                |
//! |------------|--------------------------------------------------------|
//! | `/metrics` | Prometheus exposition text (the global registry)       |
//! | `/healthz` | `ok\n` — liveness                                      |
//! | `/buildz`  | build + host JSON ([`BuildInfo`] and [`HostInfo`])     |
//! | `/tracez`  | flight-recorder snapshot ([`RingSink::to_json`])       |
//!
//! Each accepted connection is handed to its own short-lived handler
//! thread, so a misbehaving client can never wedge the accept loop:
//! `/healthz` keeps answering while a slow-loris trickles header bytes
//! elsewhere. Handlers are bounded in *time*, not trust — the whole
//! request head must arrive within [`HEADER_DEADLINE`] (a cumulative
//! budget, not a per-read timeout that trickled bytes could reset
//! forever) and within [`MAX_HEADER_BYTES`], after which the connection
//! is dropped and `serve.client_errors` incremented. Responses close the
//! connection (`Connection: close`). The server only ever *reads* shared
//! state (the metrics registry, the ring buffer), so attaching it cannot
//! perturb emission.
//!
//! The listener's syscall boundaries carry failpoints (`serve.accept`,
//! `serve.read`, `serve.write`) for the fault harness in
//! [`crate::fault`].
//!
//! [`HostInfo`]: crate::profiling::HostInfo

use crate::profiling::HostInfo;
use crate::ring::RingSink;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cumulative budget for receiving a complete request head. A client
/// that trickles bytes slower than this is disconnected — per-read
/// timeouts alone would reset with every byte and never expire.
pub const HEADER_DEADLINE: Duration = Duration::from_secs(2);

/// Upper bound on request-head bytes; every real scrape request is a few
/// hundred bytes, so anything larger is dropped as a client error.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Static build identity reported by `/buildz`.
#[derive(Debug, Clone)]
pub struct BuildInfo {
    /// Crate version (`CARGO_PKG_VERSION` of the binary).
    pub version: String,
    /// Active similarity kernel path (e.g. `"simd"` or `"scalar"`).
    pub kernel: String,
}

/// Handle to a running scrape server. Dropping it shuts the listener
/// down and joins the thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    client_errors: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .field("requests", &self.requests())
            .field("client_errors", &self.client_errors())
            .finish()
    }
}

impl ObsServer {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (counted at accept, so a client that
    /// has seen its response close is guaranteed to be included).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Connections dropped for client misbehavior: malformed request
    /// lines, oversized or too-slow request heads (slow-loris), aborted
    /// sends. Also exported as the `serve.client_errors` counter when
    /// metrics are enabled.
    pub fn client_errors(&self) -> u64 {
        self.client_errors.load(Ordering::Relaxed)
    }

    /// Stops the listener and joins its thread. Idempotent. In-flight
    /// handler threads finish on their own (each is bounded by
    /// [`HEADER_DEADLINE`] + the write timeout); only the listening
    /// socket is released here.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept()`; a throwaway local
        // connection unblocks it so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the scrape server on `addr` (e.g. `"127.0.0.1:0"` for an
/// ephemeral port). The optional `ring` backs `/tracez`; without one the
/// route answers an empty snapshot.
pub fn serve(
    addr: impl ToSocketAddrs,
    build: BuildInfo,
    ring: Option<Arc<RingSink>>,
) -> std::io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let client_errors = Arc::new(AtomicU64::new(0));
    let thread_stop = Arc::clone(&stop);
    let thread_requests = Arc::clone(&requests);
    let thread_client_errors = Arc::clone(&client_errors);
    let handle = std::thread::Builder::new()
        .name("sper-obs-serve".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Injected accept failures drop the connection on the
                // floor — exactly what a refused accept looks like.
                if crate::fault::evaluate("serve.accept").is_some() {
                    continue;
                }
                // Count at accept time: by the time a client sees the
                // connection close (its read-to-EOF framing), the tally
                // already includes it.
                thread_requests.fetch_add(1, Ordering::Relaxed);
                let build = build.clone();
                let ring = ring.clone();
                let errors = Arc::clone(&thread_client_errors);
                // One short-lived thread per connection: the accept loop
                // must stay free so `/healthz` answers while a slow or
                // hostile client occupies its own handler. If the spawn
                // itself fails (thread exhaustion), the connection is
                // dropped — degraded, never wedged.
                let spawned = std::thread::Builder::new()
                    .name("sper-obs-conn".to_string())
                    .spawn(move || {
                        let _ = handle_connection(stream, &build, ring.as_deref(), &errors);
                    });
                if spawned.is_err() {
                    crate::event!(crate::Level::Warn, "serve.spawn_failed");
                }
            }
        })?;
    Ok(ObsServer {
        addr,
        stop,
        requests,
        client_errors,
        handle: Some(handle),
    })
}

/// Why a request head never materialized.
enum HeadError {
    /// The cumulative header deadline expired (slow-loris).
    TooSlow,
    /// The head exceeded [`MAX_HEADER_BYTES`].
    TooLarge,
    /// The client closed before completing the head.
    Closed,
    /// A real transport error.
    Io(std::io::Error),
}

/// Reads until the blank line ending the request head, under a
/// cumulative deadline and a size cap.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> Result<Vec<u8>, HeadError> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or(HeadError::TooSlow)?;
        stream
            .set_read_timeout(Some(remaining))
            .map_err(HeadError::Io)?;
        if let Err(e) = crate::fault::failpoint("serve.read") {
            return Err(HeadError::Io(e));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HeadError::Closed),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > MAX_HEADER_BYTES {
                    return Err(HeadError::TooLarge);
                }
                if head_complete(&buf) {
                    return Ok(buf);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(HeadError::TooSlow)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HeadError::Io(e)),
        }
    }
}

fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

fn handle_connection(
    mut stream: TcpStream,
    build: &BuildInfo,
    ring: Option<&RingSink>,
    client_errors: &AtomicU64,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let client_error = |status: u16, reason: &'static str| {
        client_errors.fetch_add(1, Ordering::Relaxed);
        crate::count!("serve.client_errors");
        crate::event!(
            crate::Level::Warn,
            "serve.client_error",
            status = status as u32,
            reason = reason
        );
    };
    let head = match read_head(&mut stream, Instant::now() + HEADER_DEADLINE) {
        Ok(head) => head,
        Err(HeadError::TooSlow) => {
            client_error(408, "header deadline exceeded");
            return respond(&mut stream, 408, "text/plain", "request timeout\n");
        }
        Err(HeadError::TooLarge) => {
            client_error(431, "request head too large");
            return respond(&mut stream, 431, "text/plain", "request head too large\n");
        }
        Err(HeadError::Closed) => {
            client_error(400, "closed before complete head");
            return Ok(());
        }
        Err(HeadError::Io(e)) => return Err(e),
    };
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        // A proper request line is exactly `METHOD PATH VERSION`.
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/") => (m, p),
        _ => {
            client_error(400, "malformed request line");
            return respond(&mut stream, 400, "text/plain", "bad request\n");
        }
    };
    if method != "GET" {
        client_error(405, "method not allowed");
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    // Ignore any query string: `/metrics?x=1` still scrapes.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let body = crate::metrics::global().to_prometheus();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/buildz" => respond(&mut stream, 200, "application/json", &buildz_json(build)),
        "/tracez" => {
            let body = match ring {
                Some(ring) => ring.to_json(),
                None => "{\"capacity\":0,\"dropped\":0,\"records\":[]}".to_string(),
            };
            respond(&mut stream, 200, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    crate::fault::failpoint("serve.write")?;
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn buildz_json(build: &BuildInfo) -> String {
    let host = HostInfo::probe();
    let mut out = String::with_capacity(256);
    out.push_str("{\"version\":");
    crate::trace::json_string(&mut out, &build.version);
    out.push_str(",\"kernel\":");
    crate::trace::json_string(&mut out, &build.kernel);
    out.push_str(",\"host\":{\"os\":");
    crate::trace::json_string(&mut out, host.os);
    out.push_str(",\"cores\":");
    out.push_str(&host.cores.to_string());
    out.push_str(",\"parallelism\":");
    out.push_str(&host.host_parallelism.to_string());
    out.push_str(",\"cpu_features\":[");
    for (i, feature) in host.cpu_features.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::trace::json_string(&mut out, feature);
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FieldValue, Level, Record, RecordKind, Sink};

    fn get(addr: SocketAddr, request: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        (status, head.to_string(), body.to_string())
    }

    fn get_path(addr: SocketAddr, path: &str) -> (u16, String, String) {
        get(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n"),
        )
    }

    fn test_build() -> BuildInfo {
        BuildInfo {
            version: "9.9.9-test".to_string(),
            kernel: "scalar".to_string(),
        }
    }

    /// Holds the failpoint registry's test lock with nothing armed. Every
    /// test here takes it (the fault test by arming its schedule): a
    /// connection accepted by a concurrently running serve test would
    /// otherwise consume the armed `serve.accept` fault.
    fn unarmed() -> crate::fault::Armed {
        crate::fault::arm_scoped("").expect("empty spec")
    }

    /// Polls until `server` has tallied at least `n` client errors —
    /// handler threads race the assertions otherwise.
    fn wait_client_errors(server: &ObsServer, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.client_errors() < n {
            assert!(Instant::now() < deadline, "client_errors stuck below {n}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn serves_health_build_and_404() {
        let _serial = unarmed();
        let mut server = serve("127.0.0.1:0", test_build(), None).expect("bind");
        let addr = server.addr();

        let (status, head, body) = get_path(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        assert!(head.contains("Connection: close"));

        let (status, _, body) = get_path(addr, "/buildz");
        assert_eq!(status, 200);
        assert!(body.contains("\"version\":\"9.9.9-test\""), "{body}");
        assert!(body.contains("\"kernel\":\"scalar\""), "{body}");
        assert!(body.contains("\"cores\":"), "{body}");

        let (status, _, _) = get_path(addr, "/nope");
        assert_eq!(status, 404);

        let requests_before = server.requests();
        assert!(requests_before >= 3);
        server.shutdown();
    }

    #[test]
    fn serves_metrics_and_rejects_post() {
        let _serial = unarmed();
        let mut server = serve("127.0.0.1:0", test_build(), None).expect("bind");
        let addr = server.addr();

        let (status, head, _) = get_path(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(head.contains("text/plain"), "{head}");

        let (status, _, _) = get(addr, "POST /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
        assert_eq!(status, 405);
        wait_client_errors(&server, 1);
        server.shutdown();
    }

    #[test]
    fn tracez_reflects_the_ring() {
        let _serial = unarmed();
        let ring = Arc::new(RingSink::new(8));
        ring.record(&Record {
            t_ns: 1,
            kind: RecordKind::Event,
            level: Level::Info,
            name: "serve.test",
            thread: 0,
            depth: 0,
            dur_ns: None,
            fields: vec![("n", FieldValue::U64(7))],
        });
        let mut server = serve("127.0.0.1:0", test_build(), Some(Arc::clone(&ring))).expect("bind");
        let (status, _, body) = get_path(server.addr(), "/tracez");
        assert_eq!(status, 200);
        assert!(body.contains("\"name\":\"serve.test\""), "{body}");
        assert!(body.starts_with("{\"capacity\":8,"), "{body}");

        // Without a ring the route still answers.
        server.shutdown();
        let mut bare = serve("127.0.0.1:0", test_build(), None).expect("bind");
        let (status, _, body) = get_path(bare.addr(), "/tracez");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"capacity\":0,\"dropped\":0,\"records\":[]}");
        bare.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let _serial = unarmed();
        let mut server = serve("127.0.0.1:0", test_build(), None).expect("bind");
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        // Port is released: a fresh bind on the same address succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after shutdown");
    }

    #[test]
    fn slow_loris_cannot_stall_healthz() {
        let _serial = unarmed();
        let mut server = serve("127.0.0.1:0", test_build(), None).expect("bind");
        let addr = server.addr();

        // A client that sends a partial request head and then stalls. The
        // old single-threaded handler would sit in read() on this socket
        // and every later scrape queued behind it.
        let mut loris = TcpStream::connect(addr).expect("connect");
        loris.write_all(b"GET /hea").expect("trickle");

        // /healthz must answer promptly while the loris still holds its
        // connection open — well inside the 2s header deadline.
        let t0 = Instant::now();
        let (status, _, body) = get_path(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "healthz stalled {:?} behind a slow-loris client",
            t0.elapsed()
        );

        // The loris is eventually cut off (408 or plain close) and
        // tallied as a client error — its handler thread does not leak
        // past the deadline.
        let mut leftovers = String::new();
        let _ = loris.read_to_string(&mut leftovers);
        wait_client_errors(&server, 1);
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_is_400_and_counted() {
        let _serial = unarmed();
        let mut server = serve("127.0.0.1:0", test_build(), None).expect("bind");
        let addr = server.addr();

        let (status, _, _) = get(addr, "THIS IS NOT HTTP AT ALL\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _, _) = get(addr, "GET\r\n\r\n");
        assert_eq!(status, 400);
        wait_client_errors(&server, 2);

        // The listener is unharmed.
        let (status, _, _) = get_path(addr, "/healthz");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn oversized_head_is_cut_off() {
        let _serial = unarmed();
        let mut server = serve("127.0.0.1:0", test_build(), None).expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let filler = format!(
            "GET /healthz HTTP/1.1\r\nX-Filler: {}\r\n",
            "x".repeat(2 * MAX_HEADER_BYTES)
        );
        // The server may cut us off mid-send (RST after it stops
        // reading); that is the success condition, not a test failure.
        let _ = stream.write_all(filler.as_bytes());
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(
            response.is_empty() || response.starts_with("HTTP/1.1 431"),
            "{response}"
        );
        wait_client_errors(&server, 1);
        server.shutdown();
    }

    #[test]
    fn injected_accept_fault_drops_the_connection() {
        let _armed = crate::fault::arm_scoped("serve.accept=1*err").expect("arm");
        let mut server = serve("127.0.0.1:0", test_build(), None).expect("bind");
        let addr = server.addr();
        // First connection is dropped by the injected accept failure;
        // read-to-EOF sees an immediate close with no bytes.
        let mut first = TcpStream::connect(addr).expect("connect");
        let _ = first.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut response = String::new();
        let _ = first.read_to_string(&mut response);
        assert_eq!(response, "", "injected accept fault should drop the conn");
        // The schedule is exhausted: the next scrape succeeds.
        let (status, _, _) = get_path(addr, "/healthz");
        assert_eq!(status, 200);
        server.shutdown();
    }
}
