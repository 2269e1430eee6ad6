//! A std-only HTTP server exposing the LyriC engine for scraping and
//! remote querying.
//!
//! Endpoints:
//!
//! * `GET /metrics` — the global metric registry in Prometheus text
//!   format 0.0.4 (`lyric::metrics::render_prometheus`);
//! * `GET /healthz` — liveness (`ok`);
//! * `GET /version` — build identity: crate version, git revision, and
//!   the host's available parallelism, as JSON;
//! * `GET /debug/inflight` — the in-flight query registry
//!   (`lyric::flight::inflight`): every currently-executing query with
//!   its live progress counters and percent-of-budget;
//! * `GET /debug/flight` — the flight recorder ring
//!   (`lyric::flight::recorder`): recent completed queries, each with
//!   the counters it consumed;
//! * `GET /debug/caches` — the engine's current context generation and
//!   the server database's store-index state;
//! * `POST /query` — the request body is either a raw LyriC `SELECT`
//!   statement or a JSON object `{"query": "...", "explain": bool}`,
//!   evaluated against the server's shared [`Database`] via
//!   [`execute_shared`] (with `ExecOptions::explain` set when `explain`
//!   is true, adding a `plan` member — the operator tree with runtime
//!   attribution); the response is a JSON object with `columns`,
//!   `row_count`, `rows` (oids as strings), `duration_ms`, and the
//!   per-query `stats` counters, or `{"error": ...}` with status 400.
//!   JSON bodies are validated strictly: unknown members, a non-string
//!   `query`, or a non-boolean `explain` are structured 400s.
//!
//! The implementation is deliberately minimal — the workspace builds
//! offline with no external crates (DESIGN.md §5) — so this is
//! `std::net::TcpListener`, HTTP/1.0-style request parsing (request
//! line, headers, `Content-Length` body), and `Connection: close` on
//! every response, sent in one write. That is all a Prometheus scraper
//! or a test client needs.
//!
//! Connections are served by a fixed pool of workers, each of which
//! calls `accept` on the one listener and answers the connection itself;
//! the kernel's listen backlog is the queue in front of them. The pool
//! holds one worker more than the server has evaluation permits
//! (`available_parallelism / ExecOptions::threads`, at least one): at
//! most that many `POST /query` evaluate at once, a query that finds
//! every permit held is answered `503` at once (and counted in
//! `lyric_serve_busy_total`), and the spare worker keeps `/healthz`,
//! `/metrics` and `/debug/*` answering while every permit is held. Each
//! connection must deliver its whole request within [`READ_DEADLINE`]
//! of its accept (else `408`), and each write of its reply may block
//! for at most a fixed write timeout. A panic while serving a connection
//! closes that connection; its worker goes on accepting.
//!
//! [`Server::bind`] on port 0 picks an ephemeral port, which is how the
//! tests and the benchmark in `perfbench/` drive an in-process instance.
//! When the options enable the store index, `bind` builds it, so no
//! query is charged for the build.

#![warn(missing_docs)]

use lyric::oodb::Database;
use lyric::trace::Json;
use lyric::{execute_shared, ExecOptions};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted request body (a query text), in bytes.
const MAX_BODY: usize = 1 << 20;
/// Longest accepted line of the request head (the request line or one
/// header line, terminator included), in bytes.
const MAX_LINE: usize = 8 << 10;
/// Most header lines accepted in one request.
const MAX_HEADERS: usize = 100;
/// Time a connection has to deliver its whole request, head and body,
/// counted from its accept. A client that sends nothing, or drips its
/// bytes, holds a worker at most this long and is then answered `408`.
pub const READ_DEADLINE: Duration = Duration::from_secs(2);
/// Longest one write of a reply may block on a client that does not
/// read it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause after a failed `accept` (for example `EMFILE`), so that a
/// worker waits for the condition to pass instead of spinning a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A bound server: the listener, the shared database, the per-query
/// execution options and the evaluation permits its workers share once
/// it runs.
pub struct Server {
    listener: TcpListener,
    db: Arc<Database>,
    opts: ExecOptions,
    /// Permits in all: as many queries as the host has cores for at
    /// `opts.threads` engine threads each, and at least one.
    permits: usize,
    /// Permits not held right now.
    free: AtomicUsize,
    /// `lyric_serve_busy_total`.
    busy: lyric::metrics::Counter,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port), serving
    /// queries against `db` under per-query options `opts`. When
    /// `opts.index` is set, the database's store index is built here.
    pub fn bind(addr: &str, db: Arc<Database>, opts: ExecOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        if opts.index {
            lyric::store::index_for(&db);
        }
        // The host's parallelism as `/version` reports it.
        let cores = lyric::metrics::build::host_parallelism();
        let permits = (cores / opts.threads.max(1)).max(1);
        Ok(Server {
            listener,
            db,
            opts,
            permits,
            free: AtomicUsize::new(permits),
            busy: lyric::metrics::global().counter(
                "lyric_serve_busy_total",
                "POST /query requests answered 503 because every evaluation permit was held.",
            ),
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve connections forever on a pool of one worker more than there
    /// are permits, the calling thread being one of them.
    pub fn run(self) -> std::io::Result<()> {
        let server = Arc::new(self);
        server.start(server.permits)?;
        server.work()
    }

    /// Start every worker of the pool on a detached thread, returning
    /// the bound address. Used by in-process clients (tests,
    /// `perfbench/`); the workers live until process exit.
    pub fn spawn(self) -> std::io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        let server = Arc::new(self);
        server.start(server.permits + 1)?;
        Ok(addr)
    }

    /// Start `n` workers on detached threads.
    fn start(self: &Arc<Self>, n: usize) -> io::Result<()> {
        for i in 0..n {
            let server = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("lyric-serve-{i}"))
                .spawn(move || server.work())?;
        }
        Ok(())
    }

    /// Accept and serve connections forever.
    fn work(&self) -> ! {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // A panic ends this connection, not the worker; the
                    // permit guard has given back its permit.
                    let _ = panic::catch_unwind(AssertUnwindSafe(|| self.serve(stream)));
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
    }

    /// Read one request from `stream`, answer it, and close.
    fn serve(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let mut reader = DeadlineReader {
            stream: &stream,
            deadline: Instant::now() + READ_DEADLINE,
            expired: false,
        };
        let reply = match read_request(&mut reader) {
            Ok(request) => self.respond(&request),
            Err(_) if reader.expired => Reply::error(
                408,
                format!(
                    "request not received within {} ms",
                    READ_DEADLINE.as_millis()
                ),
            ),
            Err(msg) => Reply::error(400, msg),
        };
        reply.send(&mut stream)
    }

    fn respond(&self, request: &Request) -> Reply {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Reply::new(200, "text/plain", "ok\n".to_string()),
            ("GET", "/metrics") => Reply::new(
                200,
                "text/plain; version=0.0.4",
                lyric::metrics::render_prometheus(),
            ),
            ("GET", "/version") => Reply::json(200, version_json()),
            ("GET", "/debug/inflight") => Reply::json(200, lyric::flight::inflight::to_json()),
            ("GET", "/debug/flight") => Reply::json(200, lyric::flight::recorder::to_json()),
            ("GET", "/debug/caches") => Reply::json(200, caches_json(&self.db)),
            ("POST", "/query") => self.query(&request.body),
            ("GET" | "POST", _) => Reply::json(
                404,
                Json::obj([
                    (
                        "error",
                        Json::str(format!("unknown path {:?}", request.path)),
                    ),
                    (
                        "endpoints",
                        Json::Arr(ENDPOINTS.iter().map(|e| Json::str(*e)).collect()),
                    ),
                ]),
            ),
            _ => Reply::new(405, "text/plain", String::new()),
        }
    }

    /// Answer `POST /query` under an evaluation permit, or `503` when
    /// every permit is held. The permit is given back before the reply
    /// is written, so a client that waits for each reply before sending
    /// its next request, on at most as many connections as there are
    /// permits, is never turned away.
    fn query(&self, body: &str) -> Reply {
        let Some(_permit) = Permit::take(&self.free) else {
            self.busy.inc();
            return Reply::error(
                503,
                format!(
                    "all {} evaluation permits are held; retry later",
                    self.permits
                ),
            );
        };
        match run_query(&self.db, &self.opts, body) {
            Ok(json) => Reply::json(200, json),
            Err(msg) => Reply::error(400, msg),
        }
    }
}

/// One held evaluation permit; dropping it, also while unwinding, gives
/// it back.
struct Permit<'a>(&'a AtomicUsize);

impl Permit<'_> {
    /// Take one of the `free` permits, if any is left.
    fn take(free: &AtomicUsize) -> Option<Permit<'_>> {
        free.fetch_update(Ordering::Acquire, Ordering::Relaxed, |n| n.checked_sub(1))
            .ok()
            .map(|_| Permit(free))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// A connection's reader, bounded by one deadline for the whole request:
/// each read waits at most the time left before it, so a client that
/// drips bytes cannot restart the clock.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    /// Set once a read has failed for want of time.
    expired: bool,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        let result = if left.is_zero() {
            Err(io::ErrorKind::TimedOut.into())
        } else {
            self.stream
                .set_read_timeout(Some(left))
                .and_then(|()| Read::read(&mut self.stream, buf))
        };
        if let Err(e) = &result {
            self.expired = matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            );
        }
        result
    }
}

/// A response, written in one piece by [`Reply::send`].
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Reply {
    fn new(status: u16, content_type: &'static str, body: String) -> Reply {
        Reply {
            status,
            content_type,
            body,
        }
    }

    fn json(status: u16, body: Json) -> Reply {
        Reply::new(status, "application/json", body.to_string())
    }

    /// A JSON `{"error": msg}` reply.
    fn error(status: u16, msg: String) -> Reply {
        Reply::json(status, Json::obj([("error", Json::str(msg))]))
    }

    /// Write the head and body with one `write_all`: a head and a body in
    /// two writes make the write-write-read pattern, in which Nagle's
    /// algorithm holds the body back until the client acknowledges the
    /// head, and a client may delay that acknowledgement.
    fn send(self, stream: &mut TcpStream) -> io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            503 => "Service Unavailable",
            _ => "",
        };
        let mut out = String::with_capacity(self.body.len() + 128);
        let _ = write!(
            out,
            "HTTP/1.0 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.content_type,
            self.body.len()
        );
        out.push_str(&self.body);
        stream.write_all(out.as_bytes())
    }
}

struct Request {
    method: String,
    path: String,
    body: String,
}

/// Read one line of the request head, terminator included; an empty
/// string at end of stream. A line that reaches [`MAX_LINE`] bytes without
/// its terminator is an error, and nothing past those bytes is read.
fn read_head_line(reader: &mut impl BufRead, what: &str) -> Result<String, String> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut line)
        .map_err(|e| format!("read {what}: {e}"))?;
    if line.len() == MAX_LINE && !line.ends_with(b"\n") {
        return Err(format!("{what} longer than {MAX_LINE} bytes"));
    }
    String::from_utf8(line).map_err(|_| format!("read {what}: stream did not contain valid UTF-8"))
}

fn read_request(stream: impl Read) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let line = read_head_line(&mut reader, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err("malformed request line".to_string());
    }
    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let header = read_head_line(&mut reader, "header")?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if headers == MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} header lines"));
        }
        headers += 1;
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("malformed Content-Length {:?}", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body too large ({content_length} bytes)"));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
    }
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// A validated `POST /query` request: the statement text plus the
/// explain flag from the JSON envelope (raw-text bodies never explain).
struct QueryRequest {
    query: String,
    explain: bool,
}

/// Parse a `POST /query` body. A body starting with `{` must be a JSON
/// object with a string `query` and an optional boolean `explain`, and
/// nothing else — unknown members are rejected so client typos
/// (`"expalin"`, `"qurey"`) fail loudly instead of silently running
/// without their option. Anything else is the legacy raw statement text.
fn parse_query_body(body: &str) -> Result<QueryRequest, String> {
    let trimmed = body.trim();
    if !trimmed.starts_with('{') {
        return Ok(QueryRequest {
            query: trimmed.to_string(),
            explain: false,
        });
    }
    let doc =
        lyric::trace::json::parse(trimmed).map_err(|e| format!("malformed JSON body: {e}"))?;
    let Json::Obj(pairs) = &doc else {
        return Err("JSON body must be an object".to_string());
    };
    let mut query: Option<String> = None;
    let mut explain = false;
    for (key, value) in pairs {
        match (key.as_str(), value) {
            ("query", Json::Str(s)) => query = Some(s.clone()),
            ("query", _) => return Err("\"query\" must be a string".to_string()),
            ("explain", Json::Bool(b)) => explain = *b,
            ("explain", _) => return Err("\"explain\" must be a boolean".to_string()),
            (other, _) => {
                return Err(format!(
                    "unknown member {other:?}; expected \"query\" and optional \"explain\""
                ))
            }
        }
    }
    let query = query.ok_or_else(|| "JSON body lacks a \"query\" member".to_string())?;
    Ok(QueryRequest { query, explain })
}

/// Evaluate one `POST /query` body and build the JSON reply; `Err`
/// carries the message for a 400 response.
fn run_query(db: &Database, opts: &ExecOptions, body: &str) -> Result<Json, String> {
    let req = parse_query_body(body)?;
    let src = req.query.trim();
    let opts = opts.clone().with_explain(req.explain);
    let started = Instant::now();
    let result = execute_shared(db, src, &opts).map_err(|e| e.to_string())?;
    let duration_ms = started.elapsed().as_secs_f64() * 1e3;
    let columns: Vec<Json> = result.columns.iter().map(Json::str).collect();
    let rows: Vec<Json> = result
        .rows
        .iter()
        .map(|row| Json::Arr(row.iter().map(|oid| Json::str(oid.to_string())).collect()))
        .collect();
    let mut reply = vec![
        ("columns".to_string(), Json::Arr(columns)),
        ("row_count".to_string(), Json::int(rows.len() as u64)),
        ("rows".to_string(), Json::Arr(rows)),
        ("duration_ms".to_string(), Json::Num(duration_ms)),
        ("stats".to_string(), result.stats.to_json()),
    ];
    if let Some(report) = &result.plan {
        reply.push(("plan".to_string(), report.to_json()));
    }
    Ok(Json::Obj(reply))
}

/// Every path the server answers, for the 404 body and the startup
/// banner.
pub const ENDPOINTS: [&str; 7] = [
    "GET /metrics",
    "GET /healthz",
    "GET /version",
    "GET /debug/inflight",
    "GET /debug/flight",
    "GET /debug/caches",
    "POST /query",
];

/// The `GET /version` body: build identity for correlating scrapes,
/// dumps, and log lines with a binary.
pub fn version_json() -> Json {
    Json::obj([
        ("version", Json::str(lyric::metrics::build::version())),
        ("git_rev", Json::str(lyric::metrics::build::git_rev())),
        (
            "host_parallelism",
            Json::int(lyric::metrics::build::host_parallelism() as u64),
        ),
    ])
}

/// The `GET /debug/caches` body: the engine's current context generation
/// and the state of the server database's store index.
fn caches_json(db: &Database) -> Json {
    let data_generation = db.data_generation();
    Json::obj([
        ("generation", Json::int(lyric::engine::generation())),
        (
            "index",
            Json::obj([
                ("data_generation", Json::int(data_generation)),
                (
                    "built",
                    Json::Bool(db.index_slot().get(data_generation).is_some()),
                ),
                ("objects", Json::int(db.num_objects() as u64)),
            ]),
        ),
    ])
}

/// A tiny HTTP/1.0 client for tests and benchmarks: send `method path`
/// with `body` to `addr`, returning `(status, body)`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let request = format!(
        "{method} {path} HTTP/1.0\r\nHost: lyric\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    read_reply(stream)
}

/// Read a reply to its end: `(status, body)`.
fn read_reply(mut stream: TcpStream) -> std::io::Result<(u16, String)> {
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = match response.find("\r\n\r\n") {
        Some(i) => response[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: &str = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";

    fn test_server() -> SocketAddr {
        let db = Arc::new(lyric::paper_example::database());
        let opts = ExecOptions::default().with_threads(2);
        Server::bind("127.0.0.1:0", db, opts)
            .expect("bind ephemeral port")
            .spawn()
            .expect("spawn accept loop")
    }

    #[test]
    fn healthz_and_unknown_paths() {
        let addr = test_server();
        let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        // Every listed endpoint is routed.
        for endpoint in ENDPOINTS {
            let (method, path) = endpoint.split_once(' ').unwrap();
            let body = if method == "POST" { Q } else { "" };
            let (status, reply) = http_request(addr, method, path, body).unwrap();
            assert_eq!(status, 200, "{endpoint}: {reply}");
        }
        // An unlisted path answers a structured JSON 404 that lists every
        // endpoint.
        let unknown = "/profiles";
        let (status, body) = http_request(addr, "GET", unknown, "").unwrap();
        assert_eq!(status, 404);
        let json = lyric::trace::json::parse(&body).expect("404 body is valid JSON");
        assert!(json
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains(unknown)));
        let endpoints: Vec<&str> = json
            .get("endpoints")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(endpoints, ENDPOINTS);
    }

    #[test]
    fn version_and_debug_surfaces_serve_valid_json() {
        let addr = test_server();
        let (status, body) = http_request(addr, "GET", "/version", "").unwrap();
        assert_eq!(status, 200);
        let json = lyric::trace::json::parse(&body).expect("version is valid JSON");
        for key in ["version", "git_rev", "host_parallelism"] {
            assert!(json.get(key).is_some(), "missing {key}");
        }

        // The build identity reaches the scrape as labels on a constant 1.
        lyric::metrics::build::register_build_info();
        let (status, body) = http_request(addr, "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        let scrape = lyric::metrics::prometheus::parse(&body).expect("scrape parses");
        let host_parallelism = lyric::metrics::build::host_parallelism().to_string();
        let labels = [
            ("git_rev", lyric::metrics::build::git_rev()),
            ("version", lyric::metrics::build::version()),
            ("host_parallelism", host_parallelism.as_str()),
        ];
        assert_eq!(
            lyric::metrics::prometheus::sample_value(&scrape, "lyric_build_info", &labels),
            Some(1.0)
        );

        // A query so the recorder ring has something to show.
        let (status, _) = http_request(addr, "POST", "/query", Q).unwrap();
        assert_eq!(status, 200);

        let (status, body) = http_request(addr, "GET", "/debug/flight", "").unwrap();
        assert_eq!(status, 200);
        let json = lyric::trace::json::parse(&body).expect("flight is valid JSON");
        let completed = json.get("queries").and_then(Json::as_arr).unwrap();
        assert!(!completed.is_empty(), "the ring holds the completed query");
        assert!(json.get("query_capacity").is_some());

        let (status, body) = http_request(addr, "GET", "/debug/inflight", "").unwrap();
        assert_eq!(status, 200);
        let json = lyric::trace::json::parse(&body).expect("inflight is valid JSON");
        assert!(json.get("inflight").is_some());

        let (status, body) = http_request(addr, "GET", "/debug/caches", "").unwrap();
        assert_eq!(status, 200);
        let json = lyric::trace::json::parse(&body).expect("caches is valid JSON");
        for key in ["generation", "index"] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let index = json.get("index").unwrap();
        for key in ["data_generation", "built", "objects"] {
            assert!(index.get(key).is_some(), "missing index.{key}");
        }
    }

    #[test]
    fn metrics_endpoint_serves_parseable_prometheus() {
        let addr = test_server();
        let (status, body) = http_request(addr, "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        lyric::metrics::prometheus::parse(&body).expect("scrape parses");
    }

    #[test]
    fn query_endpoint_answers_and_rejects() {
        let addr = test_server();
        let (status, body) = http_request(addr, "POST", "/query", Q).unwrap();
        assert_eq!(status, 200, "body: {body}");
        let json = lyric::trace::json::parse(&body).expect("response is valid JSON");
        assert!(json.get("row_count").is_some());
        assert!(json.get("stats").is_some());

        let (status, body) = http_request(addr, "POST", "/query", "SELECT nonsense ???").unwrap();
        assert_eq!(status, 400);
        let json = lyric::trace::json::parse(&body).expect("error body is valid JSON");
        assert!(json.get("error").is_some());
    }

    #[test]
    fn json_bodies_run_and_explain() {
        let addr = test_server();
        // JSON envelope without explain: same answer shape as raw text.
        let body = "{\"query\": \"SELECT Y FROM Desk X WHERE X.drawer.extent[Y]\"}";
        let (status, reply) = http_request(addr, "POST", "/query", body).unwrap();
        assert_eq!(status, 200, "body: {reply}");
        let json = lyric::trace::json::parse(&reply).unwrap();
        assert!(json.get("plan").is_none(), "no plan unless explain=true");

        // explain=true adds a validated plan document.
        let body =
            "{\"query\": \"SELECT Y FROM Desk X WHERE X.drawer.extent[Y]\", \"explain\": true}";
        let (status, reply) = http_request(addr, "POST", "/query", body).unwrap();
        assert_eq!(status, 200, "body: {reply}");
        let json = lyric::trace::json::parse(&reply).unwrap();
        let plan = json.get("plan").expect("explain=true returns a plan");
        lyric::trace::plan::validate_plan_json(&plan.to_string()).expect("plan validates");
        assert!(plan.get("total_us").is_some(), "plan is analyzed");
    }

    /// With the store index on, `bind` builds it: `/debug/caches` reads
    /// `built` before any query, and the first reply to a probe carries
    /// the same counters as the second, so no query pays for the build.
    #[test]
    fn store_index_is_built_at_bind() {
        let db = Arc::new(lyric_bench::workload::scaling_db(2_000, 42));
        let opts = ExecOptions::default().with_threads(1).with_index(true);
        let addr = Server::bind("127.0.0.1:0", db, opts)
            .expect("bind ephemeral port")
            .spawn()
            .expect("spawn workers");
        let (status, body) = http_request(addr, "GET", "/debug/caches", "").unwrap();
        assert_eq!(status, 200);
        let caches = lyric::trace::json::parse(&body).expect("caches is valid JSON");
        let built = caches.get("index").and_then(|index| index.get("built"));
        assert_eq!(built, Some(&Json::Bool(true)), "{body}");

        let probe = lyric_bench::workload::q_weight_eq(1_234);
        let stats = || {
            let (status, reply) = http_request(addr, "POST", "/query", &probe).unwrap();
            assert_eq!(status, 200, "{reply}");
            let reply = lyric::trace::json::parse(&reply).expect("reply is valid JSON");
            reply.get("stats").cloned().expect("reply carries stats")
        };
        let first = stats();
        for name in lyric::trace::stats::COUNTER_NAMES {
            assert!(first.get(name).is_some(), "stats lack {name}");
        }
        assert_eq!(first, stats(), "the first query pays nothing extra");
    }

    /// Send the raw bytes of a request, then close the sending half and
    /// read the reply.
    fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        read_reply(stream).unwrap()
    }

    /// The error message of a JSON 400 reply to the raw `request`. Each
    /// request ends where the server stops reading, so the server has read
    /// every byte before it replies and its close cannot reset the
    /// connection under the reply.
    fn rejected(addr: SocketAddr, request: &str) -> String {
        let (status, body) = exchange(addr, request);
        assert_eq!(status, 400, "{body}");
        let json = lyric::trace::json::parse(&body).expect("error body is valid JSON");
        json.get("error")
            .and_then(Json::as_str)
            .expect("error member")
            .to_string()
    }

    #[test]
    fn request_head_lines_are_capped() {
        let addr = test_server();
        // A header line that reaches the cap without its terminator.
        let head = "GET /healthz HTTP/1.0\r\n";
        let name = "X-Long: ";
        let request = format!("{head}{name}{}", "a".repeat(MAX_LINE - name.len()));
        let msg = rejected(addr, &request);
        assert!(msg.contains("header longer than"), "{msg}");
        // So does the request line.
        let msg = rejected(addr, &format!("GET /{}", "a".repeat(MAX_LINE - 5)));
        assert!(msg.contains("request line longer than"), "{msg}");
        // The server still answers on a new connection.
        let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
    }

    #[test]
    fn request_header_count_is_capped() {
        let addr = test_server();
        let headers: String = (0..MAX_HEADERS).map(|i| format!("X-H{i}: v\r\n")).collect();
        // The cap itself is accepted.
        let at_cap = format!("GET /healthz HTTP/1.0\r\n{headers}\r\n");
        assert_eq!(exchange(addr, &at_cap).0, 200);
        let over = format!("GET /healthz HTTP/1.0\r\n{headers}X-Over: v\r\n");
        let msg = rejected(addr, &over);
        assert!(msg.contains("header lines"), "{msg}");
    }

    /// A client that stops partway through its head is answered 408 once
    /// the read deadline has passed, and the connection is closed.
    #[test]
    fn unfinished_request_times_out_with_408() {
        let addr = test_server();
        // Taken before the connection exists, so before its accept.
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.0\r\n").unwrap();
        let (status, body) = read_reply(stream).unwrap();
        let waited = started.elapsed();
        assert_eq!(status, 408, "{body}");
        let json = lyric::trace::json::parse(&body).expect("error body is valid JSON");
        assert!(json.get("error").and_then(Json::as_str).is_some());
        // The socket timeout is set in whole microseconds, so allow the
        // lower bound a little.
        let early = Duration::from_millis(10);
        assert!(
            waited + early >= READ_DEADLINE && waited < READ_DEADLINE + Duration::from_secs(1),
            "answered after {waited:?}"
        );
    }

    #[test]
    fn non_numeric_content_length_is_rejected() {
        let addr = test_server();
        let msg = rejected(addr, "GET /healthz HTTP/1.0\r\nContent-Length: abc\r\n");
        assert!(msg.contains("Content-Length"), "{msg}");
    }

    #[test]
    fn malformed_json_bodies_are_structured_400s() {
        let addr = test_server();
        for (body, needle) in [
            (
                "{\"query\": \"SELECT D FROM Desk D\", \"expalin\": true}",
                "unknown member",
            ),
            (
                "{\"query\": \"SELECT D FROM Desk D\", \"explain\": 1}",
                "must be a boolean",
            ),
            ("{\"query\": 42}", "must be a string"),
            ("{\"explain\": true}", "lacks a \"query\""),
            ("{\"query\": \"SELECT D FROM Desk D\"", "malformed JSON"),
        ] {
            let (status, reply) = http_request(addr, "POST", "/query", body).unwrap();
            assert_eq!(status, 400, "body {body:?} should be rejected: {reply}");
            let json = lyric::trace::json::parse(&reply).expect("error body is valid JSON");
            let msg = json
                .get("error")
                .and_then(Json::as_str)
                .expect("error member");
            assert!(msg.contains(needle), "{body:?}: {msg}");
        }
    }
}
