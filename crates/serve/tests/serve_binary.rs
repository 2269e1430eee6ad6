//! The `lyric-serve` binary, driven as a child process: it serves the
//! paper's database on an ephemeral port and runs every query under the
//! interactive budget, so a query that exhausts the envelope is a
//! structured 400 naming the resource, not an unbounded run.

use lyric::trace::Json;
use lyric_serve::http_request;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStderr, Command, Stdio};

/// The running binary; killed when dropped, also when a check fails.
struct Served {
    child: Child,
    /// Kept open so that the server's later writes to stderr still land.
    _stderr: BufReader<ChildStderr>,
    addr: SocketAddr,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start the binary on an ephemeral port and read the bound address from
/// its startup banner (`lyric-serve: listening on http://ADDR (...)`).
fn start() -> Served {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lyric-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start lyric-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read the banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok());
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("no address in the banner {banner:?}");
    };
    Served {
        child,
        _stderr: stderr,
        addr,
    }
}

/// A WHERE `(φ)` conjoining `k` negated three-atom conjunctions over
/// fresh variables: each negation is a three-disjunct object, so their
/// product holds 3^k disjuncts, all satisfiable.
fn negation_product(k: usize) -> String {
    let negations: Vec<String> = (0..k)
        .map(|i| format!("NOT (a{i} >= 1 AND b{i} >= 1 AND c{i} >= 1)"))
        .collect();
    format!("SELECT X FROM Desk X WHERE ({})", negations.join(" AND "))
}

#[test]
fn binary_answers_and_bounds_every_query() {
    let served = start();
    let (status, body) = http_request(served.addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let paper = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";
    let (status, body) = http_request(served.addr, "POST", "/query", paper).expect("query");
    assert_eq!(status, 200, "{body}");
    let reply = lyric::trace::json::parse(&body).expect("reply is valid JSON");
    assert_eq!(reply.get("row_count").and_then(Json::as_f64), Some(1.0));

    // Ten negations multiply out to 3^10 = 59,049 disjuncts, past the
    // envelope's 20,000: the query analogue of negating a 12-disjunct DNF
    // under the disjunct budget.
    let query = negation_product(10);
    let (status, body) = http_request(served.addr, "POST", "/query", &query).expect("query");
    assert_eq!(status, 400, "{body}");
    let reply = lyric::trace::json::parse(&body).expect("error body is valid JSON");
    let msg = reply.get("error").and_then(Json::as_str).expect("error");
    assert!(
        msg.contains("evaluation budget exceeded: dnf disjuncts") && msg.contains("of limit 20000"),
        "{msg}"
    );

    // The server goes on answering.
    let (status, _) = http_request(served.addr, "POST", "/query", paper).expect("query");
    assert_eq!(status, 200);
}
