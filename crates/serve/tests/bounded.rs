//! The server stays bounded when its workers are busy: with every
//! evaluation permit held, `/healthz` still answers and one more query is
//! turned away with a 503; clients that drip their request head are
//! closed at the read deadline and cannot starve `/healthz`.
//!
//! Each server is bound with `threads` equal to the host's parallelism,
//! which leaves it one permit and two workers, so a small, fixed number
//! of client threads saturates it on any host.

use lyric::trace::Json;
use lyric::{EngineBudget, ExecOptions};
use lyric_bench::workload;
use lyric_serve::{http_request, Server, READ_DEADLINE};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The two tests time the server, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The server's permit count for `threads` engine threads per query,
/// derived as the server derives it.
fn permits(threads: usize) -> usize {
    (cores() / threads).max(1)
}

fn error_of(body: &str) -> String {
    let reply = lyric::trace::json::parse(body).expect("error body is valid JSON");
    reply
        .get("error")
        .and_then(Json::as_str)
        .expect("error member")
        .to_string()
}

#[test]
fn healthz_answers_and_excess_queries_get_503_while_every_permit_is_held() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The pairwise join over 128 objects with the box layer and the small
    // arithmetic off sends 16,256 pairs to the `BigInt` simplex: seconds
    // in a release build, far longer in a debug one, against a 2 s
    // deadline.
    let hold = Duration::from_secs(2);
    let threads = cores();
    let opts = ExecOptions::default()
        .with_threads(threads)
        .with_boxes(false)
        .with_arith_fast(false)
        .with_budget(EngineBudget::unlimited().with_deadline(hold));
    let db = Arc::new(workload::office_db(128, 42));
    let addr = Server::bind("127.0.0.1:0", db, opts)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("start the workers");
    let permits = permits(threads);
    let holder = workload::Q_PAIRWISE;
    let hash = format!(
        "{:016x}",
        lyric::metrics::querylog::query_hash(holder.trim())
    );
    let cheap = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";

    std::thread::scope(|s| {
        let holders: Vec<_> = (0..permits)
            .map(|_| s.spawn(move || http_request(addr, "POST", "/query", holder)))
            .collect();

        // Wait until every permit is held: the holders are in flight.
        let started = Instant::now();
        loop {
            let (status, body) = http_request(addr, "GET", "/debug/inflight", "").unwrap();
            assert_eq!(status, 200);
            let doc = lyric::trace::json::parse(&body).expect("inflight is valid JSON");
            let held = doc
                .get("queries")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter(|q| q.get("query_hash").and_then(Json::as_str) == Some(hash.as_str()))
                .count();
            if held == permits {
                break;
            }
            assert!(
                started.elapsed() < hold,
                "the holders never all got in flight"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // The spare worker answers liveness at once.
        let asked = Instant::now();
        let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(
            asked.elapsed() < Duration::from_millis(500),
            "/healthz took {:?} while every permit was held",
            asked.elapsed()
        );

        // One more query finds no permit.
        let (status, body) = http_request(addr, "POST", "/query", cheap).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(error_of(&body).contains("permit"), "{body}");

        // Each holder ends at the budget's deadline, a structured 400.
        for h in holders {
            let (status, body) = h.join().unwrap().expect("holder reply");
            assert_eq!(status, 400, "{body}");
            let msg = error_of(&body);
            assert!(
                msg.contains("evaluation budget exceeded: wall-clock time"),
                "{msg}"
            );
        }
    });

    // The permits are back.
    let (status, body) = http_request(addr, "POST", "/query", cheap).unwrap();
    assert_eq!(status, 200, "{body}");
}

/// Connect and send the first byte of a request head; the head is then
/// dripped one byte per 100 ms by [`drip_until_closed`], never finished.
fn drip_client(addr: SocketAddr) -> (TcpStream, Instant) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let connected = Instant::now();
    stream.write_all(b"G").expect("first byte");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    (stream, connected)
}

/// Drip bytes of an endless header until the server closes the
/// connection; returns how long after `connected` that was, or `None`
/// if it stayed open for `give_up`.
fn drip_until_closed(
    mut stream: TcpStream,
    connected: Instant,
    give_up: Duration,
) -> Option<Duration> {
    let head = b"ET /healthz HTTP/1.0\r\nX-Drip: ";
    let mut sent = 0;
    let mut buf = [0u8; 512];
    while connected.elapsed() < give_up {
        let byte = head.get(sent).copied().unwrap_or(b'a');
        sent += 1;
        if stream.write_all(&[byte]).is_err() {
            return Some(connected.elapsed());
        }
        // Waits up to 100 ms: the drip interval.
        match stream.read(&mut buf) {
            Ok(_) => return Some(connected.elapsed()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return Some(connected.elapsed()),
        }
    }
    None
}

#[test]
fn drip_fed_clients_are_closed_at_the_read_deadline_and_cannot_starve_healthz() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let threads = cores();
    let db = Arc::new(lyric::paper_example::database());
    let addr = Server::bind(
        "127.0.0.1:0",
        db,
        ExecOptions::default().with_threads(threads),
    )
    .expect("bind an ephemeral port")
    .spawn()
    .expect("start the workers");
    let workers = permits(threads) + 1;
    let slack = Duration::from_secs(1);

    // One client more than the pool has workers: that one waits in the
    // listen backlog until a worker frees, so its bound counts one more
    // read deadline.
    let clients: Vec<_> = (0..workers + 1).map(|_| drip_client(addr)).collect();
    std::thread::scope(|s| {
        let drippers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, (stream, connected))| {
                let bound = READ_DEADLINE * (1 + (i / workers) as u32) + slack;
                let closed = s.spawn(move || drip_until_closed(stream, connected, bound * 2));
                (bound, closed)
            })
            .collect();

        // A liveness probe behind them answers once the first of them
        // reaches its deadline.
        let asked = Instant::now();
        let (status, body) = http_request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(
            asked.elapsed() < READ_DEADLINE * 2,
            "/healthz behind {} drip-fed clients took {:?}",
            workers + 1,
            asked.elapsed()
        );

        for (i, (bound, closed)) in drippers.into_iter().enumerate() {
            let closed = closed.join().unwrap();
            assert!(
                closed.is_some_and(|after| after <= bound),
                "drip-fed client {i} closed after {closed:?}, bound {bound:?}"
            );
        }
    });
}
