//! End-to-end and per-layer benchmark of the LyriC engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload served|index --seed N --seconds S --trace 0|1
//! ```
//!
//! Both workloads are read-only traffic to in-process `lyric-serve`
//! instances (`POST /query`, ephemeral ports), as `lyric-serve --db`
//! answers it, from one closed-loop client; engine threads are fixed at 1
//! and the whole process runs on one CPU.
//!
//! * `served` — the two query shapes of EXPERIMENTS.md E2, the §5
//!   data-complexity experiment, alternating one for one as E2 times
//!   them: a scan over E2's largest linear size (128 objects in its
//!   200 × 100 room; one binding and one satisfiability check per
//!   object) and a pairwise join (quadratic bindings, interval-box
//!   pruning in front of the LP). Each request restricts its shape to a
//!   random window, so requests differ. No store index can answer these.
//! * `index` — the three probe shapes of E16 (weight equality, weight
//!   range, region window), in equal shares, on 5000 items: each
//!   answered through the store index.
//!
//! Every answer is checked against an integer oracle computed from the
//! generated inputs. Set-up (load each database from its text dump,
//! build its store index, bind its listener) is repeated, spread over
//! the run, and its median reported. The last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.
//!
//! The end-to-end times are scaled to a fixed host speed. A shared host's
//! speed can drop by a third for seconds to minutes at a time, and that
//! moves raw times from run to run by more than any bound a regression
//! check can use. So right after each request, and around each set-up,
//! the benchmark runs a reference computation that uses no LyriC code
//! and times it in thread CPU time. Each time is reported as if the
//! reference had taken [`REFERENCE_MS`]: request latency as the run's
//! total latency over its total reference time (so it is a mean), set-up
//! as the median of each set-up over its own reference time. A change to
//! the program moves these figures as it moves raw times; a change of
//! host speed moves both sides of each ratio and cancels.
//!
//! The traced run splits each request into layers that do not overlap:
//! parse and analyze (the same calls the server makes, timed here on the
//! request text), evaluation (the server's reported `duration_ms` minus
//! those two), and HTTP (round trip minus `duration_ms`: connect, the
//! server's connection thread, JSON encoding and transfer). Set-up is
//! split into loading and index building. It also averages the engine's
//! per-query work counters. Its latencies include the extra front-end
//! calls, so end-to-end figures come from untraced runs only.

mod gen;

use gen::{Items, Query, Rng};
use lyric::oodb::Database;
use lyric::trace::json::{self, Json};
use lyric::ExecOptions;
use lyric_serve::{http_request, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported. The first precedes the
/// measured period and the rest are spread evenly over it, so the median
/// does not hang on one moment's machine load. Single set-ups of the
/// `index` database vary by ±30% within a run, hence this many.
const SETUP_REPEATS: u32 = 41;
/// Object count and room of the served scan's office: E2's largest
/// linear size in E2's room.
const SCAN_OFFICE: (usize, (i64, i64)) = (128, (200, 100));
/// Object count and room of the served join's office: E2's smallest
/// size at which its pairwise query finds overlaps, crowded into a
/// smaller room. In E2's room a windowed join almost never holds a pair
/// (none in 30 requests at 24 objects), so its answers would check
/// nothing and no pair would reach the LP; here most windows hold some.
const JOIN_OFFICE: (usize, (i64, i64)) = (16, (48, 24));
/// Items in the database of the `index` workload: far fewer than E16's
/// 10⁵, so that one set-up (load plus index build) takes about 0.2 s
/// and can be repeated within a run.
const INDEX_ITEMS: usize = 5_000;
/// Keys sorted by one run of the reference computation.
const REFERENCE_KEYS: usize = 8192;
/// The time the reference computation is scaled to: about its thread CPU
/// time on a 2-vCPU x86-64 cloud host at that host's usual speed, so the
/// scaled figures read close to real milliseconds there.
const REFERENCE_MS: f64 = 0.2;
/// Untimed requests after set-up, so lazy structures are built.
const WARMUP_REQUESTS: usize = 10;

/// Engine counters reported per layer, as a mean per query: the work of
/// the satisfiability layers (interval box, memo, simplex) and the index.
const COUNTERS: [&str; 9] = [
    "sat_checks",
    "box_checks",
    "box_prunes",
    "cache_hits",
    "cache_misses",
    "lp_runs",
    "pivots",
    "index_probes",
    "index_pruned",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One served database: its text dump and the stream of queries drawn
/// against it.
struct Stream<'a> {
    dump: String,
    next: Box<dyn Fn(&mut Rng) -> Query + 'a>,
}

/// Everything one run measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    latency_ms: Vec<f64>,
    /// Time of the reference computation run right after each request
    /// in `latency_ms`, paired by index.
    latency_ref_ms: Vec<f64>,
    setup_s: Vec<f64>,
    /// Reference time measured around each set-up in `setup_s`.
    setup_ref_ms: Vec<f64>,
    // Per-layer samples, filled only with --trace 1.
    load_ms: Vec<f64>,
    index_build_ms: Vec<f64>,
    parse_us: Vec<f64>,
    analyze_us: Vec<f64>,
    eval_ms: Vec<f64>,
    http_ms: Vec<f64>,
    response_bytes: Vec<f64>,
    queries: u64,
    counters: BTreeMap<&'static str, u64>,
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Run the reference computation once and return its thread CPU time in
/// milliseconds. It uses no LyriC code — it sorts a fixed pseudo-random
/// array and fills an ordered map from it — so its time tracks only the
/// speed of the host at that moment.
fn reference_ms() -> f64 {
    let started = thread_cpu_ms();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u64> = (0..REFERENCE_KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, usize> = keys
        .iter()
        .step_by(4)
        .enumerate()
        .map(|(i, k)| (*k, i))
        .collect();
    std::hint::black_box(map);
    thread_cpu_ms() - started
}

/// Load every database, build its store index and bind a listener for
/// it: one timed set-up. The servers are returned unstarted.
fn set_up(t: &mut Tally, streams: &[Stream]) -> Result<Vec<(Arc<Database>, Server)>, String> {
    let ref_before = reference_ms();
    let started = Instant::now();
    let (mut load_ms, mut index_build_ms) = (0.0, 0.0);
    let mut servers = Vec::with_capacity(streams.len());
    for s in streams {
        let step = Instant::now();
        let db = lyric::storage::load(&s.dump).map_err(|e| format!("load database: {e}"))?;
        load_ms += ms_since(step);
        let step = Instant::now();
        lyric::store::index_for(&db);
        index_build_ms += ms_since(step);
        let db = Arc::new(db);
        let opts = ExecOptions::default().with_threads(1);
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&db), opts).map_err(|e| format!("bind: {e}"))?;
        servers.push((db, server));
    }
    t.setup_s.push(started.elapsed().as_secs_f64());
    t.setup_ref_ms.push((ref_before + reference_ms()) / 2.0);
    t.load_ms.push(load_ms);
    t.index_build_ms.push(index_build_ms);
    Ok(servers)
}

/// Time the parser and analyzer on the request text: the front end the
/// server runs before evaluating. Returns their total in milliseconds.
fn front_end_layers(t: &mut Tally, db: &Database, src: &str) -> f64 {
    let started = Instant::now();
    let parsed = lyric::parse_query(src);
    let parse_ms = ms_since(started);
    t.parse_us.push(parse_ms * 1e3);
    let Ok(q) = parsed else {
        return parse_ms;
    };
    let started = Instant::now();
    let diags = lyric::analyze(db.schema(), &q, &lyric::AnalyzerOptions::default());
    let analyze_ms = ms_since(started);
    t.analyze_us.push(analyze_ms * 1e3);
    std::hint::black_box(diags);
    parse_ms + analyze_ms
}

/// Parse a `POST /query` reply, compare its rows with the oracle and
/// count the engine work it reports; returns the server's `duration_ms`.
fn check_reply(q: &Query, body: &str, t: &mut Tally) -> Result<f64, String> {
    let doc = json::parse(body).map_err(|e| format!("reply is not JSON ({e}): {body}"))?;
    let rows: BTreeSet<String> = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("reply has no rows: {body}"))?
        .iter()
        .map(|row| {
            let cells = row.as_arr().unwrap_or_default();
            let cells: Vec<&str> = cells.iter().map(|c| c.as_str().unwrap_or("?")).collect();
            cells.join(",")
        })
        .collect();
    if rows != q.expected {
        return Err(format!(
            "wrong answer ({} rows, expected {}) for: {}",
            rows.len(),
            q.expected.len(),
            q.text
        ));
    }
    t.queries += 1;
    let stats = doc.get("stats");
    for name in COUNTERS {
        let n = stats.and_then(|s| s.get(name)).and_then(Json::as_f64);
        *t.counters.entry(name).or_default() += n.unwrap_or(0.0) as u64;
    }
    doc.get("duration_ms")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("reply has no duration_ms: {body}"))
}

/// Post one query to the server at `addr`, which serves `db`, and record
/// its outcome.
fn request(t: &mut Tally, trace: bool, db: &Database, addr: SocketAddr, q: &Query) {
    let front_end_ms = if trace {
        front_end_layers(t, db, &q.text)
    } else {
        0.0
    };
    t.attempted += 1;
    let started = Instant::now();
    let reply = http_request(addr, "POST", "/query", &q.text);
    let latency_ms = ms_since(started);
    let checked = match reply {
        Ok((200, body)) => check_reply(q, &body, t).map(|server_ms| (server_ms, body.len())),
        Ok((status, body)) => Err(format!("status {status}: {body}")),
        Err(e) => Err(format!("request failed: {e}")),
    };
    match checked {
        Ok((server_ms, bytes)) => {
            t.latency_ms.push(latency_ms);
            t.latency_ref_ms.push(reference_ms());
            if trace {
                t.eval_ms.push(server_ms - front_end_ms);
                t.http_ms.push(latency_ms - server_ms);
                t.response_bytes.push(bytes as f64);
            }
        }
        Err(e) => {
            t.failed += 1;
            eprintln!("{e}");
        }
    }
}

/// Serve the streams' databases and send requests round-robin over them
/// for `args.seconds`, repeating the set-up at evenly spaced moments.
fn run(args: &Args, streams: &[Stream], rng: &mut Rng) -> Result<Tally, String> {
    let mut t = Tally::default();
    let mut servers = Vec::with_capacity(streams.len());
    for (db, server) in set_up(&mut t, streams)? {
        let addr = server.spawn().map_err(|e| format!("start server: {e}"))?;
        match http_request(addr, "GET", "/healthz", "") {
            Ok((200, _)) => servers.push((db, addr)),
            other => return Err(format!("health check: {other:?}")),
        }
    }

    for k in 0..WARMUP_REQUESTS {
        let (db, addr) = &servers[k % servers.len()];
        let q = (streams[k % streams.len()].next)(rng);
        let mut warm = Tally::default();
        request(&mut warm, false, db, *addr, &q);
        if warm.failed > 0 {
            return Err("warm-up request failed".to_string());
        }
    }

    let period = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut setups_done = 1;
    while started.elapsed() < period {
        if setups_done < SETUP_REPEATS && started.elapsed() >= period * setups_done / SETUP_REPEATS
        {
            setups_done += 1;
            set_up(&mut t, streams)?;
            continue;
        }
        let k = t.attempted as usize % servers.len();
        let q = (streams[k].next)(rng);
        let (db, addr) = &servers[k];
        request(&mut t, args.trace, db, *addr, &q);
    }
    Ok(t)
}

fn served(args: &Args) -> Result<Tally, String> {
    let mut rng = Rng::new(args.seed);
    let [scan, join] = [SCAN_OFFICE, JOIN_OFFICE].map(|(n, room)| gen::office(n, room, &mut rng));
    let streams = [
        Stream {
            dump: scan.dump.clone(),
            next: Box::new(|rng| gen::scan_query(&scan, rng)),
        },
        Stream {
            dump: join.dump.clone(),
            next: Box::new(|rng| gen::join_query(&join, rng)),
        },
    ];
    run(args, &streams, &mut rng)
}

fn index(args: &Args) -> Result<Tally, String> {
    let mut rng = Rng::new(args.seed);
    let items = Items::new(INDEX_ITEMS, &mut rng);
    let streams = [Stream {
        dump: items.dump(),
        next: Box::new(|rng| items.read_query(rng)),
    }];
    run(args, &streams, &mut rng)
}

// ------------------------------------------------------------------ report

/// Median of unsorted samples; 0 when empty.
fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
}

/// Mean of the samples; 0 when empty.
fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The reported metrics. End-to-end times are scaled to the reference
/// speed (see the module comment). Request layers are means per request,
/// like the counters, because the served stream mixes two request kinds;
/// set-up layers are medians over set-ups, like `setup_s`. Layer times
/// are raw; `reference_us` shows the host speed they were taken at.
fn metrics(t: &Tally, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if !trace {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let latency = sum(&t.latency_ms) / sum(&t.latency_ref_ms) * REFERENCE_MS;
        let setups: Vec<f64> = t
            .setup_s
            .iter()
            .zip(&t.setup_ref_ms)
            .map(|(s, r)| s / r * REFERENCE_MS)
            .collect();
        return vec![
            ("latency_norm_ms", latency, "ms"),
            ("setup_s", median(&setups), "s"),
        ];
    }
    let c = |name: &str| t.counters.get(name).copied().unwrap_or(0);
    let mut m = vec![
        ("load_ms", median(&t.load_ms), "ms"),
        ("index_build_ms", median(&t.index_build_ms), "ms"),
        ("parse_us", mean(&t.parse_us), "us"),
        ("analyze_us", mean(&t.analyze_us), "us"),
        ("eval_ms", mean(&t.eval_ms), "ms"),
        ("http_ms", mean(&t.http_ms), "ms"),
        ("response_bytes", mean(&t.response_bytes), "B"),
        ("reference_us", mean(&t.latency_ref_ms) * 1e3, "us"),
    ];
    for name in COUNTERS {
        m.push((name, ratio(c(name), t.queries), "count"));
    }
    m.push((
        "cache_hit_rate",
        ratio(c("cache_hits"), c("cache_hits") + c("cache_misses")),
        "ratio",
    ));
    m.push((
        "box_prune_rate",
        ratio(c("box_prunes"), c("box_checks")),
        "ratio",
    ));
    m
}

/// Pin the process to the CPU it is running on, before any thread
/// starts, so that every thread it spawns inherits the mask. Client and
/// server then hand each request over on one CPU; across two, each
/// hand-over wakes an idle virtual CPU, and on a loaded host that delay
/// varies from run to run.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both are plain glibc calls; `mask` is a 1024-bit cpu_set_t
    // that outlives the call, which only reads it.
    unsafe {
        let Ok(cpu) = usize::try_from(sched_getcpu()) else {
            return;
        };
        let mut mask = [0u64; 16];
        if cpu < 1024 {
            mask[cpu / 64] |= 1 << (cpu % 64);
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

/// CPU time of the calling thread in milliseconds, so that the reference
/// computation is not charged for other threads the scheduler runs in
/// between (such as a server thread still closing its connection).
#[cfg(target_os = "linux")]
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: a plain glibc call writing one timespec it is handed.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 * 1e3 + ts.nsec as f64 * 1e-6
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ms() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ms_since(*START.get_or_init(Instant::now))
}

fn main() -> ExitCode {
    pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "served" => served(&args),
        "index" => index(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let t = match outcome {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = metrics(&t, args.trace)
        .into_iter()
        .map(|(name, value, unit)| {
            let m = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
            (name, m)
        });
    let report = Json::obj([
        ("correct", Json::Bool(t.failed == 0 && t.attempted > 0)),
        ("attempted", Json::int(t.attempted)),
        ("failed", Json::int(t.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{report}");
    ExitCode::SUCCESS
}
