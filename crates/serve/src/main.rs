//! `lyric-serve` — a scrapeable LyriC query server.
//!
//! ```text
//! lyric-serve [--addr HOST:PORT] [--db FILE] [--save-db FILE] [--threads N] [--version]
//! ```
//!
//! Serves `GET /metrics` (Prometheus text format 0.0.4), `GET /healthz`,
//! `GET /version`, the `/debug/*` introspection surfaces (in-flight
//! registry, flight recorder, store-index state — see `lyric_serve`), and
//! `POST /query` (body: a LyriC `SELECT` statement; response: JSON).
//! With no `--db`, the paper's office-design database (Figures 1 and 2)
//! is served. `--db` accepts either format — binary snapshots (sniffed by
//! their 8-byte magic) or the textual `LYRIC-DB 1` dump. `--save-db FILE`
//! writes the loaded database back out as a verified binary snapshot and
//! exits instead of serving, so it doubles as a text → snapshot
//! converter. `--addr` defaults to `127.0.0.1:7171`; use port 0 for an
//! ephemeral port (the bound address is printed on startup).
//!
//! Every query runs under [`EngineBudget::interactive`], the REPL's
//! envelope (200,000 simplex pivots, 50,000 Fourier–Motzkin atoms,
//! 20,000 DNF disjuncts, 5 s): a query that exhausts it is answered with
//! a 400 whose `error` names the resource.

use lyric::snapshot::SnapshotExt;
use lyric::{EngineBudget, ExecOptions};
use lyric_serve::Server;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: lyric-serve [--addr HOST:PORT] [--db FILE] [--save-db FILE] [--threads N] [--version]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut db_path: Option<String> = None;
    let mut save_path: Option<String> = None;
    let mut opts = ExecOptions::default().with_budget(EngineBudget::interactive());

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--db" => db_path = Some(args.next().unwrap_or_else(|| usage())),
            "--save-db" => save_path = Some(args.next().unwrap_or_else(|| usage())),
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                opts = opts.with_threads(n);
            }
            "--version" | "-V" => {
                println!(
                    "lyric-serve {} ({})",
                    lyric::metrics::build::version(),
                    lyric::metrics::build::git_rev()
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("lyric-serve: unknown argument '{other}'");
                usage();
            }
        }
    }

    let db = match &db_path {
        Some(path) => {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("lyric-serve: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Sniff the format: binary snapshots open with the container
            // magic; anything else is the textual dump.
            let loaded = if bytes.starts_with(&lyric::store::snapshot::MAGIC) {
                lyric::snapshot::from_bytes(&bytes)
            } else {
                match String::from_utf8(bytes) {
                    Ok(text) => lyric::storage::load(&text),
                    Err(_) => {
                        eprintln!("lyric-serve: {path} is neither a snapshot nor UTF-8 text");
                        return ExitCode::FAILURE;
                    }
                }
            };
            match loaded {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("lyric-serve: cannot load {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => lyric::paper_example::database(),
    };

    if let Some(path) = &save_path {
        return match db.save_snapshot(path) {
            Ok(()) => {
                eprintln!("lyric-serve: wrote snapshot {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lyric-serve: cannot write {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Long-lived surface: publish the build-identity gauge.
    lyric::metrics::build::register_build_info();

    let server = match Server::bind(&addr, Arc::new(db), opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lyric-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => {
            eprintln!(
                "lyric-serve: listening on http://{bound} ({})",
                lyric_serve::ENDPOINTS.join(", ")
            )
        }
        Err(e) => eprintln!("lyric-serve: listening ({e})"),
    }
    if let Err(e) = server.run() {
        eprintln!("lyric-serve: accept loop failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
