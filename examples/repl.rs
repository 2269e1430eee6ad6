//! An interactive LyriC shell over the paper's office database.
//!
//! ```sh
//! cargo run --example repl
//! ```
//!
//! Then type LyriC at the prompt (statements may span lines; end with `;`):
//!
//! ```text
//! lyric> SELECT Y FROM Desk X WHERE X.drawer.extent[Y];
//! lyric> SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
//!    ...> FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D];
//! ```
//!
//! Meta-commands: `:help`, `:check <query>`, `:bounds <query>`,
//! `:explain [analyze] <query>`, `:profile <query>`, `:trace on|off`,
//! `:trace chrome <file>`, `:threads [n]`, `:schema`, `:classes`,
//! `:extent <Class>`, `:stats`, `:metrics`, `:inflight`,
//! `:flight [dump <file>]`, `:save <file>`, `:load <file>`, `:quit`.
//!
//! Queries run under the engine's *interactive* evaluation budget, so an
//! adversarial constraint blowup reports `evaluation budget exceeded`
//! instead of hanging the shell. `:stats` toggles a per-query engine
//! statistics line (pivots, FM atoms, disjuncts, sat/entailment checks).
//!
//! `:explain <query>` prints the static operator plan (extent sizes,
//! constraint atom/disjunct counts); `:explain analyze <query>` runs the
//! query and annotates each operator with rows in/out,
//! exclusive/inclusive time and its engine counter share — the same
//! report `lyric-serve` returns for `{"explain": true}` query bodies.
//!
//! `:profile <query>` runs one query with tracing and prints its span
//! tree: per-phase wall-clock with hot-path percentages, source byte
//! ranges, and engine counter deltas. `:trace on` does the same for every
//! subsequent statement; `:trace chrome <file>` additionally writes each
//! traced query's Chrome trace-event JSON (load it in `chrome://tracing`
//! or Perfetto — parallel queries show one track per worker thread).
//!
//! `:bounds <query>` runs a query and prints, for every constraint-valued
//! result cell, the interval bounding box computed by the abstract
//! interpreter (`x in [0, 20], y in (-inf, 7]` — the same sound
//! over-approximation the engine uses to skip LP satisfiability calls).
//!
//! `:threads <n>` sets the evaluation thread budget (`:threads` shows
//! it). The shell starts from `LYRIC_THREADS` or the machine's available
//! parallelism; answers are identical at every setting.
//!
//! `:metrics` renders the process-lifetime metric registry as a table:
//! cumulative engine counters, query-latency quantiles (p50/p90/p99) and
//! budget aborts and thresholds — the same data `lyric-serve` exposes at
//! `/metrics` in Prometheus format, each series summed from the finished
//! queries' records.
//!
//! `:inflight` lists the queries registered as executing right now (the
//! shell itself runs queries synchronously, so from the prompt this
//! shows other threads of the process — it mirrors `lyric-serve`'s
//! `GET /debug/inflight`). `:flight` summarizes the process-lifetime
//! flight recorder: the recent completed-query ring with outcomes,
//! durations and the engine counters each query consumed — a budget
//! abort's up to the abort. `:flight dump <file>` writes the full
//! recorder state (ring, registry, build identity) as one JSON
//! document — the same black box the engine drops into
//! `LYRIC_FLIGHT_DIR` on a budget abort, panic, or `LYRIC_SLOW_MS`
//! breach.

use lyric::{default_threads, execute_with_options, paper_example, EngineBudget, ExecOptions};
use std::io::{self, BufRead, Write};

/// Shell state beyond the database itself.
struct Session {
    show_stats: bool,
    /// Print a span tree after every statement.
    trace: bool,
    /// Also export each traced query's Chrome trace JSON here.
    chrome_path: Option<String>,
    /// Thread budget for parallel evaluation (`:threads`).
    threads: usize,
}

impl Session {
    fn exec_options(&self) -> ExecOptions {
        ExecOptions::default()
            .with_budget(EngineBudget::interactive())
            .with_threads(self.threads)
    }
}

fn main() {
    let mut db = paper_example::database();
    let mut session = Session {
        show_stats: false,
        trace: false,
        chrome_path: None,
        threads: default_threads(),
    };
    // Long-lived surface: publish the build-identity gauge.
    lyric::metrics::build::register_build_info();
    println!("LyriC shell — the Figure 2 office database is loaded.");
    println!("End statements with ';'. Type :help for commands.\n");

    let stdin = io::stdin();
    let mut buffer = String::new();
    prompt(buffer.is_empty());
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with(':') {
            if !meta_command(&mut db, &mut session, trimmed) {
                break;
            }
            prompt(true);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            let stmt = buffer.trim().trim_end_matches(';').to_string();
            buffer.clear();
            if !stmt.is_empty() {
                run_statement(&mut db, &session, &stmt);
            }
        }
        prompt(buffer.is_empty());
    }
    println!();
}

/// Execute one statement, tracing it when the session asks for it.
fn run_statement(db: &mut lyric::oodb::Database, session: &Session, stmt: &str) {
    let traced = session.trace || session.chrome_path.is_some();
    let opts = session.exec_options().with_trace(traced);
    let result = match execute_with_options(db, stmt, &opts) {
        Ok(r) => r,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    if result.rows.is_empty() {
        println!("(no rows)");
    } else {
        print!("{result}");
        println!("({} row{})", result.rows.len(), plural(result.rows.len()));
    }
    if let Some(trace) = &result.trace {
        if session.trace {
            print!("{}", lyric::trace::render_tree(trace));
        }
        export_chrome(session, trace);
    }
    if session.show_stats {
        println!("[engine: {}]", result.stats);
    }
}

/// Write the trace's Chrome JSON to the session's export path, if set.
fn export_chrome(session: &Session, trace: &lyric::trace::Trace) {
    if let Some(path) = &session.chrome_path {
        match std::fs::write(path, lyric::trace::to_chrome_trace(trace)) {
            Ok(()) => println!("[trace written to {path}]"),
            Err(e) => println!("[trace write to {path} failed: {e}]"),
        }
    }
}

fn prompt(fresh: bool) {
    print!("{}", if fresh { "lyric> " } else { "   ...> " });
    let _ = io::stdout().flush();
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Returns false when the shell should exit.
fn meta_command(db: &mut lyric::oodb::Database, session: &mut Session, cmd: &str) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next() {
        Some(":quit") | Some(":q") | Some(":exit") => return false,
        Some(":help") | Some(":h") => {
            println!(":help             this help");
            println!(":check <query>    analyze a query without running it (strict + deep)");
            println!(":bounds <query>   run a query and print each CST cell's bounding box");
            println!(":explain <query>  print the operator plan without running the query");
            println!(":explain analyze <query>  run it and annotate the plan with rows/time");
            println!(":profile <query>  run a query with tracing and print its span tree");
            println!(":trace on|off     trace every statement (span tree after the rows)");
            println!(":trace chrome <file>  also export Chrome trace JSON per traced query");
            println!(":threads [n]      show or set the evaluation thread budget");
            println!(":schema           list classes with their attributes");
            println!(":classes          list class names");
            println!(":extent <Class>   list the instances of a class");
            println!(":stats            toggle the per-query engine statistics line");
            println!(":metrics          process-lifetime metrics (counters, latency quantiles)");
            println!(":inflight         queries executing right now, with live progress");
            println!(":flight           recent completed queries: outcome, rows, counters used");
            println!(":flight dump <file>  write the full recorder state as JSON");
            println!(":save <file>      dump the database as text");
            println!(":load <file>      replace the database from a dump");
            println!(":quit             leave");
            println!("anything else     a LyriC statement, terminated by ';'");
        }
        Some(":check") => {
            let src = cmd[":check".len()..].trim().trim_end_matches(';').trim();
            if src.is_empty() {
                println!("usage: :check <query>  (single line, ';' optional)");
            } else {
                let diags = lyric::analyze_src(db.schema(), src, &lyric::AnalyzerOptions::deep());
                if diags.is_empty() {
                    println!("ok: no diagnostics");
                } else {
                    print!("{}", lyric::diag::render_all(&diags, src));
                }
            }
        }
        Some(":bounds") => {
            let src = cmd[":bounds".len()..].trim().trim_end_matches(';').trim();
            if src.is_empty() {
                println!("usage: :bounds <query>  (single line, ';' optional)");
            } else {
                match execute_with_options(db, src, &session.exec_options()) {
                    Ok(result) => {
                        let mut printed = false;
                        for (i, row) in result.rows.iter().enumerate() {
                            for (cell, col) in row.iter().zip(&result.columns) {
                                if let Some(cst) = cell.as_cst() {
                                    println!("row {i} {col}: {}", cst.interval_box());
                                    printed = true;
                                }
                            }
                        }
                        if !printed {
                            println!("(no constraint columns)");
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
        }
        Some(":explain") => {
            let rest = cmd[":explain".len()..].trim();
            let (analyze, src) = match rest.strip_prefix("analyze") {
                // `analyze` must be the whole word, not a query starting
                // with it — require whitespace after.
                Some(after) if after.starts_with(char::is_whitespace) => (true, after),
                _ => (false, rest),
            };
            let src = src.trim().trim_end_matches(';').trim();
            if src.is_empty() {
                println!("usage: :explain [analyze] <query>  (single line, ';' optional)");
            } else if analyze {
                let opts = session.exec_options().with_explain(true);
                match lyric::execute_shared(db, src, &opts) {
                    Ok(result) => {
                        let report = result
                            .plan
                            .as_ref()
                            .expect("an explained run returns its plan");
                        println!("({} row{})", result.rows.len(), plural(result.rows.len()));
                        print!("{}", report.render());
                    }
                    Err(e) => println!("error: {e}"),
                }
            } else {
                match lyric::explain(db, src) {
                    Ok(report) => print!("{}", report.render()),
                    Err(e) => println!("error: {e}"),
                }
            }
        }
        Some(":profile") => {
            let src = cmd[":profile".len()..].trim().trim_end_matches(';').trim();
            if src.is_empty() {
                println!("usage: :profile <query>  (single line, ';' optional)");
            } else {
                match execute_with_options(db, src, &session.exec_options().with_trace(true)) {
                    Ok(result) => {
                        let trace = result
                            .trace
                            .as_ref()
                            .expect("a traced run returns its trace");
                        println!("({} row{})", result.rows.len(), plural(result.rows.len()));
                        print!("{}", lyric::trace::render_tree(trace));
                        println!("[engine: {}]", result.stats);
                        export_chrome(session, trace);
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
        }
        Some(":trace") => match parts.next() {
            Some("on") => {
                session.trace = true;
                println!("tracing on");
            }
            Some("off") => {
                session.trace = false;
                session.chrome_path = None;
                println!("tracing off");
            }
            Some("chrome") => match parts.next() {
                Some(path) => {
                    session.chrome_path = Some(path.to_string());
                    println!("chrome trace export to {path}");
                }
                None => println!("usage: :trace chrome <file>"),
            },
            _ => println!("usage: :trace on|off  or  :trace chrome <file>"),
        },
        Some(":threads") => match parts.next() {
            None => println!("threads: {}", session.threads),
            Some(n) => match n.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    session.threads = n;
                    println!("threads set to {n}");
                }
                _ => println!("usage: :threads <positive integer>"),
            },
        },
        Some(":metrics") => {
            let snapshot = lyric::metrics::global().snapshot();
            if snapshot.families.is_empty() {
                println!("no metrics recorded yet (run a query first)");
            } else {
                print!("{}", lyric::metrics::render_table(&snapshot));
            }
        }
        Some(":inflight") => {
            let snapshots = lyric::flight::inflight::snapshot();
            if snapshots.is_empty() {
                println!("(no queries in flight)");
            } else {
                for s in &snapshots {
                    let pct = s
                        .budget_pct
                        .map_or(String::new(), |p| format!(" {p}% of budget"));
                    println!(
                        "#{} [{:.1}s{pct}, {} thread{}] {}",
                        s.id,
                        s.elapsed_us as f64 / 1e6,
                        s.threads,
                        plural(s.threads),
                        s.query
                    );
                    let [pivots, fm_atoms, disjuncts, sat_checks, box_prunes, index_probes] =
                        s.counters;
                    println!(
                        "    pivots {pivots}, FM atoms {fm_atoms}, disjuncts {disjuncts}, \
                         sat checks {sat_checks}, box prunes {box_prunes}, index probes {index_probes}"
                    );
                }
            }
        }
        Some(":flight") => match parts.next() {
            None => {
                let queries = lyric::flight::recorder::recent_queries();
                println!(
                    "flight recorder: {} quer{} held",
                    queries.len(),
                    if queries.len() == 1 { "y" } else { "ies" },
                );
                // Newest last, like a log; cap the scrollback.
                const SHOW: usize = 16;
                if queries.len() > SHOW {
                    println!(
                        "  … {} older entries (':flight dump <file>' for all)",
                        queries.len() - SHOW
                    );
                }
                for q in queries.iter().rev().take(SHOW).rev() {
                    let outcome = match &q.outcome {
                        lyric::metrics::querylog::Outcome::BudgetExceeded { resource, .. } => {
                            format!("{} ({resource})", q.outcome.name())
                        }
                        other => other.name().to_string(),
                    };
                    println!(
                        "  {:>9.1}ms {outcome:<16} {} row{} trace {}  {}",
                        q.duration_us as f64 / 1e3,
                        q.rows,
                        plural(q.rows as usize),
                        q.trace_id,
                        q.query
                    );
                    let counters: Vec<String> = q
                        .stats
                        .nonzero_counters()
                        .iter()
                        .map(|(name, v)| format!("{name} {v}"))
                        .collect();
                    if !counters.is_empty() {
                        println!("             {}", counters.join(", "));
                    }
                }
            }
            Some("dump") => match parts.next() {
                Some(path) => {
                    let doc = lyric::flight::dump::build_doc(lyric::flight::Trigger::Manual, None);
                    let mut text = doc.to_string();
                    text.push('\n');
                    match std::fs::write(path, text) {
                        Ok(()) => println!("flight recorder dumped to {path}"),
                        Err(e) => println!("dump write to {path} failed: {e}"),
                    }
                }
                None => println!("usage: :flight dump <file>"),
            },
            Some(other) => {
                println!("unknown :flight subcommand {other} (try :flight or :flight dump <file>)")
            }
        },
        Some(":stats") => {
            session.show_stats = !session.show_stats;
            println!(
                "engine statistics {}",
                if session.show_stats { "on" } else { "off" }
            );
        }
        Some(":classes") => {
            for name in db.schema().class_names() {
                println!("{name}");
            }
        }
        Some(":schema") => {
            for name in db.schema().class_names() {
                let def = db.schema().class(name).expect("listed class exists");
                print!("{name}");
                if !def.interface.is_empty() {
                    let vars: Vec<&str> = def.interface.iter().map(|v| v.name()).collect();
                    print!("({})", vars.join(","));
                }
                if !def.parents.is_empty() {
                    print!(" : {}", def.parents.join(", "));
                }
                println!();
                for (attr, decl) in db.schema().attributes_of(name) {
                    let star = if decl.is_set { "*" } else { "" };
                    match &decl.target {
                        lyric::oodb::AttrTarget::Cst { vars } => {
                            let vs: Vec<&str> = vars.iter().map(|v| v.name()).collect();
                            println!("  {attr}{star} : CST({})", vs.join(","));
                        }
                        lyric::oodb::AttrTarget::Class { class, actuals } => match actuals {
                            Some(a) => {
                                let vs: Vec<&str> = a.iter().map(|v| v.name()).collect();
                                println!("  {attr}{star} : ({}) -> {class}", vs.join(","));
                            }
                            None => println!("  {attr}{star} : {class}"),
                        },
                    }
                }
            }
        }
        Some(":save") => match parts.next() {
            Some(path) => match lyric::storage::save(db) {
                Ok(text) => match std::fs::write(path, text) {
                    Ok(()) => println!("saved to {path}"),
                    Err(e) => println!("write failed: {e}"),
                },
                Err(e) => println!("serialize failed: {e}"),
            },
            None => println!("usage: :save <file>"),
        },
        Some(":load") => match parts.next() {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => match lyric::storage::load(&text) {
                    Ok(loaded) => {
                        *db = loaded;
                        println!("loaded {path}");
                    }
                    Err(e) => println!("parse failed: {e}"),
                },
                Err(e) => println!("read failed: {e}"),
            },
            None => println!("usage: :load <file>"),
        },
        Some(":extent") => match parts.next() {
            Some(class) if db.schema().has_class(class) => {
                for oid in db.extent(class) {
                    println!("{oid}");
                }
            }
            Some(class) => println!("unknown class {class}"),
            None => println!("usage: :extent <Class>"),
        },
        Some(other) => println!("unknown command {other} (try :help)"),
        None => {}
    }
    true
}
