//! Robustness of the text layers: no input text or snapshot payload may
//! panic the process, and every rejection is a [`LyricError`].
//!
//! Seeded mutants of three database dumps — the paper's Figure 2
//! database, `office_db(16, 42)` and `scaling_db(200, 42)` — go to
//! `storage::load` and, inside a well-formed `LYRICSNP` container (so the
//! checksums hold and the text layer must reject them), to
//! `snapshot::from_bytes`. Mutants of query texts go to `lex`,
//! `parse_query` and `analyze`. A mutant applies one to three mutations:
//! a bit flip, a deleted run, a duplicated run, a truncation, or a token
//! spliced in from a dictionary that holds the paper's multi-byte
//! notation (`≤ ∧ ⊨ ¬ …`), where a byte-scanning lexer would first cut
//! a `char` apart. Every call runs under `catch_unwind`; a panic fails
//! the test with the mutant's seed and text.
//!
//! The pinned cases come first: each repeats a variable where a variable
//! list must be distinct (a stored projection, a nested one, a CST
//! attribute's schema, a class interface, an interface renaming), which
//! once tripped the `duplicate variable in CST schema` assertion.

use lyric::oodb::{AttrDef, AttrTarget, ClassDef, DbError, Schema};
use lyric::store::snapshot::write_container;
use lyric::{analyze, lex, paper_example, parse_query, snapshot, storage, AnalyzerOptions};
use lyric_bench::workload::{
    office_db, q_join_window, q_region_window, q_scan_window, q_weight_eq, scaling_db,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per database dump, each fed to the loader and to the snapshot
/// decoder.
const DUMP_MUTANTS: u64 = 600;
/// Mutants per query text.
const QUERY_MUTANTS: u64 = 400;

/// Tokens spliced into mutants: the paper's multi-byte notation, the
/// dump format's keywords and oid prefixes, and literals at the edges of
/// the number paths.
const DICTIONARY: &[&str] = &[
    "≤",
    "≥",
    "≠",
    "∧",
    "∨",
    "¬",
    "⊨",
    "é",
    "(",
    ")",
    "((",
    "))",
    "|",
    "|=",
    ",",
    ".",
    "'",
    "--",
    "=>>",
    " AND ",
    " OR ",
    " NOT ",
    "u,u",
    "cst:",
    "cst:((u,u) | u >= 0)",
    "named:",
    "func:f(",
    "int:",
    "rat:1/0",
    "str:'",
    "OBJECT ",
    "CLASS ",
    "END",
    "\n",
    "ATTR x SCALAR CST u,u",
    "INTERFACE x,x",
    "CSTDIM 0",
    "0.5",
    "1.",
    ".5",
    "9223372036854775808",
    "99999999999999999999.99999999999999999999",
];

fn class_db_prefix() -> &'static str {
    "LYRIC-DB 1\n\nCLASS Item\n  ATTR region SCALAR CST u,v\nEND\n\n"
}

/// Dumps that repeat a variable in a list that must be distinct.
fn pinned_dumps() -> Vec<(&'static str, String)> {
    let object = |value: &str| {
        format!(
            "{}OBJECT named:item_0 CLASS Item\n  SET region = {value}\nEND\n",
            class_db_prefix()
        )
    };
    vec![
        ("stored projection", object("cst:((u,u) | u >= 0)")),
        (
            "nested projection",
            object("cst:((u,v) | ((w,w) | w >= u) AND v >= 0)"),
        ),
        (
            "CST attribute schema",
            "LYRIC-DB 1\n\nCLASS Item\n  ATTR region SCALAR CST u,u\nEND\n\n".into(),
        ),
        (
            "class interface",
            "LYRIC-DB 1\n\nCLASS Drawer\n  INTERFACE x,x\n  ATTR extent SCALAR CST x,y\nEND\n\n"
                .into(),
        ),
        (
            "interface renaming",
            "LYRIC-DB 1\n\nCLASS Drawer\n  INTERFACE x,y\nEND\n\n\
             CLASS Desk\n  ATTR drawer SCALAR CLASS Drawer RENAME p,p\nEND\n\n"
                .into(),
        ),
    ]
}

/// The container `snapshot::to_bytes` would write around `text`, with a
/// valid checksum whatever the text holds.
fn container(objects: usize, text: &[u8]) -> Vec<u8> {
    write_container(&[
        (*b"META", format!("objects={objects}\n").into_bytes()),
        (*b"DBTX", text.to_vec()),
    ])
}

#[test]
fn repeated_variables_are_rejected_not_panicked() {
    for (case, text) in pinned_dumps() {
        let loaded = catch_unwind(|| storage::load(&text))
            .unwrap_or_else(|_| panic!("{case}: storage::load panicked"));
        assert!(loaded.is_err(), "{case}: loaded a repeated variable");
        let decoded = catch_unwind(|| snapshot::from_bytes(&container(1, text.as_bytes())))
            .unwrap_or_else(|_| panic!("{case}: snapshot::from_bytes panicked"));
        assert!(decoded.is_err(), "{case}: decoded a repeated variable");
    }
    // The stored projection's error names the variable.
    let err = storage::load(&pinned_dumps()[0].1).unwrap_err().to_string();
    assert!(err.contains("variable u repeats"), "{err}");
    // The schema rules hold for schemas built through the API too, so
    // no query can meet a schema with a repeated variable.
    let mut schema = Schema::new();
    let repeated = schema.add_class(
        ClassDef::new("Item").attr(AttrDef::scalar("region", AttrTarget::cst(["u", "u"]))),
    );
    assert!(
        matches!(repeated, Err(DbError::RepeatedVariable { ref var, .. }) if var == "u"),
        "{repeated:?}"
    );
}

/// Apply one to three seeded mutations to `src`.
fn mutate(src: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = src.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        if out.is_empty() {
            break;
        }
        let at = rng.gen_range(0..out.len());
        match rng.gen_range(0..5) {
            0 => out[at] ^= 1 << rng.gen_range(0..8),
            1 => {
                let end = (at + rng.gen_range(1..=8)).min(out.len());
                out.drain(at..end);
            }
            2 => {
                let end = (at + rng.gen_range(1..=16)).min(out.len());
                let run = out[at..end].to_vec();
                let to = rng.gen_range(0..=out.len());
                out.splice(to..to, run);
            }
            3 => out.truncate(at),
            _ => {
                let token = DICTIONARY[rng.gen_range(0..DICTIONARY.len())];
                out.splice(at..at, token.bytes());
            }
        }
    }
    out
}

/// Run `f` under `catch_unwind`; on a panic, name the layer, the seed
/// and the mutant.
fn no_panic<T>(layer: &str, seed: u64, mutant: &[u8], f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!(
            "{layer} panicked on the mutant of seed {seed}:\n{}",
            String::from_utf8_lossy(mutant)
        ),
    }
}

#[test]
fn mutated_dumps_never_panic_the_loader_or_the_decoder() {
    let dumps = [
        paper_example::database(),
        office_db(16, 42),
        scaling_db(200, 42),
    ]
    .map(|db| (db.objects().count(), storage::save(&db).expect("dump")));
    let (mut loaded, mut mutants) = (0, 0);
    for (d, (objects, text)) in dumps.iter().enumerate() {
        for k in 0..DUMP_MUTANTS {
            let seed = 1_000_000 * d as u64 + k;
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = mutate(text.as_bytes(), &mut rng);
            let lossy = String::from_utf8_lossy(&bytes);
            if no_panic("storage::load", seed, &bytes, || storage::load(&lossy)).is_ok() {
                loaded += 1;
            }
            let framed = container(*objects, &bytes);
            no_panic("snapshot::from_bytes", seed, &bytes, || {
                snapshot::from_bytes(&framed)
            })
            .ok();
            mutants += 1;
        }
    }
    // Some mutations land in a comment-free spot that still parses (a
    // flipped digit, say); most must not.
    assert!(loaded < mutants, "{loaded} of {mutants} mutants loaded");
    println!("{mutants} dump mutants, {loaded} loaded");
}

#[test]
fn mutated_queries_never_panic_the_front_end() {
    let schema = paper_example::schema();
    let queries = [
        "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]".to_string(),
        "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
         FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]"
            .into(),
        "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w) FROM Desk DSK
         WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)"
            .into(),
        "SELECT DSK FROM Desk DSK WHERE DSK.drawer_center[C] ∧ (C(p,q) ⊨ p ≤ 0 ∧ ¬(q ≥ 1.5))"
            .into(),
        "SELECT MAX(w + z SUBJECT TO ((w,z) | E)), MIN(w SUBJECT TO ((w,z) | E))
         FROM Desk D WHERE D.extent[E]"
            .into(),
        q_scan_window(10, 70, 20, 50),
        q_join_window(40, 64, 30, 42),
        q_weight_eq(1_234),
        q_region_window(1_000),
    ];
    let mut parsed = 0;
    for (i, text) in queries.iter().enumerate() {
        for k in 0..QUERY_MUTANTS {
            let seed = 1_000_000 * (10 + i as u64) + k;
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = mutate(text.as_bytes(), &mut rng);
            let src = String::from_utf8_lossy(&bytes);
            no_panic("lex", seed, &bytes, || lex(&src)).ok();
            if let Ok(q) = no_panic("parse_query", seed, &bytes, || parse_query(&src)) {
                parsed += 1;
                no_panic("analyze", seed, &bytes, || {
                    analyze(&schema, &q, &AnalyzerOptions::default())
                });
            }
        }
    }
    println!(
        "{} query mutants, {parsed} parsed",
        QUERY_MUTANTS * queries.len() as u64
    );
}
