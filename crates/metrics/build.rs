//! Resolves the build's git revision once, at compile time, for
//! `lyric_metrics::build::git_rev`: `git rev-parse --short HEAD` in the
//! source checkout, else the build environment's `LYRIC_GIT_REV` (for
//! trees without `.git`), else `unknown`.

use std::path::Path;
use std::process::Command;

/// The trimmed stdout of a successful, nonempty `git` call.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=LYRIC_GIT_REV");
    // Rebuild when HEAD moves. Only files that exist are watched: cargo
    // treats a missing watched path as always changed.
    let head_ref = git(&["symbolic-ref", "-q", "HEAD"]);
    let watched = ["HEAD", "packed-refs"]
        .into_iter()
        .chain(head_ref.as_deref());
    for name in watched {
        if let Some(path) = git(&["rev-parse", "--git-path", name]) {
            if Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
    let rev = git(&["rev-parse", "--short", "HEAD"])
        .or_else(|| {
            let rev = std::env::var("LYRIC_GIT_REV").ok()?.trim().to_string();
            (!rev.is_empty()).then_some(rev)
        })
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=LYRIC_BUILD_GIT_REV={rev}");
}
