//! The process-global generation counter, in a test binary of its own.
//!
//! Every [`run`] bumps the counter by one, and [`generation`] reads it
//! outside any context. Any other test that calls `run` in the same
//! process would move it between the two reads, so nothing else runs
//! here.

use lyric_engine::{generation, run, EngineBudget, ExecOptions};

#[test]
fn generation_bumps_per_context() {
    let opts = ExecOptions::default().with_budget(EngineBudget::unlimited());
    let before = generation();
    let _ = run(&opts, None, || {});
    let _ = run(&opts, None, || {});
    assert_eq!(generation(), before + 2);
}
