//! What happens to a spawn that races the runtime's shutdown: the scheduler
//! hands the job back, `try_spawn` returns `PromiseError::RuntimeShutdown`,
//! and every promise transferred to the never-run task is completed
//! exceptionally — a waiter gets an error immediately instead of hanging.
//!
//! ```text
//! cargo run --release --example shutdown_rejection
//! ```

use std::sync::Arc;

use promises::prelude::*;
use promises::runtime::try_spawn;

fn main() {
    let rt = Runtime::new();
    // Keep the verification context (and its installed scheduler handle)
    // alive past the scheduler's shutdown.
    let ctx = Arc::clone(rt.context());
    rt.shutdown();

    // Tasks can still be *described* — the context is alive — but the
    // scheduler refuses to run them.
    let root = ctx.root_task(Some("post-shutdown"));
    let p = Promise::<i32>::with_name("orphan");
    let err = try_spawn(&p, {
        let p = p.clone();
        move || p.set(1).unwrap()
    })
    .expect_err("spawning after shutdown must fail");
    println!(
        "spawn after shutdown failed with: {err}  (kind: {})",
        err.kind()
    );

    // The transferred promise was settled exceptionally, so a `get` returns
    // an error immediately instead of blocking forever.
    match p.get() {
        Err(e) => println!("p.get() observes: {e}  (kind: {})", e.kind()),
        Ok(v) => unreachable!("orphan promise must not resolve normally, got {v}"),
    }
    root.finish();
}
