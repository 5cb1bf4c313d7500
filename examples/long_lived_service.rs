//! A long-lived-service sketch: bursts of verified fork/join work separated
//! by quiet periods, with explicit memory reclamation at each low point.
//!
//! ```text
//! cargo run --release --example long_lived_service
//! SERVICE_BURSTS=8 SERVICE_TASKS=4096 cargo run --release --example long_lived_service
//! ```
//!
//! The paper's nine benchmarks all grow-then-exit, so they never exercise
//! memory *release*.  A service does: its live-set grows during a traffic
//! burst and shrinks back down afterwards, and over a week-long deployment
//! the arenas must hand those quiet-period chunks back to the allocator
//! instead of holding the burst-peak footprint forever.  This example drives
//! that shape — a large burst, then progressively smaller ones — calling
//! [`Runtime::reclaim_memory`] between bursts (the explicit low-point hook;
//! the per-operation paths never pay for reclamation) and printing the
//! arena memory counters after each wave.  It exits non-zero if the arenas
//! failed to return any memory, so it doubles as a smoke check for the
//! epoch-based reclamation layer.

use promises::prelude::*;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One traffic burst: `tasks` independent request handlers, each fulfilling
/// a root-owned response promise (the ownership moves to the handler at
/// spawn time, so a handler that drops a response is reported, not hung).
fn burst(tasks: usize) -> u64 {
    let promises: Vec<Promise<u64>> = (0..tasks).map(|_| Promise::new()).collect();
    let handles: Vec<TaskHandle<()>> = promises
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let p = p.clone();
            spawn(p.clone(), move || {
                // A request handler's worth of work.
                let mut x = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
                for _ in 0..64 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                }
                p.set(x | 1).unwrap();
            })
        })
        .collect();
    let mut acc = 0u64;
    for p in &promises {
        acc = acc.wrapping_add(p.get().unwrap());
    }
    for h in handles {
        h.join().unwrap();
    }
    acc
}

fn main() {
    let bursts = env_usize("SERVICE_BURSTS", 5);
    let base_tasks = env_usize("SERVICE_TASKS", 6_000);

    let rt = Runtime::builder()
        .verification(VerificationMode::Full)
        .build();

    rt.block_on(|| {
        let mut acc = 0u64;
        for wave in 0..bursts {
            // Traffic halves every burst: the service's live-set shrinks,
            // leaving whole arena chunks free behind the high-water mark.
            let tasks = (base_tasks >> wave).max(64);
            acc = acc.wrapping_add(burst(tasks));

            // The quiet period after the burst: reclaim at the low point.
            // Each call also nudges the reclamation epoch, so a few calls
            // converge.
            let mut freed_now = 0;
            for _ in 0..1_000 {
                freed_now += rt.reclaim_memory();
                if freed_now > 0 {
                    break;
                }
            }

            let m = rt.memory_stats();
            println!(
                "burst {wave}: {tasks:>5} requests | resident {:>8} B (peak {:>8} B) | \
                 freed so far {:>8} B in {} chunks",
                m.resident_bytes, m.peak_resident_bytes, m.bytes_freed, m.chunks_reclaimed
            );
        }
        println!("service checksum: {acc:#x}");
    })
    .unwrap();

    let m = rt.memory_stats();
    assert_eq!(rt.context().alarm_count(), 0, "no alarms expected");
    assert!(
        m.bytes_freed > 0 && m.chunks_reclaimed > 0,
        "a shrinking service must return arena memory \
         (freed {} B / {} chunks, resident {} of peak {})",
        m.bytes_freed,
        m.chunks_reclaimed,
        m.resident_bytes,
        m.peak_resident_bytes
    );
    assert!(
        m.resident_bytes < m.peak_resident_bytes,
        "resident ({}) should sit below the burst peak ({})",
        m.resident_bytes,
        m.peak_resident_bytes
    );
    println!(
        "ok: arenas returned {} B across {} chunks; resident {} B vs peak {} B",
        m.bytes_freed, m.chunks_reclaimed, m.resident_bytes, m.peak_resident_bytes
    );
}
