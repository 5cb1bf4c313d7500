//! Seeded cross-thread stress for the task-record recycling ring (in the
//! style of `promise-core`'s `data_plane_stress`): job blocks are allocated
//! on one worker's magazine, stolen and run on another, freed into *that*
//! worker's magazine, and recycled for the next wave — while every task's
//! payload must survive intact (any aliasing of a live record with a
//! recycled block would corrupt the seeded values) and the pool accounting
//! must balance once the runtime quiesces.

use promise_core::arena::CHUNK_SIZE;
use promise_core::job::job_pool_stats;
use promise_core::test_support::pool::{assert_outstanding_settles_to, pool_serial};
use promise_core::test_support::rng::{lcg, seed_from_env_echoed};
use promise_core::Promise;
use promise_runtime::{spawn_batch, Runtime};

#[test]
fn cross_worker_recycling_never_aliases_live_records() {
    let _guard = pool_serial();
    let baseline = job_pool_stats().outstanding;
    {
        let rt = Runtime::builder()
            .initial_workers(4)
            .worker_keep_alive(std::time::Duration::from_millis(50))
            .build();
        rt.block_on(|| {
            let mut seed = seed_from_env_echoed(0x5eed_cafe, "spawn_recycle_stress");
            // Waves of forked spawner tasks, each fanning out children whose
            // payloads carry seeded values.  Children spawned on one worker
            // are stolen and retired on others, so freed blocks migrate
            // between magazines and get recycled by foreign threads.
            for _wave in 0..20 {
                let spawners = spawn_batch(|batch| {
                    for _ in 0..4 {
                        let wave_seed = lcg(&mut seed);
                        batch.spawn((), move || {
                            let children = spawn_batch(|inner| {
                                for k in 0..16u64 {
                                    // A fat payload fills most of the block, so
                                    // any aliased write would be visible.
                                    let payload = [wave_seed ^ k; 12];
                                    inner.spawn((), move || payload.iter().copied().sum::<u64>());
                                }
                            });
                            let mut ok = true;
                            for (k, h) in children.into_iter().enumerate() {
                                let expect = (wave_seed ^ k as u64) * 12;
                                ok &= h.join().unwrap() == expect;
                            }
                            ok
                        });
                    }
                });
                for h in spawners {
                    assert!(
                        h.join().unwrap(),
                        "a recycled record aliased a live payload"
                    );
                }
            }
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
        rt.shutdown();
    }
    // Every job block was released (no leak, no double-accounting) once the
    // workers retired.
    assert_outstanding_settles_to(baseline);
}

/// Retiring workers have no cache of their own to flush (magazines belong
/// to the arenas and the block pool), but the exit hook still sweeps the
/// arenas: a burst of promises spanning several chunks is dropped, nobody
/// calls `reclaim_memory`, and the chunks go back to the allocator once the
/// workers retire by keep-alive.
#[test]
fn retiring_workers_still_reclaim_memory() {
    let _guard = pool_serial();
    let baseline = job_pool_stats().outstanding;
    let rt = Runtime::builder()
        .initial_workers(2)
        .worker_keep_alive(std::time::Duration::from_millis(20))
        .build();
    rt.block_on(|| {
        let burst: Vec<Promise<u64>> = (0..4 * CHUNK_SIZE as u64)
            .map(|i| {
                let p = Promise::new();
                p.set(i).unwrap();
                p
            })
            .collect();
        let handles = spawn_batch(|batch| {
            for i in 0..256u64 {
                batch.spawn((), move || i);
            }
        });
        let sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sum, (0..256u64).sum());
        drop(burst);
    })
    .unwrap();
    let resident_at_peak = rt.memory_stats().peak_resident_bytes;
    let mut stats = rt.memory_stats();
    for _ in 0..5000 {
        if stats.bytes_freed > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        stats = rt.memory_stats();
    }
    assert!(
        stats.bytes_freed > 0 && stats.resident_bytes < resident_at_peak,
        "a retiring worker's exit hook must reclaim the freed chunks: {stats:?}"
    );
    rt.shutdown();
    assert_outstanding_settles_to(baseline);

    // Blocks the retired workers cached stay in the pool for whoever comes
    // next: a fresh runtime reuses them and the accounting still balances.
    let rt2 = Runtime::new();
    rt2.block_on(|| {
        let handles = spawn_batch(|batch| {
            for i in 0..64u64 {
                batch.spawn((), move || i);
            }
        });
        for h in handles {
            h.join().unwrap();
        }
    })
    .unwrap();
    rt2.shutdown();
    assert_outstanding_settles_to(baseline);
}

#[test]
fn seeded_mixed_spawn_steal_churn_is_deterministic() {
    let _guard = pool_serial();
    // Two identical seeded runs must produce identical results: recycling is
    // invisible to task semantics.
    let run = |seed0: u64| -> u64 {
        let rt = Runtime::builder().initial_workers(3).build();
        let out = rt
            .block_on(|| {
                let mut seed = seed0;
                let mut acc = 0u64;
                for _ in 0..50 {
                    let v = lcg(&mut seed);
                    let handles = spawn_batch(|batch| {
                        for k in 0..8u64 {
                            batch.spawn((), move || v.wrapping_mul(k + 1));
                        }
                    });
                    for h in handles {
                        acc = acc.wrapping_add(h.join().unwrap());
                    }
                }
                acc
            })
            .unwrap();
        rt.shutdown();
        out
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}
