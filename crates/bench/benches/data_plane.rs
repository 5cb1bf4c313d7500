//! Microbenchmarks of the verification data plane's shared state: arena
//! allocation, detector traversal, and alarm recording.  Where a "before"
//! number is quoted for a path that no longer exists, the PR that measured
//! it is named:
//!
//! * `arena/alloc-free` — one slot alloc + free from a lone thread.
//!   `magazine` is the sharded magazine fast path (a try-lock CAS and an
//!   unlock store around plain array operations; no shared free list, no
//!   epoch pin); `global` is the shared fallback every thread takes when
//!   both of its shard try-locks fail — the single Treiber free list plus
//!   global live/peak counters — forced for every operation by
//!   `SlotArena::new_global_only`.  magazine ≈ 23 ns/op vs global
//!   ≈ 65 ns/op.
//! * `arena/alloc-free-contended` — four threads hammering alloc/free on
//!   one shared arena (2 000 pairs each per episode; the reported time is
//!   one whole episode including thread spawn/join).  Magazines
//!   ≈ 240 µs/episode vs global ≈ 1.7 ms/episode.
//! * `blocks/alloc-free` — one `Job::new` + `run` (a pooled block allocated
//!   and freed) from a lone thread: ≈ 22 ns.
//! * `arena/alloc-free-many-live-threads`, `blocks/alloc-free-many-live-threads`
//!   — the same pairs measured by a thread that registered after 64 others
//!   which are all still alive (parked): ≈ 23 ns and ≈ 21 ns, the same as
//!   alone.  Under the claim-for-a-lifetime magazines this replaced, the
//!   lone-thread arms read ≈ 13 ns and ≈ 7 ns and these two ≈ 66 ns and
//!   ≈ 50 ns: the late thread's slot id collided with a live holder's and
//!   it took the shared path — which is where a §6.3 pool's running
//!   threads were nine operations in ten.
//! * `epoch/pin` — the reclamation epoch's pin/unpin round trip
//!   ([`epoch::pin`]): the per-traversal cost the detector pays and the
//!   per-call cost of internally-pinning reads.  One full pin (claim a
//!   cell by CAS-ing the epoch into it + SeqCst fence + re-check; the unpin
//!   store hands the cell back) ≈ 16 ns; a nested pin (TLS depth bump
//!   only) ≈ 0.3 ns.
//! * `arena/chunk-churn` — a whole-chunk alloc/free wave (1024 slots).
//!   `reclaim-every-wave` retires, frees, and resurrects the chunk each
//!   wave (≈ 108 µs/wave); `keep-resident` leaves it mapped (≈ 93 µs/wave).
//!   The retire → unmap → remap round trip therefore costs ≈ 15 µs per
//!   chunk, ≈ 15 ns amortised per slot — paid only at explicit `reclaim()`
//!   calls, never on the per-operation paths.
//! * `detector/chain-walk` — one full Algorithm 2 verification over a
//!   128-task non-cyclic waits-for chain (throughput = edges/step walked).
//!   `fast` is the pointer-direct traversal (one epoch pin for the whole
//!   walk, chunk-cached resolver with remap-stamp revalidation,
//!   single-validation line-6/9/13 reads, generation-fenced line-11 read on
//!   the cached slot address, lazy report collection): ≈ 8.4 ns/step.  PR 6
//!   measured the loop it replaced (seqlock double-validated closure reads
//!   through the chunk table + eager report collection, one pin *per read*
//!   through `SlotArena::read`; deleted in PR 15) at ≈ 53 ns/step — three
//!   pins per step, exactly what the detector's walk-scoped pin hoists.
//! * `alarm/record` — one alarm append to the lock-free segment list
//!   ([`AlarmSink`]): ≈ 20 ns uncontended.  PR 3 measured the `Mutex<Vec>`
//!   log it replaced (deleted in PR 15) at ≈ 29 ns; the bigger win is that
//!   recorders and snapshot readers never block each other.
//!
//! (Numbers are medians of `cargo bench -p promise-bench --bench data_plane`
//! on the 2-CPU container this repo is developed in — the arena, block and
//! epoch arms refreshed at PR 14, the rest from the earlier 1-CPU box;
//! re-run to refresh.)
//!
//! [`epoch::pin`]: promise_core::epoch::pin
//! [`AlarmSink`]: promise_core::AlarmSink

use std::sync::{Arc, Barrier};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use promise_core::arena::{SlotArena, CHUNK_SIZE};
use promise_core::bench_support;
use promise_core::counters::register_worker;
use promise_core::epoch;
use promise_core::slots::TaskSlot;
use promise_core::{AlarmSink, Context, Job};

/// Chain length for the detector walk (long enough that per-walk setup
/// noise vanishes behind the per-step cost).
const CHAIN: usize = 128;

fn bench_arena_alloc_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena/alloc-free");
    group.throughput(Throughput::Elements(1));

    let sharded: SlotArena<TaskSlot> = SlotArena::new();
    let _worker = register_worker();
    group.bench_function("magazine", |b| {
        b.iter(|| {
            let r = sharded.alloc();
            sharded.free(black_box(r));
        })
    });

    let global: SlotArena<TaskSlot> = SlotArena::new_global_only();
    group.bench_function("global", |b| {
        b.iter(|| {
            let r = global.alloc();
            global.free(black_box(r));
        })
    });
    group.finish();
}

fn contended_episode(arena: &Arc<SlotArena<TaskSlot>>, threads: usize, pairs: usize) {
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let arena = Arc::clone(arena);
            std::thread::spawn(move || {
                let _worker = register_worker();
                for _ in 0..pairs {
                    let r = arena.alloc();
                    arena.free(black_box(r));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn bench_arena_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena/alloc-free-contended");
    let threads = 4;
    let pairs = 2_000;
    group.throughput(Throughput::Elements((threads * pairs) as u64));

    let sharded: Arc<SlotArena<TaskSlot>> = Arc::new(SlotArena::new());
    group.bench_function("magazine", |b| {
        b.iter(|| contended_episode(&sharded, threads, pairs))
    });

    let global: Arc<SlotArena<TaskSlot>> = Arc::new(SlotArena::new_global_only());
    group.bench_function("global", |b| {
        b.iter(|| contended_episode(&global, threads, pairs))
    });
    group.finish();
}

/// Threads kept alive (registered, each having used the caches once, then
/// parked on a barrier) while the `*-many-live-threads` arms measure.
const LIVE_THREADS: usize = 64;

/// The case the single-thread arms never showed: one alloc + free pair from
/// a thread that registered *after* `LIVE_THREADS` others, all still alive.
/// Magazines claimed for a registration's lifetime sent this thread down
/// the shared path (its slot id collides with a live holder's); magazines
/// locked per operation serve it like any other.
fn bench_many_live_threads(c: &mut Criterion) {
    let arena: Arc<SlotArena<TaskSlot>> = Arc::new(SlotArena::new());
    let parked = Arc::new(Barrier::new(LIVE_THREADS + 1));
    let threads: Vec<_> = (0..LIVE_THREADS)
        .map(|_| {
            let (arena, parked) = (Arc::clone(&arena), Arc::clone(&parked));
            std::thread::spawn(move || {
                let _worker = register_worker();
                arena.free(arena.alloc());
                Job::new(|| ()).run();
                parked.wait();
                parked.wait();
            })
        })
        .collect();
    parked.wait();
    let _worker = register_worker();

    let mut group = c.benchmark_group("arena/alloc-free-many-live-threads");
    group.throughput(Throughput::Elements(1));
    group.bench_function("magazine", |b| {
        b.iter(|| {
            let r = arena.alloc();
            arena.free(black_box(r));
        })
    });
    group.finish();

    let mut group = c.benchmark_group("blocks/alloc-free-many-live-threads");
    group.throughput(Throughput::Elements(1));
    group.bench_function("magazine", |b| {
        b.iter(|| {
            Job::new(|| {
                black_box(0u64);
            })
            .run()
        })
    });
    group.finish();

    parked.wait();
    for t in threads {
        t.join().unwrap();
    }
}

fn bench_blocks_alloc_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("blocks/alloc-free");
    group.throughput(Throughput::Elements(1));
    let _worker = register_worker();
    group.bench_function("magazine", |b| {
        b.iter(|| {
            Job::new(|| {
                black_box(0u64);
            })
            .run()
        })
    });
    group.finish();
}

fn bench_epoch_pin(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch/pin");
    group.throughput(Throughput::Elements(1));

    // The full pin protocol: claim a cell by CAS-ing the observed epoch
    // into it, SeqCst fence, re-check; the unpin store hands it back.  This is the per-traversal
    // cost the detector pays and the per-read cost of `SlotArena::read`.
    group.bench_function("pin-unpin", |b| b.iter(|| drop(black_box(epoch::pin()))));

    // Nested pins only bump a TLS depth counter — the cheap case that
    // makes internally-pinning helpers safe to call from pinned contexts.
    let _outer = epoch::pin();
    group.bench_function("nested", |b| b.iter(|| drop(black_box(epoch::pin()))));
    group.finish();
}

fn bench_chunk_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena/chunk-churn");
    group.throughput(Throughput::Elements(CHUNK_SIZE as u64));

    // One full wave over a whole chunk, with reclamation: allocate
    // CHUNK_SIZE slots, free them all, then `reclaim()` — which retires
    // the chunk, advances the (quiescent) epoch past its grace period, and
    // unmaps it, so the next wave's allocations resurrect it.  The delta
    // against `keep-resident` is the price of a retire → free → resurrect
    // round trip amortised over the chunk's 1024 slots.
    let reclaiming: SlotArena<TaskSlot> = SlotArena::new_global_only();
    group.bench_function("reclaim-every-wave", |b| {
        b.iter(|| {
            let refs: Vec<_> = (0..CHUNK_SIZE).map(|_| reclaiming.alloc()).collect();
            for r in refs {
                reclaiming.free(black_box(r));
            }
            reclaiming.reclaim();
        })
    });

    // The same wave with the chunk kept resident (the pre-reclamation
    // behaviour): free-list pops and pushes only.
    let resident: SlotArena<TaskSlot> = SlotArena::new_global_only();
    group.bench_function("keep-resident", |b| {
        b.iter(|| {
            let refs: Vec<_> = (0..CHUNK_SIZE).map(|_| resident.alloc()).collect();
            for r in refs {
                resident.free(black_box(r));
            }
        })
    });
    group.finish();
}

fn bench_detector_chain_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector/chain-walk");
    group.throughput(Throughput::Elements(CHAIN as u64));

    let ctx = Context::new_verified();
    let (t0, p0) = bench_support::build_chain(&ctx, CHAIN);

    group.bench_function("fast", |b| {
        b.iter(|| {
            let deadlocked = bench_support::chain_walk(&ctx, t0, p0);
            assert!(!deadlocked);
        })
    });
    group.finish();
}

fn bench_alarm_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("alarm/record");
    group.throughput(Throughput::Elements(1));

    // Re-created periodically: the sink is append-only, so an unbounded
    // benchmark loop would otherwise grow it without limit.
    let mut sink: AlarmSink<u64> = AlarmSink::new();
    group.bench_function("sink", |b| {
        b.iter(|| {
            sink.push(black_box(7));
            if sink.len() >= 100_000 {
                sink = AlarmSink::new();
            }
        })
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_arena_alloc_free(c);
    bench_arena_contended(c);
    bench_blocks_alloc_free(c);
    bench_many_live_threads(c);
    bench_epoch_pin(c);
    bench_chunk_churn(c);
    bench_detector_chain_walk(c);
    bench_alarm_record(c);
}

criterion_group!(data_plane, benches);
criterion_main!(data_plane);
