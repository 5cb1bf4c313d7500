//! Allocator calls of the arena's reclaim cycle, under a counting global
//! allocator (this file is its own binary, so the allocator is private to
//! it; run with `--test-threads=1` — the counter is process-wide).
//!
//! Once one cycle has sized the arena's bookkeeping lists:
//!
//! * a `SlotArena::reclaim` that retires chunks makes no allocation — it
//!   splits the detached free list in place, without a scratch buffer;
//! * refilling the retired slots makes exactly one allocation per chunk
//!   mapped back in: the chunk itself, slots and all, in one block.
//!
//! If one of these fails after a change, something put an allocation back
//! on the reclaim or resurrect path (a scratch vector, a chunk header).

use std::sync::atomic::{AtomicU64, Ordering};

use promise_core::arena::{SlotArena, SlotValue, CHUNK_SIZE};
use promise_core::refs::PackedRef;
use promise_stats::{AllocStats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const CHUNKS: usize = 8;

struct Cell(AtomicU64);

impl SlotValue for Cell {
    fn new_empty() -> Self {
        Cell(AtomicU64::new(0))
    }
    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

fn allocations() -> u64 {
    AllocStats::snapshot().total_allocations
}

fn resident_chunks(arena: &SlotArena<Cell>) -> usize {
    arena.resident_bytes() / SlotArena::<Cell>::chunk_bytes()
}

/// Frees every occupancy in `refs`, drains the magazines and reclaims
/// until at most one chunk is resident: the fresh frontier's, which a
/// refill batch may have entered without filling.  Every other chunk is
/// fully free, so it retires.  Returns the allocations made by the reclaim
/// calls and the number of chunks they returned to the allocator.
fn free_and_reclaim(arena: &SlotArena<Cell>, refs: &mut Vec<PackedRef>) -> (u64, usize) {
    for r in refs.drain(..) {
        arena.free(r);
    }
    arena.release_worker_shard();
    let resident = resident_chunks(arena);
    let before = allocations();
    // Retired chunks wait in limbo until the epoch advances twice; each
    // reclaim call nudges it.
    for _ in 0..100_000 {
        arena.reclaim();
        if resident_chunks(arena) <= 1 {
            return (allocations() - before, resident - resident_chunks(arena));
        }
    }
    panic!("reclaim left {} chunks resident", resident_chunks(arena));
}

/// Allocates `n` occupancies into `refs` (whose capacity is reserved).
/// Returns the allocations made and the number of chunks mapped.
fn refill(arena: &SlotArena<Cell>, refs: &mut Vec<PackedRef>, n: usize) -> (u64, usize) {
    let resident = resident_chunks(arena);
    let before = allocations();
    refs.extend((0..n).map(|_| arena.alloc()));
    (allocations() - before, resident_chunks(arena) - resident)
}

#[test]
fn reclaim_allocates_nothing_and_resurrection_one_block_per_chunk() {
    let arena: SlotArena<Cell> = SlotArena::new();
    let n = CHUNKS * CHUNK_SIZE;
    let mut refs = Vec::with_capacity(n);
    // Warm-up: map the chunks fresh, then retire them once, which sizes
    // the limbo and retired-index lists.
    refill(&arena, &mut refs, n);
    free_and_reclaim(&arena, &mut refs);

    for cycle in 0..3 {
        let (allocs, resurrected) = refill(&arena, &mut refs, n);
        assert!(
            resurrected >= CHUNKS - 1,
            "cycle {cycle}: {resurrected} chunks mapped back in"
        );
        assert_eq!(
            allocs, resurrected as u64,
            "cycle {cycle}: {allocs} allocations to map {resurrected} chunks back in"
        );
        let (allocs, retired) = free_and_reclaim(&arena, &mut refs);
        assert_eq!(
            allocs, 0,
            "cycle {cycle}: reclaim made {allocs} allocations retiring {retired} chunks"
        );
    }
    assert_eq!(arena.live(), 0);
}
