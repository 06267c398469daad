//! Allocation budget of the fusion resolve loop, as a count of heap blocks
//! per fused cell. A count repeats exactly from run to run, so this guard
//! cannot flake; it fails when a refactor puts a per-cell `Vec`, `String`
//! or set back into the loop (the loop this one replaced took about eight
//! blocks per cell for plain `COALESCE`).
//!
//! The counting allocator is the one piece of `unsafe` outside
//! `hummer_server::sys`; it is test-only and forwards to the system
//! allocator untouched.

use hummer_datagen::scenarios::person_scale;
use hummer_fusion::{fuse, FunctionRegistry, FusionSpec, ResolutionSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the measuring thread counts: the test harness allocates too.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_block() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap blocks `f` asks for on this thread (allocations and growths).
fn blocks<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BLOCKS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BLOCKS.load(Ordering::Relaxed) - before)
}

#[test]
fn fusion_allocates_per_row_not_per_cell() {
    // Two sources of about a thousand rows each (coverage is 0.7).
    let union = person_scale(1430, 2005).gold_annotated_union();
    assert!(union.len() > 1900 && union.len() < 2100, "{}", union.len());
    let registry = FunctionRegistry::standard();
    let pipeline_spec = || {
        FusionSpec::by_key(vec!["objectID"])
            .drop_column("objectID")
            .drop_column("sourceID")
    };

    // (what, spec, blocks per fused cell allowed). What a fused row needs:
    // its `Vec<Value>` and one `String` per text cell — three of the four
    // person columns — so one block per cell (1.02 measured); everything
    // else (groups, interned sources, the flat lineage, scratch) is per
    // table. The budgets leave half a block of slack, far below the eight
    // the per-cell loop took.
    let cases = [
        ("COALESCE everywhere", pipeline_spec(), 1.5),
        (
            "RESOLVE(Age, max)",
            pipeline_spec().resolve("Age", ResolutionSpec::named("max")),
            1.5,
        ),
        // A vote keeps one list of distinct values and one of voters.
        (
            "RESOLVE(City, vote)",
            pipeline_spec().resolve("City", ResolutionSpec::named("vote")),
            2.0,
        ),
        // A concatenation grows its string and lists every contributor.
        (
            "RESOLVE(Phone, concat)",
            pipeline_spec().resolve("Phone", ResolutionSpec::named("concat")),
            2.0,
        ),
    ];
    for (what, spec, budget) in cases {
        let (fused, blocks) = blocks(|| fuse(&union, &spec, &registry).unwrap());
        let cells = fused.table.len() * fused.table.schema().len();
        assert!(fused.merged_clusters > 300 && fused.conflict_count > 100);
        let per_cell = blocks as f64 / cells as f64;
        println!("{what}: {blocks} blocks for {cells} cells = {per_cell:.2} per cell");
        assert!(
            per_cell <= budget,
            "{what}: {blocks} blocks for {cells} fused cells is {per_cell:.2} per cell, budget {budget}"
        );
    }
}
