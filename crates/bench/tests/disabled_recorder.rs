//! Asserts the disabled-recorder contract: a default (disabled) handle
//! records nothing and performs **zero heap allocations** per operation,
//! so instrumentation can live permanently in simulator hot paths.
//!
//! Uses a counting `GlobalAlloc` wrapper; this file is an integration
//! test so the `unsafe` allocator shim stays outside the
//! `#![forbid(unsafe_code)]` library crates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Counted per thread: the libtest harness allocates concurrently (it
// runs each test on its own thread and buffers output), so a
// process-global counter would pick up harness noise between the
// before/after reads and fail spuriously. `Cell<u64>` has no
// destructor, so the const-initialized TLS slot is valid for the whole
// thread lifetime and the allocator never recurses through lazy init.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

#[expect(
    unsafe_code,
    reason = "a counting GlobalAlloc must implement an unsafe trait; it stays in this test, outside the forbid(unsafe_code) library crates"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_handles_allocate_nothing_and_record_nothing() {
    use miv_obs::{Counter, EventSink, Gauge, Histogram, SimEvent};

    let counter = Counter::disabled();
    let gauge = Gauge::disabled();
    let histogram = Histogram::default();
    let sink = EventSink::disabled();
    assert!(!counter.is_enabled());
    assert!(!sink.is_enabled());

    let before = allocations();
    for i in 0..100_000u64 {
        counter.inc();
        counter.add(3);
        gauge.set(i as f64);
        histogram.record(i & 0x3ff);
        sink.record(i, SimEvent::HashEnqueue { bytes: 64 });
        sink.record(
            i,
            SimEvent::WalkEnd {
                chunk: i,
                depth: 2,
                reached_root: false,
            },
        );
    }
    let after = allocations();

    assert_eq!(after - before, 0, "disabled recorder path allocated");
    assert_eq!(counter.get(), 0);
    assert_eq!(gauge.get(), 0.0);
    assert_eq!(histogram.snapshot().count, 0);
}

#[test]
fn disabled_span_tracer_allocates_nothing_and_records_nothing() {
    use miv_obs::{ProfileSnapshot, SpanTracer};

    let tracer = SpanTracer::disabled();
    assert!(!tracer.is_enabled());

    let before = allocations();
    for i in 0..100_000u64 {
        let _guard = tracer.span("hit");
        tracer.attribute(i & 0xff);
        tracer.attribute_path(&["background", "bus", "data_read"], i & 0xff);
    }
    let after = allocations();

    assert_eq!(after - before, 0, "disabled span path allocated");
    assert_eq!(tracer.snapshot(), ProfileSnapshot::default());
}

#[test]
fn disabled_cache_observer_adds_no_counters() {
    use miv_cache::{Cache, CacheConfig, LineKind};

    // A cache with the default (disabled) observer: its built-in stats
    // advance, but no registry counters exist to receive anything.
    let mut cache = Cache::new(CacheConfig::new(8 << 10, 4, 64));
    // Warm one line, then hammer the steady-state hit path and check it
    // does not allocate per access.
    cache.fill(0, LineKind::Data, false);
    cache.lookup(0, LineKind::Data, false);
    let before = allocations();
    for _ in 0..10_000 {
        std::hint::black_box(cache.lookup(0, LineKind::Data, false));
    }
    let after = allocations();
    assert_eq!(after - before, 0, "disabled-observer hit path allocated");
    assert!(cache.stats().data.read_hits >= 10_000);
}
