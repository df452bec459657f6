//! Mutation test for trace files, which `mivsim run --trace` reads as
//! untrusted input.
//!
//! Valid traces are mutated with a fixed-seed [`Rng`] under a fixed
//! iteration budget — bit flips, truncation and huge header counts —
//! and each result goes through the replay's own front end:
//! [`read_trace`], then [`check_addresses`] against the protected
//! segment, then a replay on the timing model. Every input must end in
//! a typed error or a clean run: no panic, no hang, and no allocation
//! sized by the header's record count (a counting allocator bounds the
//! largest allocation made while decoding by the input's length).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use miv_core::timing::Scheme;
use miv_cpu::{Core, LoadDep, TraceInst};
use miv_obs::rng::Rng;
use miv_sim::{Hierarchy, SystemConfig};
use miv_trace::file::{check_addresses, read_trace, write_trace};

struct PeakAlloc;

// Per thread, like the disabled-recorder test: the libtest harness
// allocates concurrently on other threads.
thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|c| c.set(c.get().max(size)));
}

#[expect(
    unsafe_code,
    reason = "a counting GlobalAlloc must implement an unsafe trait; it stays in this test, outside the forbid(unsafe_code) library crates"
)]
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Protected segment of the replay machine.
const PROTECTED: u64 = 4 << 20;

const SCHEMES: [Scheme; 5] = [
    Scheme::Base,
    Scheme::Naive,
    Scheme::CHash,
    Scheme::MHash,
    Scheme::IHash,
];

/// A valid trace of every record kind; most addresses fall inside the
/// protected segment, a few sit just below its end.
fn valid_trace(rng: &mut Rng, records: usize) -> Vec<u8> {
    let insts: Vec<TraceInst> = (0..records)
        .map(|_| {
            let addr = if rng.gen_bool(0.05) {
                PROTECTED - rng.gen_range_u64(1, 256)
            } else {
                rng.gen_range_u64(0, PROTECTED)
            };
            match rng.pick_weighted(&[30, 30, 20, 10, 5, 5]) {
                0 => TraceInst::compute_latency(rng.gen_u8().max(1)),
                1 => TraceInst::load_dep(
                    addr,
                    match rng.gen_u8() % 4 {
                        0 => LoadDep::Independent,
                        _ => LoadDep::OnLoadsAgo(rng.gen_u8()),
                    },
                ),
                2 => TraceInst::store(addr),
                3 => TraceInst::store_full_line(addr),
                4 => TraceInst::branch_mispredicted(),
                _ => TraceInst::crypto_barrier(),
            }
        })
        .collect();
    let mut buf = Vec::new();
    write_trace(&mut buf, insts).expect("write to a Vec");
    buf
}

fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, records: usize) {
    match rng.gen_range_u64(0, 5) {
        0 => {
            for _ in 0..rng.gen_range_u64(1, 4) {
                let at = rng.gen_range_usize(0, bytes.len());
                bytes[at] ^= 1 << rng.gen_range_u64(0, 8);
            }
        }
        1 => bytes.truncate(rng.gen_range_usize(0, bytes.len())),
        2 => {
            let count = match rng.gen_range_u64(0, 3) {
                0 => u64::MAX,
                1 => 1 << rng.gen_range_u64(32, 64),
                _ => rng.next_u64(),
            };
            bytes[8..16].copy_from_slice(&count.to_le_bytes());
        }
        3 => {
            // A short count: the replay reads a prefix of the body.
            let count = rng.gen_range_usize(0, records) as u64;
            bytes[8..16].copy_from_slice(&count.to_le_bytes());
        }
        _ => {
            // A bit flip in the body behind a huge count.
            bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
            let at = rng.gen_range_usize(16, bytes.len());
            bytes[at] ^= 1 << rng.gen_range_u64(0, 8);
        }
    }
}

/// What the replay front end made of one input.
#[derive(Debug, Default)]
struct Outcomes {
    decode_errors: u32,
    address_errors: u32,
    clean_runs: u32,
}

fn replay(bytes: &[u8], scheme: Scheme, out: &mut Outcomes) {
    LARGEST.with(|c| c.set(0));
    let decoded = read_trace(bytes).and_then(|r| r.collect::<Result<Vec<_>, _>>());
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 64 * bytes.len().max(64),
        "decoding {} bytes allocated {largest} bytes at once",
        bytes.len()
    );
    let insts = match decoded {
        Ok(insts) => insts,
        Err(_) => {
            out.decode_errors += 1;
            return;
        }
    };
    if check_addresses(&insts, PROTECTED).is_err() {
        out.address_errors += 1;
        return;
    }
    let mut cfg = SystemConfig::hpca03(scheme, 64 << 10, 64);
    cfg.checker.protected_bytes = PROTECTED;
    let mut core = Core::new(cfg.core, Hierarchy::new(&cfg));
    let stats = core.run(insts.iter().copied());
    assert_eq!(stats.instructions, insts.len() as u64);
    out.clean_runs += 1;
}

#[test]
fn mutated_trace_files_fail_cleanly_or_replay() {
    let mut rng = Rng::seed_from_u64(0x7ace_f11e);
    let mut out = Outcomes::default();
    for i in 0..3_000 {
        let records = rng.gen_range_usize(1, 200);
        let mut bytes = valid_trace(&mut rng, records);
        mutate(&mut rng, &mut bytes, records);
        replay(&bytes, SCHEMES[i % SCHEMES.len()], &mut out);
    }
    // The budget reaches every outcome, so none of them is vacuous.
    assert!(out.decode_errors > 500, "{out:?}");
    assert!(out.address_errors > 50, "{out:?}");
    assert!(out.clean_runs > 500, "{out:?}");
}

#[test]
fn unmutated_traces_replay_on_every_scheme() {
    let mut rng = Rng::seed_from_u64(0x7ace_0001);
    for scheme in SCHEMES {
        let bytes = valid_trace(&mut rng, 500);
        let mut out = Outcomes::default();
        replay(&bytes, scheme, &mut out);
        assert_eq!(out.clean_runs, 1, "{scheme:?}: {out:?}");
    }
}

#[test]
fn a_huge_header_count_over_a_short_body_is_a_read_error() {
    let mut rng = Rng::seed_from_u64(0x7ace_0002);
    let mut bytes = valid_trace(&mut rng, 3);
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    let mut out = Outcomes::default();
    replay(&bytes, Scheme::CHash, &mut out);
    assert_eq!(out.decode_errors, 1, "{out:?}");
}
