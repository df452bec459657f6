//! Differential test: the sorted-`Vec` [`IntervalSchedule`] against the
//! `BTreeMap` implementation it replaced, whose logic is kept here
//! verbatim as the reference. Both must return the same start for every
//! booking, retain the same number of intervals and report the same
//! `busy_through`, including across pruning, because the bus and the
//! hash unit keep their timing only if the interval set is identical.

use std::collections::BTreeMap;

use miv_mem::IntervalSchedule;
use miv_obs::rng::Rng;

/// The `BTreeMap`-backed schedule: same logic, renamed, comments dropped.
#[derive(Debug, Clone)]
struct BTreeSchedule {
    busy: BTreeMap<u64, u64>,
    low_water: u64,
    prune_at: usize,
    pruned_cycles: u64,
}

impl BTreeSchedule {
    fn new() -> Self {
        BTreeSchedule {
            busy: BTreeMap::new(),
            low_water: 0,
            prune_at: 4096,
            pruned_cycles: 0,
        }
    }

    fn book(&mut self, ready: u64, duration: u64) -> u64 {
        assert!(duration > 0, "zero-length booking");
        let mut t = ready;
        if let Some((_, &end)) = self.busy.range(..=t).next_back() {
            if end > t {
                t = end;
            }
        }
        for (&start, &end) in self.busy.range(t..) {
            if t + duration <= start {
                break;
            }
            t = t.max(end);
        }
        let mut start = t;
        let mut end = t + duration;
        if let Some((&ps, &pe)) = self.busy.range(..=start).next_back() {
            if pe == start {
                self.busy.remove(&ps);
                start = ps;
            }
        }
        if let Some((&ns, &ne)) = self.busy.range(end..).next() {
            if ns == end {
                self.busy.remove(&ns);
                end = ne;
            }
        }
        self.busy.insert(start, end);
        if self.busy.len() > self.prune_at {
            self.prune();
            self.prune_at = (self.busy.len() * 2).max(4096);
        }
        t
    }

    fn advance_low_water(&mut self, time: u64) {
        self.low_water = self.low_water.max(time);
    }

    fn retained(&self) -> usize {
        self.busy.len()
    }

    fn busy_through(&self, t: u64) -> u64 {
        self.pruned_cycles
            + self
                .busy
                .range(..t)
                .map(|(&start, &end)| end.min(t) - start)
                .sum::<u64>()
    }

    fn prune(&mut self) {
        let keep = self.low_water;
        let mut freed = 0u64;
        self.busy.retain(|&start, end| {
            if *end >= keep {
                true
            } else {
                freed += *end - start;
                false
            }
        });
        self.pruned_cycles += freed;
    }
}

/// Runs both schedules in lockstep and checks every observable.
struct Pair {
    sut: IntervalSchedule,
    reference: BTreeSchedule,
    ops: u64,
    /// Bookings after which the list shrank by more than a coalesce
    /// can remove: a prune that dropped intervals.
    prunes: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            sut: IntervalSchedule::new(),
            reference: BTreeSchedule::new(),
            ops: 0,
            prunes: 0,
        }
    }

    fn book(&mut self, ready: u64, duration: u64) -> u64 {
        self.ops += 1;
        let before = self.sut.retained();
        let got = self.sut.book(ready, duration);
        let want = self.reference.book(ready, duration);
        assert_eq!(got, want, "op {}: book({ready}, {duration})", self.ops);
        assert_eq!(
            self.sut.retained(),
            self.reference.retained(),
            "op {}: retained after book({ready}, {duration})",
            self.ops
        );
        if self.sut.retained() + 1 < before {
            self.prunes += 1;
        }
        got
    }

    fn advance_low_water(&mut self, time: u64) {
        self.ops += 1;
        self.sut.advance_low_water(time);
        self.reference.advance_low_water(time);
    }

    fn busy_through(&mut self, t: u64) {
        self.ops += 1;
        assert_eq!(
            self.sut.busy_through(t),
            self.reference.busy_through(t),
            "op {}: busy_through({t})",
            self.ops
        );
    }
}

/// Mixed traffic shaped like the simulator's: demand bookings around a
/// drifting "now", ready times that run behind it (dependent loads,
/// write-backs) or far ahead (verification chains), transfer- and
/// hash-sized durations at about half load (so intervals stay distinct
/// and the list outgrows the prune trigger), low-water advances that
/// sometimes jump past later ready times or land exactly on an
/// interval's end, and `busy_through` probes.
#[test]
fn matches_btreemap_reference_on_mixed_traffic() {
    let mut rng = Rng::seed_from_u64(0xd1ff_5c4e);
    let mut pair = Pair::new();
    let mut now = 0u64;
    let mut bookings = 0u64;
    while pair.ops < 150_000 {
        now += rng.gen_range_u64(0, 200);
        let ready = match rng.gen_range_usize(0, 10) {
            // Behind `now`: a producer's completion time or an L1
            // victim's ready time.
            0..=2 => now.saturating_sub(rng.gen_range_u64(0, 5_000)),
            // Far ahead: a verification chain booking its future steps.
            3 => now + rng.gen_range_u64(100, 20_000),
            _ => now + rng.gen_range_u64(0, 200),
        };
        let duration = match rng.gen_range_usize(0, 4) {
            0 => 40,                        // 64 B line transfer
            1 => 80,                        // 128 B line transfer
            2 => rng.gen_range_u64(1, 20),  // hash-unit issue slots
            _ => rng.gen_range_u64(1, 100), // anything else
        };
        let start = pair.book(ready, duration);
        bookings += 1;
        match rng.gen_range_usize(0, 8) {
            0 => {
                // Occasionally jump the mark ahead of bookings still to
                // come, as a late-issued access with an early `now` does.
                let jump = if rng.gen_bool(0.1) {
                    rng.gen_range_u64(0, 10_000)
                } else {
                    0
                };
                pair.advance_low_water(now + jump);
            }
            1 => {
                let t =
                    now.saturating_sub(rng.gen_range_u64(0, 2_000)) + rng.gen_range_u64(0, 4_000);
                pair.busy_through(t);
            }
            // The boundary of the retain condition: a mark exactly at
            // the end of an interval that may still be retained.
            2 => pair.advance_low_water(start + duration),
            _ => {}
        }
    }
    assert!(bookings > 100_000);
    assert!(pair.prunes >= 10, "pruning fired {} times", pair.prunes);
    pair.busy_through(now);
    pair.busy_through(u64::MAX / 2);
}

/// A low-water mark that trails far behind the bookings, so every prune
/// keeps more intervals than the 4096 floor and the next trigger is set
/// by doubling the survivors.
#[test]
fn matches_btreemap_reference_with_a_trailing_low_water() {
    let mut rng = Rng::seed_from_u64(0x7a11);
    let mut pair = Pair::new();
    let mut now = 0u64;
    for _ in 0..60_000 {
        now += rng.gen_range_u64(0, 200);
        pair.advance_low_water(now.saturating_sub(500_000));
        let ready = now.saturating_sub(rng.gen_range_u64(0, 1_000));
        pair.book(ready, rng.gen_range_u64(1, 60));
        if rng.gen_bool(0.01) {
            pair.busy_through(now.saturating_sub(rng.gen_range_u64(0, 600_000)));
        }
    }
    assert!(pair.prunes >= 3, "pruning fired {} times", pair.prunes);
    pair.busy_through(now);
}

/// A prewarm-shaped burst: a million bookings with no low-water advance,
/// so every prune finds nothing to drop and the prune trigger keeps
/// doubling. The ordinary traffic that follows advances the mark, yet
/// nothing is pruned until the list outgrows the doubled trigger: both
/// implementations must carry the same stale intervals.
#[test]
fn matches_btreemap_reference_through_a_prewarm_burst() {
    let mut rng = Rng::seed_from_u64(0x000b_0a57);
    let mut pair = Pair::new();
    let mut t = 0u64;
    for _ in 0..1_000_000 {
        // Mostly in order with gaps (so intervals stay distinct), some
        // ready behind the frontier to back-fill.
        t += rng.gen_range_u64(30, 100);
        let ready = if rng.gen_bool(0.2) {
            t.saturating_sub(rng.gen_range_u64(0, 1_000))
        } else {
            t
        };
        let duration = if rng.gen_bool(0.5) {
            40
        } else {
            rng.gen_range_u64(1, 30)
        };
        pair.book(ready, duration);
    }
    let burst = pair.sut.retained();
    assert!(burst > 500_000, "burst must grow the list: {burst}");
    for probe in [t / 3, t / 2, t] {
        pair.busy_through(probe);
    }
    for _ in 0..20_000 {
        t += rng.gen_range_u64(0, 80);
        pair.advance_low_water(t);
        let ready = t.saturating_sub(rng.gen_range_u64(0, 500));
        pair.book(ready, rng.gen_range_u64(1, 100));
        if rng.gen_bool(0.01) {
            pair.busy_through(t);
        }
    }
    assert!(
        pair.sut.retained() >= burst,
        "the doubled trigger defers pruning"
    );
    pair.busy_through(t);
    pair.busy_through(u64::MAX / 2);
}
