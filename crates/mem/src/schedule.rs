//! Gap-filling interval scheduling for shared timing resources.
//!
//! The simulator books resources (bus, hash unit) at the moment a request
//! is *issued*, but issue order is not arrival order: a verification chain
//! triggered by one miss books transactions far in the future, and the
//! next demand miss — issued later in simulation order but *earlier in
//! simulated time* — must not queue behind them. [`IntervalSchedule`]
//! therefore keeps the set of busy intervals and places each new
//! occupancy in the earliest gap at or after its ready time, exactly as a
//! real arbiter granting an idle bus would.

/// A timeline of non-overlapping busy intervals with earliest-gap
/// placement.
///
/// The intervals live in one `Vec` sorted by start and searched with
/// `partition_point`. Bookings cluster near the end of the timeline, so
/// an insert moves few elements, and a search touches contiguous memory.
///
/// # Examples
///
/// ```
/// use miv_mem::schedule::IntervalSchedule;
///
/// let mut s = IntervalSchedule::new();
/// assert_eq!(s.book(100, 40), 100); // empty: starts at ready time
/// assert_eq!(s.book(100, 40), 140); // queues behind the first
/// // A 20-cycle request ready at 0 back-fills the idle prefix:
/// assert_eq!(s.book(0, 20), 0);
/// ```
#[derive(Debug, Clone)]
pub struct IntervalSchedule {
    /// `(start, end)` of each busy interval, sorted by start,
    /// non-overlapping and never touching (touching intervals coalesce).
    busy: Vec<(u64, u64)>,
    /// Low-water mark: intervals ending before this can be pruned.
    low_water: u64,
    /// Adaptive prune trigger: doubled whenever pruning cannot shrink the
    /// list (avoids O(n) retain on every insert during booking bursts).
    prune_at: usize,
    /// Total cycles of intervals dropped by pruning (all of which ended
    /// before the low-water mark), so [`busy_through`](Self::busy_through)
    /// stays exact across pruning.
    pruned_cycles: u64,
}

impl Default for IntervalSchedule {
    fn default() -> Self {
        Self::new()
    }
}

impl IntervalSchedule {
    /// Creates an empty (fully idle) schedule.
    pub fn new() -> Self {
        IntervalSchedule {
            busy: Vec::new(),
            low_water: 0,
            prune_at: 4096,
            pruned_cycles: 0,
        }
    }

    /// Books `duration` cycles at the earliest gap starting at or after
    /// `ready`; returns the start time.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn book(&mut self, ready: u64, duration: u64) -> u64 {
        assert!(duration > 0, "zero-length booking");
        let mut t = ready;
        // Start from the interval that could overlap `t`: the last one
        // beginning at or before it, `i - 1`. Intervals from `i` on begin
        // at or after the end of `i - 1`, so the forward walk starts at `i`.
        let mut i = self.busy.partition_point(|&(start, _)| start <= t);
        if i > 0 && self.busy[i - 1].1 > t {
            t = self.busy[i - 1].1;
        }
        // Walk forward through later intervals until a gap fits.
        while let Some(&(start, end)) = self.busy.get(i) {
            if t + duration <= start {
                break;
            }
            t = t.max(end);
            i += 1;
        }
        // Insert [t, t+duration) between `i - 1` (ends at or before `t`)
        // and `i` (starts at or after `t + duration`), coalescing with
        // touching neighbours so a densely packed region stays a single
        // interval — this keeps the gap walk O(number of gaps) instead of
        // O(number of bookings), which matters when write-back avalanches
        // book thousands of transfers around the same timestamp.
        let end = t + duration;
        let joins_prev = i > 0 && self.busy[i - 1].1 == t;
        let joins_next = i < self.busy.len() && self.busy[i].0 == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.busy[i - 1].1 = self.busy[i].1;
                self.busy.remove(i);
            }
            (true, false) => self.busy[i - 1].1 = end,
            (false, true) => self.busy[i].0 = t,
            (false, false) => self.busy.insert(i, (t, end)),
        }
        if self.busy.len() > self.prune_at {
            self.prune();
            // If nothing was prunable, back off so bursts of future
            // bookings do not pay an O(n) retain per insert.
            self.prune_at = (self.busy.len() * 2).max(4096);
        }
        t
    }

    /// Raises the low-water mark; intervals ending before it are dropped
    /// the next time the list outgrows its prune trigger.
    ///
    /// The mark is a hint, not a guarantee: callers pass the issue time
    /// of a demand access, and issue times are not monotone (a dependent
    /// load issues at its producer's completion time, an L1 victim
    /// write-back at the fill's ready time). A later booking may
    /// therefore be ready before the mark. If the interval it would have
    /// collided with is already pruned, it lands in the freed gap instead
    /// of queuing. Which intervals are gone depends on when pruning ran,
    /// so the prune cadence is part of the modelled timing: changing when
    /// or what is pruned changes simulation output.
    pub fn advance_low_water(&mut self, time: u64) {
        self.low_water = self.low_water.max(time);
    }

    /// Number of busy intervals currently retained (for tests).
    pub fn retained(&self) -> usize {
        self.busy.len()
    }

    /// Busy cycles that have *elapsed* by time `t`: each booked interval
    /// contributes its overlap with `[0, t)`. Unlike summing bookings at
    /// issue time, this attributes an interval straddling `t` only up to
    /// `t`, so the delta between two queries never exceeds the wall-clock
    /// cycles between them — exact utilization, no clamping.
    ///
    /// Exact for any `t` at or above the low-water mark when pruning last
    /// ran (pruned intervals, counted in full, all ended before it).
    pub fn busy_through(&self, t: u64) -> u64 {
        let before = self.busy.partition_point(|&(start, _)| start < t);
        self.pruned_cycles
            + self.busy[..before]
                .iter()
                .map(|&(start, end)| end.min(t) - start)
                .sum::<u64>()
    }

    /// Clears everything (statistics-style reset).
    pub fn reset(&mut self) {
        self.busy.clear();
        self.low_water = 0;
        self.prune_at = 4096;
        self.pruned_cycles = 0;
    }

    fn prune(&mut self) {
        let keep = self.low_water;
        let mut freed = 0u64;
        self.busy.retain(|&(start, end)| {
            if end >= keep {
                true
            } else {
                freed += end - start;
                false
            }
        });
        self.pruned_cycles += freed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_starts_at_ready() {
        let mut s = IntervalSchedule::new();
        assert_eq!(s.book(0, 10), 0);
        assert_eq!(s.book(100, 10), 100);
    }

    #[test]
    fn fifo_when_contended() {
        let mut s = IntervalSchedule::new();
        assert_eq!(s.book(0, 40), 0);
        assert_eq!(s.book(0, 40), 40);
        assert_eq!(s.book(0, 40), 80);
    }

    #[test]
    fn backfills_gaps() {
        let mut s = IntervalSchedule::new();
        assert_eq!(s.book(1000, 40), 1000); // future booking
        assert_eq!(s.book(0, 40), 0, "idle prefix must be usable");
        assert_eq!(s.book(0, 40), 40);
        // Gap between 80 and 1000 fits more:
        assert_eq!(s.book(50, 40), 80);
        // A booking too large for the 120..1000 gap? 880 fits; 881 doesn't.
        assert_eq!(s.book(120, 880), 120);
        assert_eq!(s.book(120, 10), 1040, "everything earlier is now full");
    }

    #[test]
    fn exact_fit_gap() {
        let mut s = IntervalSchedule::new();
        s.book(0, 10); // 0..10
        s.book(20, 10); // 20..30
        assert_eq!(s.book(0, 10), 10, "exact 10..20 gap");
        assert_eq!(s.book(0, 10), 30);
    }

    #[test]
    fn ready_inside_busy_interval() {
        let mut s = IntervalSchedule::new();
        s.book(0, 100); // 0..100
        assert_eq!(s.book(50, 10), 100);
    }

    #[test]
    fn pruning_keeps_behaviour() {
        let mut s = IntervalSchedule::new();
        for i in 0..10_000u64 {
            let start = s.book(i * 50, 40);
            assert!(start >= i * 50);
            s.advance_low_water(i * 50);
        }
        assert!(s.retained() <= 4200, "pruned: {}", s.retained());
    }

    #[test]
    fn busy_through_is_exact_across_pruning() {
        let mut pruned = IntervalSchedule::new();
        let mut unpruned = IntervalSchedule::new();
        for i in 0..10_000u64 {
            // Alternate gaps so intervals cannot all coalesce away.
            let ready = i * 100 + (i % 2) * 7;
            pruned.book(ready, 40);
            unpruned.book(ready, 40);
            pruned.advance_low_water(i * 100);
        }
        assert!(pruned.retained() < unpruned.retained());
        // Exact at or above the low-water mark (the monotone query
        // pattern utilization sampling uses).
        for t in [999_900u64, 999_983, 1_000_200, 2_000_000] {
            assert_eq!(pruned.busy_through(t), unpruned.busy_through(t), "t={t}");
        }
        // Monotone and bounded by elapsed time.
        assert!(unpruned.busy_through(1000) <= 1000);
        assert!(pruned.busy_through(2_000_000) >= pruned.busy_through(999_900));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_duration_rejected() {
        let mut s = IntervalSchedule::new();
        s.book(0, 0);
    }
}
