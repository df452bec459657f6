//! The workload parameter space.

/// Stochastic parameters describing one workload's memory behaviour.
///
/// All probabilities are in `[0, 1]`. See the crate docs for how each
/// knob maps onto the paper's benchmark characteristics.
///
/// # Examples
///
/// ```
/// use miv_trace::Profile;
///
/// let p = Profile::streaming_scan("custom", 8 << 20);
/// assert_eq!(p.name, "custom");
/// p.validate();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Display name.
    pub name: &'static str,
    /// Total bytes the workload touches (its footprint in the protected
    /// segment).
    pub working_set: u64,
    /// Size of the frequently-reused hot region (temporal locality).
    pub hot_set: u64,
    /// Probability a new access run targets the hot region.
    pub hot_fraction: f64,
    /// Size of the mid region — the capacity-interesting footprint that
    /// straddles the L2 sweep (256 KB – 4 MB). Runs that are neither hot
    /// nor far land here.
    pub mid_set: u64,
    /// Probability a new access run targets the *far* region (the whole
    /// working set): a small stream of long-reuse-distance traffic that
    /// keeps a realistic trickle of misses even in large caches.
    pub far_fraction: f64,
    /// Fraction of instructions that are memory operations.
    pub mem_fraction: f64,
    /// Of memory operations, the fraction that are stores.
    pub write_fraction: f64,
    /// Mean sequential-run length in 8-byte words (geometric). Memory
    /// accesses walk word-by-word through a run, then jump; long runs are
    /// what give SPEC its line-level (and hash-line-level) spatial
    /// locality, short runs make accesses effectively random.
    pub run_words: u32,
    /// Probability a load's address depends on the previous load
    /// (pointer chasing — serializes misses).
    pub pointer_chase: f64,
    /// Probability a store belongs to a whole-line streaming overwrite
    /// (enables the §5.3 write-allocate-without-fetch path).
    pub streaming_stores: f64,
    /// Fraction of instructions that are conditional branches (SPEC
    /// integer codes ≈ 0.12–0.18, FP codes far lower).
    pub branch_fraction: f64,
    /// Fraction of branches the predictor misses (redirecting fetch).
    pub mispredict_rate: f64,
}

impl Profile {
    /// Checks all parameters, returning the first problem found.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the invalid parameter.
    pub fn try_validate(&self) -> Result<(), String> {
        for (label, p) in [
            ("hot_fraction", self.hot_fraction),
            ("far_fraction", self.far_fraction),
            ("mem_fraction", self.mem_fraction),
            ("write_fraction", self.write_fraction),
            ("pointer_chase", self.pointer_chase),
            ("streaming_stores", self.streaming_stores),
            ("branch_fraction", self.branch_fraction),
            ("mispredict_rate", self.mispredict_rate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{label} = {p} out of [0,1]"));
            }
        }
        if self.run_words < 1 {
            return Err("run length must be at least one word".into());
        }
        if self.working_set < 4096 {
            return Err("working set too small".into());
        }
        if self.hot_set > self.working_set {
            return Err("hot set exceeds working set".into());
        }
        if !(self.hot_set <= self.mid_set && self.mid_set <= self.working_set) {
            return Err("regions must nest: hot ⊆ mid ⊆ working set".into());
        }
        if self.hot_fraction + self.far_fraction > 1.0 {
            return Err("hot + far probabilities exceed 1".into());
        }
        if self.branch_fraction + self.mem_fraction >= 1.0 {
            return Err("branches + memory operations must leave room for compute".into());
        }
        Ok(())
    }

    /// Asserts all parameters are in range.
    ///
    /// # Panics
    ///
    /// Panics with the message from [`try_validate`](Self::try_validate)
    /// on the first invalid parameter.
    #[expect(
        clippy::panic,
        reason = "documented '# Panics' assert API; try_validate is the non-panicking form"
    )]
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
    }

    /// A generic cache-friendly integer workload template.
    pub fn cache_friendly(name: &'static str, working_set: u64) -> Self {
        Profile {
            name,
            working_set,
            hot_set: working_set / 8,
            hot_fraction: 0.9,
            mid_set: working_set,
            far_fraction: 0.0,
            mem_fraction: 0.35,
            write_fraction: 0.3,
            run_words: 64,
            pointer_chase: 0.02,
            streaming_stores: 0.1,
            branch_fraction: 0.15,
            mispredict_rate: 0.07,
        }
    }

    /// A generic streaming-scan template (long sequential sweeps with
    /// little reuse — the applu/swim shape).
    pub fn streaming_scan(name: &'static str, working_set: u64) -> Self {
        Profile {
            name,
            working_set,
            hot_set: 64 << 10,
            hot_fraction: 0.15,
            mid_set: working_set,
            far_fraction: 0.0,
            mem_fraction: 0.45,
            write_fraction: 0.35,
            run_words: 2048,
            pointer_chase: 0.0,
            streaming_stores: 0.8,
            branch_fraction: 0.03,
            mispredict_rate: 0.01,
        }
    }

    /// A generic pointer-chasing template (the mcf shape).
    pub fn pointer_chaser(name: &'static str, working_set: u64) -> Self {
        Profile {
            name,
            working_set,
            hot_set: 512 << 10,
            hot_fraction: 0.35,
            mid_set: working_set,
            far_fraction: 0.0,
            mem_fraction: 0.4,
            write_fraction: 0.15,
            run_words: 4,
            pointer_chase: 0.5,
            streaming_stores: 0.0,
            branch_fraction: 0.16,
            mispredict_rate: 0.09,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_validate() {
        Profile::cache_friendly("a", 1 << 20).validate();
        Profile::streaming_scan("b", 32 << 20).validate();
        Profile::pointer_chaser("c", 64 << 20).validate();
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn invalid_probability_rejected() {
        let mut p = Profile::cache_friendly("bad", 1 << 20);
        p.mem_fraction = 1.5;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "hot set exceeds")]
    fn hot_set_bound() {
        let mut p = Profile::cache_friendly("bad", 1 << 20);
        p.hot_set = 2 << 20;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "run length")]
    fn zero_run_rejected() {
        let mut p = Profile::cache_friendly("bad", 1 << 20);
        p.run_words = 0;
        p.validate();
    }
}
