//! The nine SPEC CPU2000 benchmarks of the paper's evaluation (§6.3),
//! as calibrated synthetic profiles.

use crate::generator::TraceGenerator;
use crate::profile::Profile;

/// One of the paper's nine SPEC CPU2000 benchmarks.
///
/// The profiles are calibrated so that, under the Table 1 machine, the
/// benchmarks land in the paper's qualitative groups:
///
/// * `gcc`, `gzip` — cache-friendly integer codes, little verification
///   overhead anywhere;
/// * `twolf`, `vortex`, `vpr` — working sets near the small L2 sizes, so
///   **cache contention** from hash lines is their main penalty (Fig. 4);
/// * `mcf` — enormous pointer-chasing working set: the worst chash
///   slowdown at 256 KB (latency- and bandwidth-bound);
/// * `applu`, `art`, `swim` — streaming FP codes that never fit: maximal
///   **bandwidth pollution**, and ~10× slowdowns under the naive scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[expect(
    missing_docs,
    reason = "each variant is a SPEC CPU2000 benchmark described above"
)]
pub enum Benchmark {
    Gcc,
    Gzip,
    Mcf,
    Twolf,
    Vortex,
    Vpr,
    Applu,
    Art,
    Swim,
}

impl Benchmark {
    /// All nine benchmarks in the paper's presentation order.
    pub const ALL: [Benchmark; 9] = [
        Benchmark::Gcc,
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::Twolf,
        Benchmark::Vortex,
        Benchmark::Vpr,
        Benchmark::Applu,
        Benchmark::Art,
        Benchmark::Swim,
    ];

    /// The benchmark's SPEC name.
    pub fn name(&self) -> &'static str {
        self.profile().name
    }

    /// The calibrated synthetic profile.
    pub fn profile(&self) -> Profile {
        match self {
            Benchmark::Gcc => Profile {
                name: "gcc",
                working_set: 8 << 20,
                hot_set: 96 << 10,
                hot_fraction: 0.87,
                mid_set: 768 << 10,
                far_fraction: 0.015,
                mem_fraction: 0.38,
                write_fraction: 0.30,
                run_words: 64,
                pointer_chase: 0.1,
                streaming_stores: 0.05,
                branch_fraction: 0.18,
                mispredict_rate: 0.08,
            },
            Benchmark::Gzip => Profile {
                name: "gzip",
                working_set: 8 << 20,
                hot_set: 96 << 10,
                hot_fraction: 0.86,
                mid_set: 640 << 10,
                far_fraction: 0.01,
                mem_fraction: 0.30,
                write_fraction: 0.25,
                run_words: 256,
                pointer_chase: 0.0,
                streaming_stores: 0.25,
                branch_fraction: 0.13,
                mispredict_rate: 0.08,
            },
            Benchmark::Mcf => Profile {
                name: "mcf",
                working_set: 16 << 20,
                hot_set: 64 << 10,
                hot_fraction: 0.7,
                mid_set: 16 << 20,
                far_fraction: 0.0,
                mem_fraction: 0.33,
                write_fraction: 0.15,
                run_words: 32,
                pointer_chase: 0.9,
                streaming_stores: 0.0,
                branch_fraction: 0.17,
                mispredict_rate: 0.09,
            },
            Benchmark::Twolf => Profile {
                name: "twolf",
                working_set: 8 << 20,
                hot_set: 64 << 10,
                hot_fraction: 0.88,
                mid_set: 768 << 10,
                far_fraction: 0.012,
                mem_fraction: 0.36,
                write_fraction: 0.25,
                run_words: 12,
                pointer_chase: 0.3,
                streaming_stores: 0.0,
                branch_fraction: 0.14,
                mispredict_rate: 0.11,
            },
            Benchmark::Vortex => Profile {
                name: "vortex",
                working_set: 8 << 20,
                hot_set: 64 << 10,
                hot_fraction: 0.88,
                mid_set: 1280 << 10,
                far_fraction: 0.015,
                mem_fraction: 0.37,
                write_fraction: 0.30,
                run_words: 32,
                pointer_chase: 0.15,
                streaming_stores: 0.05,
                branch_fraction: 0.16,
                mispredict_rate: 0.05,
            },
            Benchmark::Vpr => Profile {
                name: "vpr",
                working_set: 8 << 20,
                hot_set: 64 << 10,
                hot_fraction: 0.88,
                mid_set: 640 << 10,
                far_fraction: 0.01,
                mem_fraction: 0.36,
                write_fraction: 0.26,
                run_words: 16,
                pointer_chase: 0.25,
                streaming_stores: 0.0,
                branch_fraction: 0.14,
                mispredict_rate: 0.1,
            },
            Benchmark::Applu => Profile {
                name: "applu",
                working_set: 40 << 20,
                hot_set: 128 << 10,
                hot_fraction: 0.87,
                mid_set: 40 << 20,
                far_fraction: 0.0,
                mem_fraction: 0.40,
                write_fraction: 0.35,
                run_words: 2048,
                pointer_chase: 0.0,
                streaming_stores: 0.75,
                branch_fraction: 0.02,
                mispredict_rate: 0.01,
            },
            Benchmark::Art => Profile {
                name: "art",
                working_set: 8 << 20,
                hot_set: 128 << 10,
                hot_fraction: 0.88,
                mid_set: 8 << 20,
                far_fraction: 0.0,
                mem_fraction: 0.36,
                write_fraction: 0.10,
                run_words: 1024,
                pointer_chase: 0.1,
                streaming_stores: 0.05,
                branch_fraction: 0.08,
                mispredict_rate: 0.03,
            },
            Benchmark::Swim => Profile {
                name: "swim",
                working_set: 48 << 20,
                hot_set: 128 << 10,
                hot_fraction: 0.86,
                mid_set: 48 << 20,
                far_fraction: 0.0,
                mem_fraction: 0.36,
                write_fraction: 0.38,
                run_words: 2048,
                pointer_chase: 0.0,
                streaming_stores: 0.8,
                branch_fraction: 0.02,
                mispredict_rate: 0.01,
            },
        }
    }

    /// A deterministic trace generator for this benchmark.
    pub fn trace(&self, seed: u64) -> TraceGenerator {
        TraceGenerator::new(self.profile(), seed)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for b in Benchmark::ALL {
            b.profile().validate();
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn names_match_spec() {
        let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            ["gcc", "gzip", "mcf", "twolf", "vortex", "vpr", "applu", "art", "swim"]
        );
        assert_eq!(Benchmark::Mcf.to_string(), "mcf");
    }

    #[test]
    fn group_characteristics() {
        // Bandwidth-bound group has large working sets.
        for b in [Benchmark::Mcf, Benchmark::Applu, Benchmark::Swim] {
            assert!(b.profile().working_set >= 16 << 20, "{b}");
        }
        // Contention group's capacity-interesting region straddles the
        // L2 sweep (their far region is a thin long-distance trickle).
        for b in [Benchmark::Twolf, Benchmark::Vpr] {
            let p = b.profile();
            assert!(p.mid_set <= 2 << 20, "{b}");
            assert!(p.far_fraction < 0.05, "{b}");
        }
        // Only mcf chases pointers heavily; the FP streamers barely.
        assert!(Benchmark::Mcf.profile().pointer_chase >= 0.4);
        for b in [Benchmark::Applu, Benchmark::Swim, Benchmark::Art] {
            assert!(b.profile().pointer_chase <= 0.1, "{b}");
        }
        // The FP streamers stream.
        for b in [Benchmark::Applu, Benchmark::Swim] {
            assert!(b.profile().streaming_stores >= 0.5, "{b}");
        }
    }
}
