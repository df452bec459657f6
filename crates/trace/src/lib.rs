//! Synthetic SPEC CPU2000-like workloads for the memory integrity
//! simulator.
//!
//! The paper evaluates nine SPEC CPU2000 benchmarks (gcc, gzip, mcf,
//! twolf, vortex, vpr, applu, art, swim) on SimpleScalar, chosen for
//! their "varied characteristics such as the level of ILP, cache
//! miss-rates, etc." We cannot run Alpha binaries; instead each benchmark
//! is modelled as a parameterized stochastic instruction stream
//! ([`Profile`]) calibrated to reproduce the *memory-system character*
//! that the paper's results depend on:
//!
//! * **working-set size** vs the L2 capacity sweep (256 KB / 1 MB / 4 MB)
//!   — determines which benchmarks stop missing as the cache grows
//!   (twolf/vortex/vpr) and which never fit (mcf/applu/art/swim);
//! * **pointer chasing** — serializes misses (mcf), destroying
//!   memory-level parallelism;
//! * **streaming stores** over whole lines — the write-allocate-no-fetch
//!   scenario and the naive scheme's worst case (applu/swim);
//! * **spatial/temporal locality** — sets L1/L2 hit rates and therefore
//!   how much memory bandwidth the program itself needs.
//!
//! Generators are deterministic given a seed, so every figure in the
//! harness is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use miv_trace::Benchmark;
//!
//! let trace: Vec<_> = Benchmark::Mcf.trace(42).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! // Deterministic:
//! let again: Vec<_> = Benchmark::Mcf.trace(42).take(1000).collect();
//! assert_eq!(trace, again);
//! ```

#![forbid(unsafe_code)]

mod benchmark;
pub mod file;
mod generator;
mod profile;
mod stats;

pub use benchmark::Benchmark;
pub use generator::TraceGenerator;
pub use profile::Profile;
pub use stats::TraceSummary;
