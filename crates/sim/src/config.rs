//! Full-machine configuration (Table 1).

use miv_cache::CacheConfig;
use miv_core::timing::{CheckerConfig, Scheme};
use miv_core::ConfigError;
use miv_cpu::CoreConfig;
use miv_hash::{HashEngineConfig, Throughput};
use miv_mem::MemoryBusConfig;

/// The complete simulated machine.
///
/// # Examples
///
/// ```
/// use miv_core::Scheme;
/// use miv_sim::SystemConfig;
///
/// let cfg = SystemConfig::hpca03(Scheme::CHash, 1 << 20, 64);
/// assert_eq!(cfg.l2.size_bytes, 1 << 20);
/// assert_eq!(cfg.checker.chunk_bytes, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L1 hit latency in cycles (Table 1: 2).
    pub l1_latency: u64,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Memory bus / DRAM timing.
    pub bus: MemoryBusConfig,
    /// Integrity checker configuration (scheme, hash unit, buffers).
    pub checker: CheckerConfig,
}

impl SystemConfig {
    /// The paper's machine (Table 1) for a given scheme, L2 capacity and
    /// L2 line size. For `MHash`/`IHash` the chunk spans two L2 lines
    /// (the geometry Figure 8 evaluates); for the other schemes chunk =
    /// line. Panics where [`try_hpca03`](Self::try_hpca03) returns an
    /// error.
    pub fn hpca03(scheme: Scheme, l2_bytes: u64, l2_line: u32) -> Self {
        Self::try_hpca03(scheme, l2_bytes, l2_line).expect("documented invariant")
    }

    /// The fallible form of [`hpca03`](Self::hpca03): a malformed L2
    /// capacity or line size is a [`ConfigError::CacheGeometry`], not a
    /// panic.
    pub fn try_hpca03(scheme: Scheme, l2_bytes: u64, l2_line: u32) -> Result<Self, ConfigError> {
        let l2 = CacheConfig::try_l2(l2_bytes, l2_line)?;
        let mut checker = CheckerConfig::hpca03(scheme);
        checker.chunk_bytes = match scheme {
            // Saturating, so an absurd line size reaches the checker's
            // geometry validation instead of wrapping.
            Scheme::MHash | Scheme::IHash => l2_line.saturating_mul(2),
            Scheme::Base | Scheme::Naive | Scheme::CHash => l2_line,
        };
        Ok(SystemConfig {
            core: CoreConfig::default(),
            l1: CacheConfig::l1(),
            l1_latency: 2,
            l2,
            bus: MemoryBusConfig::default(),
            checker,
        })
    }

    /// Overrides the hash-unit throughput (Figure 6 sweep).
    pub fn with_hash_throughput(mut self, throughput: Throughput) -> Self {
        self.checker.hash = HashEngineConfig {
            throughput,
            ..self.checker.hash
        };
        self
    }

    /// Overrides the read/write buffer size (Figure 7 sweep).
    pub fn with_buffer_entries(mut self, entries: u32) -> Self {
        self.checker.buffer_entries = entries;
        self
    }

    /// Renders the Table 1 parameter listing.
    pub fn table1(&self) -> String {
        let mut out = String::new();
        let mut row = |name: &str, value: String| {
            out.push_str(&format!("  {name:<34} {value}\n"));
        };
        row("Clock frequency", "1 GHz".into());
        row(
            "L1 I/D-caches",
            format!(
                "{} KB, {}-way, {} B line (I-fetch not modelled)",
                self.l1.size_bytes >> 10,
                self.l1.assoc,
                self.l1.line_bytes
            ),
        );
        row(
            "L2 cache",
            format!(
                "unified, {} KB, {}-way, {} B line",
                self.l2.size_bytes >> 10,
                self.l2.assoc,
                self.l2.line_bytes
            ),
        );
        row("L1 latency", format!("{} cycles", self.l1_latency));
        row("L2 latency", format!("{} cycles", self.checker.l2_latency));
        row(
            "Memory latency (first chunk)",
            format!("{} cycles", self.bus.dram_latency),
        );
        row(
            "Memory bus",
            format!(
                "{} MHz, {}-B wide ({:.1} GB/s)",
                1000 / self.bus.cycles_per_beat,
                self.bus.beat_bytes,
                self.bus.peak_gbps()
            ),
        );
        row(
            "Fetch/decode, issue/commit width",
            format!("{0} / {0} per cycle", self.core.width),
        );
        row("Load/store queue size", format!("{}", self.core.lsq_size));
        row(
            "Register update unit size",
            format!("{}", self.core.ruu_size),
        );
        row(
            "Hash latency",
            format!("{} cycles", self.checker.hash.latency),
        );
        row(
            "Hash throughput",
            format!("{:.1} GB/s", self.checker.hash.throughput.as_gbps()),
        );
        row(
            "Hash read/write buffer",
            format!("{} entries each", self.checker.buffer_entries),
        );
        row("Hash length", "128 bits".into());
        row(
            "Protected segment",
            format!("{} MB", self.checker.protected_bytes >> 20),
        );
        row("Scheme", self.checker.scheme.to_string());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let cfg = SystemConfig::hpca03(Scheme::CHash, 1 << 20, 64);
        assert_eq!(cfg.core.width, 4);
        assert_eq!(cfg.core.ruu_size, 128);
        assert_eq!(cfg.core.lsq_size, 64);
        assert_eq!(cfg.l1.size_bytes, 64 * 1024);
        assert_eq!(cfg.l1_latency, 2);
        assert_eq!(cfg.checker.hash.latency, 160);
        assert_eq!(cfg.checker.buffer_entries, 16);
        assert!((cfg.bus.peak_gbps() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn mhash_gets_two_block_chunks() {
        let cfg = SystemConfig::hpca03(Scheme::MHash, 1 << 20, 64);
        assert_eq!(cfg.checker.chunk_bytes, 128);
        let cfg_i = SystemConfig::hpca03(Scheme::IHash, 1 << 20, 64);
        assert_eq!(cfg_i.checker.chunk_bytes, 128);
        let cfg_c = SystemConfig::hpca03(Scheme::CHash, 1 << 20, 128);
        assert_eq!(cfg_c.checker.chunk_bytes, 128);
    }

    #[test]
    fn sweep_helpers() {
        use miv_hash::Throughput;
        let cfg = SystemConfig::hpca03(Scheme::CHash, 1 << 20, 64)
            .with_hash_throughput(Throughput::gbps(0.8))
            .with_buffer_entries(2);
        assert_eq!(cfg.checker.buffer_entries, 2);
        assert!((cfg.checker.hash.throughput.as_gbps() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn table1_renders_key_rows() {
        let t = SystemConfig::hpca03(Scheme::CHash, 1 << 20, 64).table1();
        assert!(t.contains("1 GHz"));
        assert!(t.contains("1024 KB"));
        assert!(t.contains("1.6 GB/s"));
        assert!(t.contains("3.2 GB/s"));
        assert!(t.contains("160 cycles"));
        assert!(t.contains("chash"));
    }
}
