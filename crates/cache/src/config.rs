//! Cache geometry configuration.

use std::fmt;

/// Geometry of a set-associative cache.
///
/// All three parameters must be powers of two and consistent
/// (`size_bytes = sets × assoc × line_bytes` with at least one set).
///
/// # Examples
///
/// ```
/// use miv_cache::CacheConfig;
///
/// let cfg = CacheConfig::l2(1 << 20, 64); // 1 MB, 4-way, 64-B lines
/// assert_eq!(cfg.sets(), 4096);
/// assert_eq!(cfg.lines(), 16384);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line (block) size in bytes.
    pub line_bytes: u32,
}

/// Why [`CacheConfig::try_new`] rejected a geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// The named parameter is zero or not a power of two.
    NotPowerOfTwo(&'static str, u64),
    /// `(size_bytes, assoc, line_bytes)` has fewer lines than ways.
    TooSmall(u64, u32, u32),
    /// The geometry asks for this many lines, more than
    /// [`CacheConfig::MAX_LINES`].
    TooLarge(u64),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPowerOfTwo(what, v) => write!(f, "{what} must be a power of two, got {v}"),
            Self::TooSmall(size, assoc, line) => write!(
                f,
                "cache of {size} B is too small for {assoc} ways of {line} B lines"
            ),
            Self::TooLarge(lines) => write!(
                f,
                "cache of {lines} lines exceeds the model's limit of {}",
                CacheConfig::MAX_LINES
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

impl CacheConfig {
    /// The most lines a modelled cache may have (4 Mi lines: a 256 MB
    /// cache of 64-byte lines, about 100 MB of host tag array).
    pub const MAX_LINES: u64 = 1 << 22;

    /// Creates a configuration; panics where [`try_new`](Self::try_new)
    /// returns an error.
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u32) -> Self {
        Self::try_new(size_bytes, assoc, line_bytes).expect("documented invariant")
    }

    /// The fallible form of [`new`](Self::new), for user-supplied
    /// geometry: every parameter must be a power of two, with at least
    /// one set and at most [`MAX_LINES`](Self::MAX_LINES) lines.
    pub fn try_new(size_bytes: u64, assoc: u32, line_bytes: u32) -> Result<Self, GeometryError> {
        for (what, value) in [
            ("cache size", size_bytes),
            ("associativity", u64::from(assoc)),
            ("line size", u64::from(line_bytes)),
        ] {
            if !value.is_power_of_two() {
                return Err(GeometryError::NotPowerOfTwo(what, value));
            }
        }
        let lines = size_bytes / u64::from(line_bytes);
        if lines < u64::from(assoc) {
            return Err(GeometryError::TooSmall(size_bytes, assoc, line_bytes));
        }
        if lines > Self::MAX_LINES {
            return Err(GeometryError::TooLarge(lines));
        }
        Ok(CacheConfig {
            size_bytes,
            assoc,
            line_bytes,
        })
    }

    /// The paper's L1 geometry: 64 KB, 2-way, 32-byte lines (Table 1).
    pub fn l1() -> Self {
        CacheConfig::new(64 * 1024, 2, 32)
    }

    /// The paper's unified L2 geometry: 4-way with the given capacity and
    /// line size (Table 1 / Figure 3 sweeps capacity and line size).
    pub fn l2(size_bytes: u64, line_bytes: u32) -> Self {
        Self::try_l2(size_bytes, line_bytes).expect("documented invariant")
    }

    /// The fallible form of [`l2`](Self::l2), for user-supplied
    /// capacities and line sizes.
    pub fn try_l2(size_bytes: u64, line_bytes: u32) -> Result<Self, GeometryError> {
        CacheConfig::try_new(size_bytes, 4, line_bytes)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_bytes as u64)
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }

    /// The line-aligned base address of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }

    /// The set index for `addr`.
    pub fn set_index(&self, addr: u64) -> u64 {
        (addr / self.line_bytes as u64) % self.sets()
    }

    /// The tag for `addr` (the line address, which is unambiguous).
    pub fn tag(&self, addr: u64) -> u64 {
        self.line_addr(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometries() {
        let l1 = CacheConfig::l1();
        assert_eq!(l1.sets(), 1024);
        let l2 = CacheConfig::l2(256 * 1024, 64);
        assert_eq!(l2.sets(), 1024);
        let l2b = CacheConfig::l2(4 << 20, 128);
        assert_eq!(l2b.sets(), 8192);
    }

    #[test]
    fn line_addr_masks_offset() {
        let cfg = CacheConfig::l2(1 << 20, 64);
        assert_eq!(cfg.line_addr(0x12345), 0x12340);
        assert_eq!(cfg.line_addr(0x12340), 0x12340);
        assert_eq!(cfg.line_addr(0x1237f), 0x12340);
    }

    #[test]
    fn set_index_wraps() {
        let cfg = CacheConfig::new(1024, 2, 64); // 8 sets
        assert_eq!(cfg.sets(), 8);
        assert_eq!(cfg.set_index(0), 0);
        assert_eq!(cfg.set_index(64), 1);
        assert_eq!(cfg.set_index(64 * 8), 0);
        assert_eq!(cfg.set_index(64 * 9 + 13), 1);
    }

    #[test]
    fn rejects_bad_geometry() {
        let err = CacheConfig::try_new(1000, 2, 64).unwrap_err();
        assert_eq!(err, GeometryError::NotPowerOfTwo("cache size", 1000));
        assert!(CacheConfig::try_l2(1 << 20, 0).is_err(), "zero line size");
        let err = CacheConfig::try_new(64, 4, 64).unwrap_err();
        assert!(err.to_string().contains("too small"), "{err}");
        assert!(CacheConfig::try_l2(CacheConfig::MAX_LINES * 64, 64).is_ok());
        let err = CacheConfig::try_l2(1 << 40, 64).unwrap_err();
        assert_eq!(err, GeometryError::TooLarge(1 << 34));
    }

    #[test]
    #[should_panic(expected = "NotPowerOfTwo")]
    fn new_panics_on_bad_geometry() {
        let _ = CacheConfig::new(1000, 2, 64);
    }
}
