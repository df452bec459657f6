//! The block store's error vocabulary.

use std::fmt;
use std::io;

use miv_core::ConfigError;

/// A persistent structure failed structural validation.
///
/// Raised by the on-disk format parsers (superblock, trusted-root blob,
/// journal entries) — one typed vocabulary for "these bytes are not a
/// well-formed X". Structural damage is *not* an integrity violation:
/// it indicates corruption or truncation that any storage stack would
/// notice, and is reported before (and independently of) the root
/// verification that catches deliberate tampering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The magic prefix did not match.
    BadMagic {
        /// Which artifact was being parsed.
        what: &'static str,
    },
    /// Fewer bytes than the fixed header/frame requires.
    Truncated {
        /// Which artifact was being parsed.
        what: &'static str,
        /// Bytes the frame requires.
        needed: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A header field holds a value outside its representable range.
    FieldRange {
        /// Which field was malformed.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A declared length does not match the bytes that follow.
    LengthMismatch {
        /// Which artifact was being parsed.
        what: &'static str,
        /// Length the header declares.
        expected: u64,
        /// Length actually present.
        got: u64,
    },
    /// An embedded checksum over the frame did not match.
    ChecksumMismatch {
        /// Which artifact was being parsed.
        what: &'static str,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic { what } => write!(f, "{what}: bad magic"),
            FormatError::Truncated { what, needed, got } => {
                write!(f, "{what}: truncated ({got} bytes, need {needed})")
            }
            FormatError::FieldRange { what, value } => {
                write!(f, "{what}: value {value} out of range")
            }
            FormatError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: length {got} does not match declared {expected}"),
            FormatError::ChecksumMismatch { what } => write!(f, "{what}: checksum mismatch"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Anything the block store can fail with.
///
/// The variants split along the trust boundary the whole crate is
/// organized around: [`Config`](StoreError::Config) and
/// [`Format`](StoreError::Format) are *structural* problems any storage
/// stack would report; [`NoMatchingRoot`](StoreError::NoMatchingRoot)
/// and [`Integrity`](StoreError::Integrity) mean the untrusted medium
/// does not verify against the trusted root — the offline analogue of
/// the paper's memory-tampering exception; [`Crashed`](StoreError::Crashed)
/// surfaces an injected crash point (the medium died mid-operation);
/// [`Io`](StoreError::Io) is a genuine device error.
#[derive(Debug)]
pub enum StoreError {
    /// The requested geometry cannot produce a working store.
    Config(ConfigError),
    /// A persistent structure (superblock, root blob, journal entry)
    /// failed structural validation.
    Format(FormatError),
    /// A page's contents do not match the digest stored on its verified
    /// path to the trusted root.
    Integrity {
        /// The page whose verification failed.
        page: u64,
    },
    /// Neither superblock slot is both well-formed and consistent with
    /// the trusted root — a tampered superblock or a stale-image splice.
    NoMatchingRoot {
        /// The generation the trusted root demands.
        trusted_generation: u64,
    },
    /// The medium reported an injected crash; the store is dead and the
    /// caller must reopen from the trusted root to recover.
    Crashed,
    /// A previous operation failed; mirroring the engine's §5.8
    /// semantics, the store poisons itself and refuses further work.
    Poisoned,
    /// The journal region is full and cannot take another entry (an
    /// internal invariant violation: the auto-commit threshold is sized
    /// so this cannot happen).
    JournalFull,
    /// An underlying device error.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Config(e) => write!(f, "store configuration: {e}"),
            StoreError::Format(e) => write!(f, "store format: {e}"),
            StoreError::Integrity { page } => {
                write!(f, "store integrity violation: page {page} does not verify")
            }
            StoreError::NoMatchingRoot { trusted_generation } => write!(
                f,
                "no superblock matches trusted root generation {trusted_generation} \
                 (tampered superblock or stale image)"
            ),
            StoreError::Crashed => write!(f, "medium crashed (injected crash point)"),
            StoreError::Poisoned => write!(f, "store poisoned by an earlier failure"),
            StoreError::JournalFull => write!(f, "journal full (auto-commit threshold bug)"),
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ConfigError> for StoreError {
    fn from(e: ConfigError) -> Self {
        StoreError::Config(e)
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::Format(e)
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        // The crash injector reports through `ErrorKind::Interrupted`
        // (see `medium::CrashMedium`), which real device paths never
        // surface from the whole-buffer helpers used here.
        if e.kind() == io::ErrorKind::Interrupted {
            StoreError::Crashed
        } else {
            StoreError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_interrupted_maps_to_crashed() {
        let e: StoreError = io::Error::new(io::ErrorKind::Interrupted, "injected").into();
        assert!(matches!(e, StoreError::Crashed));
        let e: StoreError = io::Error::other("disk on fire").into();
        assert!(matches!(e, StoreError::Io(_)));
    }

    #[test]
    fn display_is_descriptive() {
        for (err, needle) in [
            (StoreError::Integrity { page: 7 }, "page 7"),
            (
                StoreError::NoMatchingRoot {
                    trusted_generation: 3,
                },
                "generation 3",
            ),
            (StoreError::Crashed, "crash"),
            (StoreError::Poisoned, "poisoned"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
        let cfg: StoreError = ConfigError::EmptySegment.into();
        assert!(cfg.to_string().contains("configuration"));
    }
}
