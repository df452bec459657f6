//! A compact binary on-disk trace format.
//!
//! The simulator is trace-driven; besides the synthetic generators, traces
//! can be recorded once and replayed from disk — useful for sharing exact
//! workloads, regression-pinning a measurement, or feeding externally
//! captured address streams into the machine.
//!
//! Format: an 8-byte magic (`MIVTRC01`), a little-endian `u64` record
//! count, then one record per instruction:
//!
//! ```text
//! tag 0x00: compute     + u8 latency
//! tag 0x01: load        + u64 address + u8 loads-ago dependency (0 = none)
//! tag 0x02: store       + u64 address + u8 full-line flag
//! tag 0x03: crypto barrier
//! ```
//!
//! # Examples
//!
//! ```
//! use miv_trace::file::{read_trace, write_trace};
//! use miv_trace::Benchmark;
//!
//! let window: Vec<_> = Benchmark::Gzip.trace(3).take(1000).collect();
//! let mut buf = Vec::new();
//! write_trace(&mut buf, window.iter().copied())?;
//! let back: Vec<_> = read_trace(buf.as_slice())?.collect::<Result<_, _>>()?;
//! assert_eq!(back, window);
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io::{self, Read, Write};

use miv_cpu::{LoadDep, TraceInst, TraceOp};

/// File magic: "MIVTRC" + format version "01".
pub const MAGIC: [u8; 8] = *b"MIVTRC01";

const TAG_COMPUTE: u8 = 0x00;
const TAG_LOAD: u8 = 0x01;
const TAG_STORE: u8 = 0x02;
const TAG_BARRIER: u8 = 0x03;
const TAG_BRANCH: u8 = 0x04;

/// Writes a trace to `w`, returning the number of records written.
///
/// A `&mut` reference can be passed as the writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W, I>(mut w: W, insts: I) -> io::Result<u64>
where
    W: Write,
    I: IntoIterator<Item = TraceInst>,
{
    // Buffer the body so the count header can be exact without a seek.
    let mut body = Vec::new();
    let mut count = 0u64;
    for inst in insts {
        match inst.op {
            TraceOp::Compute { latency } => {
                body.push(TAG_COMPUTE);
                body.push(latency);
            }
            TraceOp::Load { addr, dep } => {
                body.push(TAG_LOAD);
                body.extend_from_slice(&addr.to_le_bytes());
                body.push(match dep {
                    LoadDep::Independent => 0,
                    LoadDep::OnLoadsAgo(n) => n,
                });
            }
            TraceOp::Store { addr, full_line } => {
                body.push(TAG_STORE);
                body.extend_from_slice(&addr.to_le_bytes());
                body.push(full_line as u8);
            }
            TraceOp::CryptoBarrier => body.push(TAG_BARRIER),
            TraceOp::Branch { mispredicted } => {
                body.push(TAG_BRANCH);
                body.push(mispredicted as u8);
            }
        }
        count += 1;
    }
    w.write_all(&MAGIC)?;
    w.write_all(&count.to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(count)
}

/// A streaming reader over a trace file.
///
/// Yields `io::Result<TraceInst>`; a malformed record surfaces as an
/// `InvalidData` error.
#[derive(Debug)]
pub struct TraceFileReader<R> {
    reader: R,
    remaining: u64,
}

impl<R: Read> TraceFileReader<R> {
    /// Records remaining to be read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    fn read_u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.reader.read_exact(&mut b)?;
        Ok(b[0])
    }

    fn read_u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.reader.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_record(&mut self) -> io::Result<TraceInst> {
        let tag = self.read_u8()?;
        let inst = match tag {
            TAG_COMPUTE => {
                let latency = self.read_u8()?;
                if latency == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "compute record with zero latency",
                    ));
                }
                TraceInst::compute_latency(latency)
            }
            TAG_LOAD => {
                let addr = self.read_u64()?;
                let dep = match self.read_u8()? {
                    0 => LoadDep::Independent,
                    n => LoadDep::OnLoadsAgo(n),
                };
                TraceInst::load_dep(addr, dep)
            }
            TAG_STORE => {
                let addr = self.read_u64()?;
                match self.read_u8()? {
                    0 => TraceInst::store(addr),
                    1 => TraceInst::store_full_line(addr),
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("store record with invalid flag {other}"),
                        ))
                    }
                }
            }
            TAG_BARRIER => TraceInst::crypto_barrier(),
            TAG_BRANCH => match self.read_u8()? {
                0 => TraceInst::branch(),
                1 => TraceInst::branch_mispredicted(),
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("branch record with invalid flag {other}"),
                    ))
                }
            },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown record tag {other:#x}"),
                ))
            }
        };
        Ok(inst)
    }
}

impl<R: Read> Iterator for TraceFileReader<R> {
    type Item = io::Result<TraceInst>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.read_record())
    }
}

/// Opens a trace for streaming reads, validating the header.
///
/// A `&mut` reference can be passed as the reader.
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic, and propagates reader I/O
/// errors.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<TraceFileReader<R>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a miv trace file",
        ));
    }
    let mut count = [0u8; 8];
    r.read_exact(&mut count)?;
    Ok(TraceFileReader {
        reader: r,
        remaining: u64::from_le_bytes(count),
    })
}

/// A load or store that lies outside the protected segment a replay
/// runs over; see [`check_addresses`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressOutOfRange {
    /// Zero-based index of the offending record.
    pub record: usize,
    /// The address it accesses.
    pub addr: u64,
    /// Size of the protected segment in bytes.
    pub limit: u64,
}

impl std::fmt::Display for AddressOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {}: address {:#x} outside the {} B protected segment",
            self.record, self.addr, self.limit
        )
    }
}

impl std::error::Error for AddressOutOfRange {}

/// Checks that every load and store in a decoded trace addresses the
/// protected segment `0..limit`.
///
/// A trace file is untrusted input: its addresses are arbitrary `u64`s,
/// and the timing model treats an access outside the segment as a
/// programming error. Replays check the whole trace up front so a bad
/// file is rejected before any instruction runs.
///
/// # Errors
///
/// Returns the first record that accesses `limit` or above.
///
/// # Examples
///
/// ```
/// use miv_cpu::TraceInst;
/// use miv_trace::file::check_addresses;
///
/// let trace = [TraceInst::load(0x40), TraceInst::store(1 << 40)];
/// let err = check_addresses(&trace, 1 << 20).unwrap_err();
/// assert_eq!(err.record, 1);
/// assert_eq!(
///     err.to_string(),
///     "record 1: address 0x10000000000 outside the 1048576 B protected segment"
/// );
/// ```
pub fn check_addresses(insts: &[TraceInst], limit: u64) -> Result<(), AddressOutOfRange> {
    for (record, inst) in insts.iter().enumerate() {
        if let TraceOp::Load { addr, .. } | TraceOp::Store { addr, .. } = inst.op {
            if addr >= limit {
                return Err(AddressOutOfRange {
                    record,
                    addr,
                    limit,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;

    #[test]
    fn roundtrip_all_record_kinds() {
        let insts = vec![
            TraceInst::compute(),
            TraceInst::compute_latency(7),
            TraceInst::load(0xdead_beef_0120),
            TraceInst::load_dep(0x40, LoadDep::OnLoadsAgo(3)),
            TraceInst::store(0x80),
            TraceInst::store_full_line(0xc0),
            TraceInst::branch(),
            TraceInst::branch_mispredicted(),
            TraceInst::crypto_barrier(),
        ];
        let mut buf = Vec::new();
        assert_eq!(write_trace(&mut buf, insts.iter().copied()).unwrap(), 9);
        let reader = read_trace(buf.as_slice()).unwrap();
        assert_eq!(reader.remaining(), 9);
        let back: Vec<_> = reader.collect::<Result<_, _>>().unwrap();
        assert_eq!(back, insts);
    }

    #[test]
    fn roundtrip_generated_trace() {
        let window: Vec<_> = Benchmark::Mcf.trace(11).take(20_000).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, window.iter().copied()).unwrap();
        let back: Vec<_> = read_trace(buf.as_slice())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, window);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOTATRACE........."[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(0xff);
        let got: Vec<_> = read_trace(buf.as_slice()).unwrap().collect();
        assert!(got[0].is_err());
    }

    #[test]
    fn truncated_file_errors_cleanly() {
        let insts = vec![TraceInst::load(0x1234)];
        let mut buf = Vec::new();
        write_trace(&mut buf, insts).unwrap();
        buf.truncate(buf.len() - 3);
        let got: Vec<_> = read_trace(buf.as_slice()).unwrap().collect();
        assert!(got[0].is_err());
    }

    #[test]
    fn check_addresses_bounds_loads_and_stores() {
        let insts = [
            TraceInst::compute(),
            TraceInst::load(0xff),
            TraceInst::store_full_line(0xc0),
            TraceInst::crypto_barrier(),
        ];
        assert_eq!(check_addresses(&insts, 0x100), Ok(()));
        assert_eq!(
            check_addresses(&insts, 0xff),
            Err(AddressOutOfRange {
                record: 1,
                addr: 0xff,
                limit: 0xff
            })
        );
        let store = [TraceInst::load(0), TraceInst::store(u64::MAX)];
        assert_eq!(check_addresses(&store, u64::MAX).unwrap_err().record, 1);
    }

    #[test]
    fn empty_trace() {
        let mut buf = Vec::new();
        assert_eq!(write_trace(&mut buf, Vec::new()).unwrap(), 0);
        let mut reader = read_trace(buf.as_slice()).unwrap();
        assert!(reader.next().is_none());
    }
}
