//! The `summaries.fdss` wire format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic         4 bytes   "FDSS"
//! version       u32       currently 1
//! context_hash  u64       analysis-configuration fingerprint
//! method_count  u64
//! per method:
//!   signature     str       full method signature
//!   body_hash     u64       transitive body fingerprint
//!   entry_count   u32
//!   per entry (strictly ascending by entry fact):
//!     entry_fact    fact
//!     exit_count    u32
//!     per exit:     exit_idx u32, exit_fact fact
//! checksum      u64       FNV-1a 64 of every preceding byte
//! ```
//!
//! `str` is a u32 byte length followed by UTF-8 bytes. `fact` is a tag
//! byte (0 = zero, 1 = taint) and, for taints, an access path (base tag
//! 0 = local slot u32 / 1 = static field, field count u32, fields as
//! class + name strings, truncated u8), an active u8 and an optional
//! activation statement (tag u8, then method str + index u32).
//!
//! The checksum is FNV-1a rather than the workspace's Fx hash so this
//! crate stays dependency-free; it guards against truncation and
//! bit rot, not adversaries. Every decode path is bounds-checked and
//! returns [`StoreError::Corrupt`] instead of panicking.

use crate::store::StoreError;
use crate::{SymAp, SymBase, SymFact, SymField, SymStmt, SymSummary};

/// File magic.
pub const MAGIC: [u8; 4] = *b"FDSS";

/// Current format version.
pub const VERSION: u32 = 1;

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ================= encoding =================

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long for store"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn field(&mut self, f: &SymField) {
        self.str(&f.class);
        self.str(&f.name);
    }

    pub(crate) fn fact(&mut self, f: &SymFact) {
        match f {
            SymFact::Zero => self.u8(0),
            SymFact::Taint { ap, active, activation } => {
                self.u8(1);
                match &ap.base {
                    SymBase::Local(slot) => {
                        self.u8(0);
                        self.u32(*slot);
                    }
                    SymBase::Static(fld) => {
                        self.u8(1);
                        self.field(fld);
                    }
                }
                self.u32(u32::try_from(ap.fields.len()).expect("field chain too long"));
                for fld in &ap.fields {
                    self.field(fld);
                }
                self.u8(ap.truncated as u8);
                self.u8(*active as u8);
                match activation {
                    None => self.u8(0),
                    Some(st) => {
                        self.u8(1);
                        self.str(&st.method);
                        self.u32(st.idx);
                    }
                }
            }
        }
    }
}

// ================= decoding =================

pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt("unexpected end of file"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a count that prefixes elements of at least `min_elem_size`
    /// bytes each, rejecting counts the remaining input cannot hold (so
    /// a corrupted count cannot trigger a huge allocation).
    pub(crate) fn count(&mut self, min_elem_size: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.remaining() {
            return Err(StoreError::Corrupt("count exceeds remaining input"));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(StoreError::Corrupt("string length exceeds remaining input"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("string is not valid UTF-8"))
    }

    pub(crate) fn field(&mut self) -> Result<SymField, StoreError> {
        Ok(SymField { class: self.str()?, name: self.str()? })
    }

    pub(crate) fn fact(&mut self) -> Result<SymFact, StoreError> {
        match self.u8()? {
            0 => Ok(SymFact::Zero),
            1 => {
                let base = match self.u8()? {
                    0 => SymBase::Local(self.u32()?),
                    1 => SymBase::Static(self.field()?),
                    _ => return Err(StoreError::Corrupt("bad access-path base tag")),
                };
                let n = self.count(8)?; // a field is at least two length prefixes
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    fields.push(self.field()?);
                }
                let truncated = match self.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(StoreError::Corrupt("bad truncated flag")),
                };
                let active = match self.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(StoreError::Corrupt("bad active flag")),
                };
                let activation = match self.u8()? {
                    0 => None,
                    1 => Some(SymStmt { method: self.str()?, idx: self.u32()? }),
                    _ => return Err(StoreError::Corrupt("bad activation tag")),
                };
                Ok(SymFact::Taint {
                    ap: SymAp { base, fields, truncated },
                    active,
                    activation,
                })
            }
            _ => Err(StoreError::Corrupt("bad fact tag")),
        }
    }

    pub(crate) fn summary(&mut self) -> Result<SymSummary, StoreError> {
        Ok(SymSummary { exit_idx: self.u32()?, fact: self.fact()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fact() -> SymFact {
        SymFact::Taint {
            ap: SymAp {
                base: SymBase::Local(3),
                fields: vec![SymField { class: "A".into(), name: "f".into() }],
                truncated: false,
            },
            active: false,
            activation: Some(SymStmt { method: "<A: void m()>".into(), idx: 7 }),
        }
    }

    #[test]
    fn fact_round_trips() {
        for f in [SymFact::Zero, sample_fact()] {
            let mut w = Writer::new();
            w.fact(&f);
            let mut r = Reader::new(&w.buf);
            assert_eq!(r.fact().unwrap(), f);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn truncated_fact_is_rejected() {
        let mut w = Writer::new();
        w.fact(&sample_fact());
        for cut in 0..w.buf.len() {
            let mut r = Reader::new(&w.buf[..cut]);
            assert!(r.fact().is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn huge_count_is_rejected_without_allocation() {
        let mut w = Writer::new();
        w.u8(1); // taint
        w.u8(0); // local base
        w.u32(0);
        w.u32(u32::MAX); // absurd field count
        let mut r = Reader::new(&w.buf);
        assert!(matches!(r.fact(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
