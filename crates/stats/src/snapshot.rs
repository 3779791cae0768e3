//! Deterministic, versioned, checksummed snapshot container — the wire
//! format every durable posterior checkpoint is written in.
//!
//! The container is deliberately boring: a fixed preamble followed by
//! length-prefixed, individually CRC-32-checked sections. Every number is
//! little-endian; every `f64` travels as its exact IEEE-754 bit pattern
//! ([`f64::to_bits`]), so encoding is a *pure function of canonical state* —
//! no wall clock, no pointer-dependent ordering, no float formatting. That
//! purity is what the round-trip gate relies on: save → load → re-save is
//! byte-identical, and two replicas loading the same file hold bit-identical
//! posteriors.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic              8 bytes   b"OSRSNAP\0"
//! format version     u32       SNAPSHOT_FORMAT_VERSION
//! dim                u32       feature dimension of the model
//! method tag         u16 len + UTF-8 bytes (e.g. "cdosr")
//! section count      u32
//! header CRC-32      u32       over every preceding byte
//! per section:
//!   section id       u32
//!   payload length   u64
//!   section CRC-32   u32       over id ‖ length ‖ payload
//!   payload          length bytes
//! ```
//!
//! The preamble layout (through the header CRC) is frozen across format
//! versions, so a reader can always distinguish "future version"
//! ([`SnapshotError::VersionSkew`]) from "bit rot" (the header CRC fails
//! first). Loading never panics: truncation, bit-flips, version skew, and
//! shape mismatches each map to a typed [`SnapshotError`].

use std::fmt;

/// Current snapshot container format version. Bump on any layout change;
/// readers reject every other version with [`SnapshotError::VersionSkew`].
/// Version 2 dropped the HDP's separate prior-posterior section (id 5): the
/// dish bank already carries the prior's predictive constants. Version 3
/// writes each posterior fact once: per-item seats, dish slots, table and
/// item counts, the bank's free-list, the serving layer's copy of the
/// sampler schedule and the seat-move counter are derived on load instead.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// The 8-byte file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"OSRSNAP\0";

/// Pseudo section id reported when the *header* checksum fails.
pub const HEADER_SECTION: u32 = u32::MAX;

/// Typed failure of snapshot encoding, decoding, or persistence. Never a
/// panic: every corruption mode a disk or a truncated copy can produce has
/// a variant, so callers can log precisely and fall back to last-good state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// The file's format version is not the one this build reads.
    VersionSkew {
        /// Version found in the header.
        found: u32,
        /// Version this build supports ([`SNAPSHOT_FORMAT_VERSION`]).
        supported: u32,
    },
    /// The byte stream ended before a declared structure was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes the structure required.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A CRC-32 mismatch: the bytes of `section` were altered after writing
    /// ([`HEADER_SECTION`] means the preamble itself).
    ChecksumMismatch {
        /// Section id whose checksum failed.
        section: u32,
    },
    /// The snapshot's feature dimension does not match the consumer's.
    DimensionMismatch {
        /// Dimension the consumer expects.
        expected: usize,
        /// Dimension the snapshot carries.
        got: usize,
    },
    /// The snapshot was written by a different method than the consumer.
    MethodMismatch {
        /// Method tag the consumer expects.
        expected: String,
        /// Method tag the snapshot carries.
        got: String,
    },
    /// A section the decoder requires is absent.
    MissingSection {
        /// The absent section's id.
        section: u32,
    },
    /// Structurally invalid payload (checksums passed, but the decoded
    /// values violate a model invariant — message explains).
    Malformed(String),
    /// An I/O failure while persisting or reading (message carries the
    /// OS error; stored as a string so the error stays `Clone + PartialEq`).
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            Self::VersionSkew { found, supported } => {
                write!(f, "snapshot format version {found} is not supported (this build reads version {supported})")
            }
            Self::Truncated { context, expected, got } => {
                write!(f, "snapshot truncated reading {context}: needed {expected} byte(s), had {got}")
            }
            Self::ChecksumMismatch { section } if *section == HEADER_SECTION => {
                write!(f, "snapshot header checksum mismatch (corrupted preamble)")
            }
            Self::ChecksumMismatch { section } => {
                write!(f, "snapshot section {section} checksum mismatch (corrupted payload)")
            }
            Self::DimensionMismatch { expected, got } => {
                write!(f, "snapshot dimension {got} does not match the expected dimension {expected}")
            }
            Self::MethodMismatch { expected, got } => {
                write!(f, "snapshot was written by method `{got}`, expected `{expected}`")
            }
            Self::MissingSection { section } => {
                write!(f, "snapshot lacks required section {section}")
            }
            Self::Malformed(msg) => write!(f, "malformed snapshot payload: {msg}"),
            Self::Io(msg) => write!(f, "snapshot I/O failure: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Crate-internal result alias for snapshot codecs.
pub type SnapResult<T> = std::result::Result<T, SnapshotError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// The reflected IEEE polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table, and `CRC_TABLES[k][b]` is the CRC state after feeding byte `b`
/// followed by `k` zero bytes, so eight table lookups fold eight input bytes
/// at once while producing exactly the bytewise checksum.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC_POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Parts at least this long are folded in [`CRC_LANES`] interleaved lanes.
const CRC_LANE_MIN_BYTES: usize = 4096;

/// Independent CRC chains folded side by side over a long part
/// ([`crc32_update`] unrolls exactly this many by hand). One slicing-by-8
/// chain is bound by the latency of its dependent table lookups; on a
/// 2-vCPU Xeon four hand-unrolled chains read a 103,638-byte buffer about
/// 3× faster than one, and a generic N-chain loop was slower at every N
/// from 2 to 8.
const CRC_LANES: usize = 4;

/// Multiply two polynomials modulo the CRC polynomial, both in the
/// reflected bit order of the register (bit 31 holds `x^0`) — zlib's
/// `multmodp`.
const fn gf2_mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ CRC_POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X_POW_2K[k]` is `x^(2^k)` modulo the CRC polynomial. The powers repeat
/// with period 32 because the order of `x` divides `2^32 − 1`.
const fn x_pow_2k_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = gf2_mul_mod(p, p);
        k += 1;
    }
    table
}

static X_POW_2K: [u32; 32] = x_pow_2k_table();

/// `x^(8·len)` modulo the CRC polynomial: the operator that advances a CRC
/// register over `len` bytes of zeros.
fn crc32_zeros_operator(len: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = len;
    let mut k = 3; // 8·len = len·2^3
    while n != 0 {
        if n & 1 != 0 {
            p = gf2_mul_mod(X_POW_2K[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Register after `A ‖ B`, from the register after `A` (any start state)
/// and the register after `B` started from zero, where `shift` is
/// [`crc32_zeros_operator`]`(|B|)`: the register update is linear, so
/// `reg(A ‖ B) = x^(8·|B|)·reg(A) ⊕ reg₀(B)` (zlib's `crc32_combine`).
fn crc32_combine(reg_a: u32, reg0_b: u32, shift: u32) -> u32 {
    gf2_mul_mod(shift, reg_a) ^ reg0_b
}

/// Fold one 8-byte word into the register (slicing-by-8).
#[inline(always)]
fn crc32_word(crc: u32, c: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][c[4] as usize]
        ^ t[2][c[5] as usize]
        ^ t[1][c[6] as usize]
        ^ t[0][c[7] as usize]
}

/// Advance the register `crc` over `bytes`. A part of at least
/// [`CRC_LANE_MIN_BYTES`] is cut into [`CRC_LANES`] equal lanes of whole
/// words, folded together as independent chains (the first continuing from
/// `crc`, the others from zero) and joined with [`crc32_combine`]; the rest
/// runs eight bytes at a time, then bytewise.
fn crc32_update(mut crc: u32, mut bytes: &[u8]) -> u32 {
    if bytes.len() >= CRC_LANE_MIN_BYTES {
        let lane_len = bytes.len() / (8 * CRC_LANES) * 8;
        let (l0, rest) = bytes.split_at(lane_len);
        let (l1, rest) = rest.split_at(lane_len);
        let (l2, rest) = rest.split_at(lane_len);
        let (l3, rest) = rest.split_at(lane_len);
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        let words = l0.chunks_exact(8).zip(l1.chunks_exact(8));
        let words = words.zip(l2.chunks_exact(8)).zip(l3.chunks_exact(8));
        for (((w0, w1), w2), w3) in words {
            c0 = crc32_word(c0, w0);
            c1 = crc32_word(c1, w1);
            c2 = crc32_word(c2, w2);
            c3 = crc32_word(c3, w3);
        }
        let shift = crc32_zeros_operator(lane_len);
        crc = [c1, c2, c3].into_iter().fold(c0, |reg, lane| crc32_combine(reg, lane, shift));
        bytes = rest;
    }
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = crc32_word(crc, w);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE) of `bytes` — the checksum stamped on every section.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// CRC-32 over the concatenation of `parts` without materializing it —
/// used to stamp a section's id and length together with its payload, so a
/// bit-flip in the section framing is caught exactly like one in the data.
/// The CRC state streams across part boundaries.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(0xFFFF_FFFF, |crc, part| crc32_update(crc, part))
}

// ---------------------------------------------------------------------------
// Primitive encoder / decoder
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder for section payloads. Infallible: it
/// only grows a buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty payload buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the format is 64-bit on every host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its exact bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a slice of `f64`s (length is *not* written; callers prefix it
    /// explicitly where the length is not implied by earlier fields).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Append a bool as one strict `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string (u16 length).
    pub fn put_str(&mut self, s: &str) {
        let len = s.len().min(u16::MAX as usize) as u16;
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&s.as_bytes()[..len as usize]);
    }
}

/// The `f64` whose exact bit pattern is the 8 little-endian bytes `c`.
fn f64_from_le(c: &[u8]) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(c);
    f64::from_bits(u64::from_le_bytes(a))
}

/// Bounds-checked little-endian cursor over a section payload. Every read
/// that would run past the end returns [`SnapshotError::Truncated`] instead
/// of panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Cursor over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes, or a typed truncation error.
    pub fn take(&mut self, n: usize, context: &'static str) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context,
                expected: n,
                got: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> SnapResult<u8> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> SnapResult<u32> {
        let b = self.take(4, context)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> SnapResult<u64> {
        let b = self.take(8, context)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a `u64` and narrow it to `usize`, rejecting values the host
    /// cannot index.
    pub fn usize(&mut self, context: &'static str) -> SnapResult<usize> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| {
            SnapshotError::Malformed(format!("{context}: count {v} exceeds the host's usize"))
        })
    }

    /// Read a `usize` that prefixes per-element payloads of `elem_bytes`
    /// bytes each: the declared count must fit in the remaining buffer, so a
    /// corrupted length cannot provoke a huge allocation before the
    /// element reads fail.
    pub fn count(&mut self, elem_bytes: usize, context: &'static str) -> SnapResult<usize> {
        let n = self.usize(context)?;
        let need = n.checked_mul(elem_bytes.max(1)).ok_or_else(|| {
            SnapshotError::Malformed(format!("{context}: count {n} overflows"))
        })?;
        if need > self.remaining() {
            return Err(SnapshotError::Truncated {
                context,
                expected: need,
                got: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn f64(&mut self, context: &'static str) -> SnapResult<f64> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Read `n` `f64`s into a fresh vector.
    pub fn f64_vec(&mut self, n: usize, context: &'static str) -> SnapResult<Vec<f64>> {
        let bytes = self.f64_bytes(n, context)?;
        Ok(bytes.chunks_exact(8).map(f64_from_le).collect())
    }

    /// Read `out.len()` `f64`s into `out`, in place. On error `out` is
    /// left untouched.
    pub fn f64_into(&mut self, out: &mut [f64], context: &'static str) -> SnapResult<()> {
        let bytes = self.f64_bytes(out.len(), context)?;
        for (v, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64_from_le(c);
        }
        Ok(())
    }

    /// Take the bytes of `n` `f64`s.
    fn f64_bytes(&mut self, n: usize, context: &'static str) -> SnapResult<&'a [u8]> {
        let len = n.checked_mul(8).ok_or_else(|| {
            SnapshotError::Malformed(format!("{context}: length {n} overflows"))
        })?;
        self.take(len, context)
    }

    /// Read a strict `0`/`1` bool byte.
    pub fn bool(&mut self, context: &'static str) -> SnapResult<bool> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!(
                "{context}: byte {other} is not a bool"
            ))),
        }
    }

    /// Read a u16-length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> SnapResult<String> {
        let b = self.take(2, context)?;
        let len = u16::from_le_bytes([b[0], b[1]]) as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed(format!("{context}: invalid UTF-8")))
    }

    /// Require the payload to be fully consumed — trailing bytes mean the
    /// writer and reader disagree about the section's shape.
    pub fn finish(&self, context: &'static str) -> SnapResult<()> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{context}: {} trailing byte(s) after the declared payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Container writer / reader
// ---------------------------------------------------------------------------

/// Assembles a snapshot container: preamble plus CRC-stamped sections, in
/// the order the caller adds them (which the caller must keep deterministic
/// — section order is part of the byte contract).
#[derive(Debug)]
pub struct SnapshotWriter {
    version: u32,
    method: String,
    dim: usize,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Writer for the current [`SNAPSHOT_FORMAT_VERSION`].
    pub fn new(method: &str, dim: usize) -> Self {
        Self::with_version(SNAPSHOT_FORMAT_VERSION, method, dim)
    }

    /// Writer stamping an explicit format version — exists so compatibility
    /// tests can fabricate future-version headers; production code uses
    /// [`SnapshotWriter::new`].
    pub fn with_version(version: u32, method: &str, dim: usize) -> Self {
        Self { version, method: method.to_string(), dim, sections: Vec::new() }
    }

    /// Append one section. Ids must be unique within a container.
    pub fn section(&mut self, id: u32, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "duplicate snapshot section id {id}"
        );
        self.sections.push((id, payload));
    }

    /// Serialize the container to its canonical byte form.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        let tag_len = self.method.len().min(u16::MAX as usize) as u16;
        out.extend_from_slice(&tag_len.to_le_bytes());
        out.extend_from_slice(&self.method.as_bytes()[..tag_len as usize]);
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (id, payload) in &self.sections {
            let id_bytes = id.to_le_bytes();
            let len_bytes = (payload.len() as u64).to_le_bytes();
            // The section CRC covers the framing (id, length) and the
            // payload, so a flipped framing byte is caught like any other.
            let crc = crc32_parts(&[&id_bytes, &len_bytes, payload]);
            out.extend_from_slice(&id_bytes);
            out.extend_from_slice(&len_bytes);
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A parsed, integrity-verified snapshot container. Parsing validates the
/// magic, the format version, the header CRC, every section's bounds, and
/// every section's CRC up front — a [`SnapshotFile`] in hand means the raw
/// bytes are exactly what some writer produced.
#[derive(Debug)]
pub struct SnapshotFile<'a> {
    version: u32,
    method: String,
    dim: usize,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SnapshotFile<'a> {
    /// Parse and verify `bytes`.
    ///
    /// # Errors
    /// Typed [`SnapshotError`] for every corruption mode: bad magic,
    /// truncation anywhere, header or section checksum mismatch, and
    /// version skew. Never panics.
    pub fn parse(bytes: &'a [u8]) -> SnapResult<Self> {
        let mut dec = Dec::new(bytes);
        let magic = dec.take(8, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = dec.u32("format version")?;
        let dim = dec.u32("dim")? as usize;
        let method = dec.str("method tag")?;
        let n_sections = dec.u32("section count")?;
        // The header CRC covers every preamble byte before it. Verify it
        // before trusting the version: a bit-flip in the preamble reads as
        // corruption, a valid CRC with a different version as skew.
        let header_end = dec.pos;
        let header_crc = dec.u32("header checksum")?;
        if crc32(&bytes[..header_end]) != header_crc {
            return Err(SnapshotError::ChecksumMismatch { section: HEADER_SECTION });
        }
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionSkew {
                found: version,
                supported: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let mut sections = Vec::with_capacity(n_sections as usize);
        for _ in 0..n_sections {
            let id = dec.u32("section id")?;
            let len = dec.usize("section length")?;
            let crc = dec.u32("section checksum")?;
            let payload = dec.take(len, "section payload")?;
            let computed = crc32_parts(&[
                &id.to_le_bytes(),
                &(len as u64).to_le_bytes(),
                payload,
            ]);
            // Deterministically falsify this section's verification — the
            // injected equivalent of a bit-flip the CRC catches.
            let computed = if crate::faults::hit(crate::faults::sites::SNAPSHOT_CHECKSUM)
                == Some(crate::faults::Fault::Corrupt)
            {
                !computed
            } else {
                computed
            };
            if computed != crc {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            sections.push((id, payload));
        }
        dec.finish("container")?;
        Ok(Self { version, method, dim, sections })
    }

    /// The container's format version (always [`SNAPSHOT_FORMAT_VERSION`]
    /// after a successful parse).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The writer's method tag (e.g. `"cdosr"`).
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The model's feature dimension as stamped in the header.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sections present.
    pub fn n_sections(&self) -> usize {
        self.sections.len()
    }

    /// The verified payload of section `id`.
    ///
    /// # Errors
    /// [`SnapshotError::MissingSection`] when absent.
    pub fn section(&self, id: u32) -> SnapResult<&'a [u8]> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, payload)| *payload)
            .ok_or(SnapshotError::MissingSection { section: id })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// The bytewise reference register update the sliced and laned
    /// kernels must reproduce, from any start state.
    fn crc32_bytewise_reg(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    /// The bytewise reference checksum.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !crc32_bytewise_reg(0xFFFF_FFFF, bytes)
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        let buf = noise(300, 0x2545_F491_4F6C_DD1D);
        for len in 0..=buf.len() {
            let bytes = &buf[..len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "length {len}");
        }
        // Every two-way split, most of them off the 8-byte grid: the CRC
        // state must stream across part boundaries.
        let whole = crc32_bytewise(&buf);
        for split in 0..=buf.len() {
            let (head, tail) = buf.split_at(split);
            assert_eq!(crc32_parts(&[head, tail]), whole, "split at {split}");
        }

        // The laned path: every length around the lane threshold, so both
        // sides of it and every lane/tail remainder are covered…
        let big = noise(104 * 1024 + 7, 0x9E37_79B9_7F4A_7C15);
        let lo = CRC_LANE_MIN_BYTES - 64;
        let mut reg = crc32_bytewise_reg(0xFFFF_FFFF, &big[..lo]);
        for len in lo..=CRC_LANE_MIN_BYTES + 64 {
            assert_eq!(crc32(&big[..len]), !reg, "length {len}");
            reg = crc32_bytewise_reg(reg, &big[len..=len]);
        }
        // …snapshot-sized buffers, on and off the lane grid…
        for len in [33 * 1024, 33 * 1024 + 3, 60 * 1024, 60 * 1024 + 5, 104 * 1024, 104 * 1024 + 7]
        {
            let bytes = &big[..len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "length {len}");
        }
        // …and every two-way split of a 9 KiB buffer, so a laned part starts
        // from every streamed state and its lane cut lands at every
        // alignment.
        let buf = &big[..9 * 1024];
        let whole = crc32_bytewise(buf);
        for split in 0..=buf.len() {
            let (head, tail) = buf.split_at(split);
            assert_eq!(crc32_parts(&[head, tail]), whole, "split at {split}");
        }
    }

    #[test]
    fn lane_combine_joins_registers_like_one_pass() {
        let buf = noise(20_000, 0xD1B5_4A32_D192_ED03);
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut cases = vec![(0, 0), (0, 17), (17, 0), (5000, 0)];
        cases.extend((0..200).map(|_| {
            let a = next(buf.len() + 1);
            (a, next(buf.len() - a + 1))
        }));
        for (len_a, len_b) in cases {
            let (a, b) = (&buf[..len_a], &buf[len_a..len_a + len_b]);
            for start in [0xFFFF_FFFF, 0, 0x1234_5678] {
                let reg_a = crc32_bytewise_reg(start, a);
                let joined = crc32_combine(
                    reg_a,
                    crc32_bytewise_reg(0, b),
                    crc32_zeros_operator(len_b),
                );
                assert_eq!(
                    joined,
                    crc32_bytewise_reg(reg_a, b),
                    "|A| = {len_a}, |B| = {len_b}, start {start:#x}"
                );
            }
        }
    }

    fn sample_container() -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_f64(1.5);
        enc.put_usize(7);
        enc.put_bool(true);
        enc.put_str("hello");
        let mut w = SnapshotWriter::new("cdosr", 16);
        w.section(1, enc.into_bytes());
        w.section(2, vec![9, 9, 9]);
        w.finish()
    }

    #[test]
    fn container_roundtrip_and_determinism() {
        let a = sample_container();
        let b = sample_container();
        assert_eq!(a, b, "encoding must be a pure function of its inputs");
        let file = SnapshotFile::parse(&a).unwrap();
        assert_eq!(file.version(), SNAPSHOT_FORMAT_VERSION);
        assert_eq!(file.method(), "cdosr");
        assert_eq!(file.dim(), 16);
        assert_eq!(file.n_sections(), 2);
        let mut dec = Dec::new(file.section(1).unwrap());
        assert_eq!(dec.f64("x").unwrap(), 1.5);
        assert_eq!(dec.usize("n").unwrap(), 7);
        assert!(dec.bool("b").unwrap());
        assert_eq!(dec.str("s").unwrap(), "hello");
        dec.finish("payload").unwrap();
        assert_eq!(file.section(2).unwrap(), &[9, 9, 9]);
        assert!(matches!(file.section(3), Err(SnapshotError::MissingSection { section: 3 })));
    }

    #[test]
    fn every_truncation_is_typed() {
        let full = sample_container();
        for len in 0..full.len() {
            let err = SnapshotFile::parse(&full[..len])
                .err()
                .unwrap_or_else(|| panic!("prefix of {len} bytes parsed"));
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::Malformed(_)
                ),
                "prefix {len}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let full = sample_container();
        for byte in 0..full.len() {
            let mut corrupt = full.clone();
            corrupt[byte] ^= 0x40;
            assert!(
                SnapshotFile::parse(&corrupt).is_err(),
                "bit flip at byte {byte} went unnoticed"
            );
        }
    }

    #[test]
    fn future_version_reads_as_skew_not_corruption() {
        let mut w = SnapshotWriter::with_version(SNAPSHOT_FORMAT_VERSION + 1, "cdosr", 4);
        w.section(1, vec![1, 2, 3]);
        let bytes = w.finish();
        assert_eq!(
            SnapshotFile::parse(&bytes).err().unwrap(),
            SnapshotError::VersionSkew {
                found: SNAPSHOT_FORMAT_VERSION + 1,
                supported: SNAPSHOT_FORMAT_VERSION,
            }
        );
    }

    #[test]
    fn bad_magic_is_its_own_error() {
        let mut bytes = sample_container();
        bytes[0] = b'X';
        assert_eq!(SnapshotFile::parse(&bytes).err().unwrap(), SnapshotError::BadMagic);
    }

    #[test]
    fn corrupt_length_cannot_demand_absurd_allocation() {
        let mut enc = Enc::new();
        enc.put_usize(usize::MAX / 2); // a count with no payload behind it
        let payload = enc.into_bytes();
        let mut dec = Dec::new(&payload);
        assert!(matches!(
            dec.count(8, "items"),
            Err(SnapshotError::Truncated { .. } | SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let dec = Dec::new(&[1, 2, 3]);
        assert!(matches!(dec.finish("p"), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn errors_render_without_panicking() {
        for e in [
            SnapshotError::BadMagic,
            SnapshotError::VersionSkew { found: 9, supported: SNAPSHOT_FORMAT_VERSION },
            SnapshotError::Truncated { context: "x", expected: 8, got: 2 },
            SnapshotError::ChecksumMismatch { section: HEADER_SECTION },
            SnapshotError::ChecksumMismatch { section: 3 },
            SnapshotError::DimensionMismatch { expected: 16, got: 4 },
            SnapshotError::MethodMismatch { expected: "cdosr".into(), got: "osnn".into() },
            SnapshotError::MissingSection { section: 5 },
            SnapshotError::Malformed("msg".into()),
            SnapshotError::Io("disk gone".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
