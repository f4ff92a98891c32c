//! Compact deterministic binary codec for the durability subsystem.
//!
//! Snapshots and WAL records are byte streams built from a tiny set of
//! primitives — LEB128 varints, fixed little-endian words, length-prefixed
//! byte strings and raw `u32` slices (the columnar store's `Vec<TermId>`
//! columns serialize nearly verbatim). The encoding is *deterministic*:
//! the same logical state always produces the same bytes, which is what
//! lets recovery tests assert byte-identical answers and lets CRCs detect
//! torn or bit-flipped records.
//!
//! Interner independence: interned [`Symbol`] ids are stable only for the
//! life of one process, so a snapshot carries the interner's string table
//! and every on-disk symbol is an index *into that table*. On decode a
//! [`SymbolRemap`] re-interns the table in order and translates old ids to
//! the live process's ids (the identity map when the process interner was
//! restored from the same snapshot lineage). Labeled nulls are
//! instance-local and pass through unchanged.
//!
//! WAL payloads ([`encode_delta`]) are fully self-contained — facts are
//! written as strings — so a log record can be replayed into any process
//! without a side table.

use crate::{intern, Delta, Fact, NullId, Result, Symbol, TermId, TriqError};

/// Tag bit separating nulls from constants (mirrors `TermId`'s packing).
const NULL_BIT: u32 = 1 << 31;

/// Builds the canonical corrupt-stream error.
fn corrupt(what: &str) -> TriqError {
    TriqError::Persist(format!("corrupt stream: {what}"))
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — dependency-free, slicing-by-16.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the byte-at-a-time table; `CRC32_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which lets the kernel
/// fold 16 input bytes per step with 16 independent lookups.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC32 (IEEE) of `bytes` — the checksum guarding WAL records and
/// snapshot bodies against torn writes and bit flips. Folds 16 bytes per
/// step (slicing-by-16), then the tail a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize];
        for (k, &byte) in b[4..].iter().enumerate() {
            c ^= t[11 - k][byte as usize];
        }
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Append-only byte-stream builder; the write half of the codec.
#[derive(Default, Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a fixed-width little-endian `u32`.
    pub fn u32_fixed(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a fixed-width little-endian `u64`.
    pub fn u64_fixed(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends raw bytes verbatim (no length prefix) — for splicing an
    /// already-encoded section into an outer stream.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed byte string.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// Writes a length-prefixed slice of raw `u32` words (little-endian).
    ///
    /// This is the bulk path: a columnar `Vec<TermId>` column is one call.
    pub fn u32_slice(&mut self, words: impl ExactSizeIterator<Item = u32>) {
        self.u32_words(words.len(), words);
    }

    /// [`Encoder::u32_slice`] of the `len` words `words` yields, for an
    /// iterator that cannot tell its length (a filtered column).
    pub fn u32_words(&mut self, len: usize, words: impl Iterator<Item = u32>) {
        self.varint(len as u64);
        self.buf.reserve(len * 4);
        let start = self.buf.len();
        for w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
        debug_assert_eq!(self.buf.len() - start, len * 4, "a slice of {len} words");
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Bounds-checked reader over an encoded byte stream; every method returns
/// `E-PERSIST` on truncation or malformed data instead of panicking, so a
/// corrupt snapshot is a recoverable error, never a crash.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff the whole stream has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt("unexpected end of stream"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a fixed-width little-endian `u32`.
    pub fn u32_fixed(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a fixed-width little-endian `u64`.
    pub fn u64_fixed(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(corrupt("varint overflow"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint, checked to fit `usize` and be at most `cap` (a
    /// sanity bound against absurd length prefixes in corrupt streams).
    pub fn len_capped(&mut self, cap: usize) -> Result<usize> {
        let v = self.varint()?;
        if v > cap as u64 {
            return Err(corrupt("length prefix exceeds stream bounds"));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn blob(&mut self) -> Result<&'a [u8]> {
        let n = self.len_capped(self.remaining())?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.blob()?).map_err(|_| corrupt("invalid UTF-8"))
    }

    /// Reads a length-prefixed slice of raw `u32` words.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>> {
        let n = self.len_capped(self.remaining() / 4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Interner table + symbol remapping
// ---------------------------------------------------------------------------

/// Writes the process interner's full string table (id order), the
/// side table every snapshot symbol indexes into.
pub fn encode_interner(enc: &mut Encoder) {
    encode_interner_from(enc, 0);
}

/// Writes the strings the process interner holds from id `from` on
/// — what a table written up to `from` needs to cover every symbol
/// interned since ([`SymbolRemap::extend`]). Returns the table's new
/// length.
pub fn encode_interner_from(enc: &mut Encoder, from: usize) -> usize {
    let strings = crate::interner::interned_strings_from(from);
    enc.varint(strings.len() as u64);
    for s in &strings {
        enc.str(s);
    }
    from + strings.len()
}

/// Translation from snapshot-time symbol ids to live process ids.
///
/// Built by re-interning the snapshot's string table in order; when the
/// live interner happens to assign the same ids (e.g. a fresh process
/// restoring its first snapshot), translation is a bounds check only.
#[derive(Debug)]
pub struct SymbolRemap {
    map: Vec<Symbol>,
    identity: bool,
}

impl SymbolRemap {
    /// Reads a string table written by [`encode_interner`] and interns
    /// every entry, recording old-id → live-id.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<SymbolRemap> {
        let mut remap = SymbolRemap {
            map: Vec::new(),
            identity: true,
        };
        remap.extend(dec)?;
        Ok(remap)
    }

    /// Reads the strings [`encode_interner_from`] wrote from this
    /// table's length on, and interns them as the following ids.
    pub fn extend(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        let n = dec.len_capped(dec.remaining())?;
        self.map.reserve(n);
        for _ in 0..n {
            let sym = intern(dec.str()?);
            self.identity &= sym.index() as usize == self.map.len();
            self.map.push(sym);
        }
        Ok(())
    }

    /// True iff every snapshot id maps to itself in the live interner.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Number of snapshot-time symbols.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff the snapshot interner was empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Translates a snapshot-time symbol id.
    pub fn symbol(&self, old: u32) -> Result<Symbol> {
        self.map
            .get(old as usize)
            .copied()
            .ok_or_else(|| corrupt("symbol id out of table bounds"))
    }

    /// Translates a snapshot-time packed [`TermId`]: constants are
    /// remapped through the table, labeled nulls pass through verbatim.
    pub fn term(&self, raw: u32) -> Result<TermId> {
        if raw & NULL_BIT != 0 {
            Ok(TermId::from_null(NullId(raw & !NULL_BIT)))
        } else {
            Ok(TermId::from_const(self.symbol(raw)?))
        }
    }
}

// ---------------------------------------------------------------------------
// Delta (WAL payload) — string-based, self-contained
// ---------------------------------------------------------------------------

fn encode_fact(enc: &mut Encoder, fact: &Fact) {
    enc.str(fact.pred.as_str());
    enc.varint(fact.args.len() as u64);
    for a in &fact.args {
        enc.str(a.as_str());
    }
}

fn decode_fact(dec: &mut Decoder<'_>) -> Result<Fact> {
    let pred = intern(dec.str()?);
    let arity = dec.len_capped(dec.remaining())?;
    let mut args = Vec::with_capacity(arity);
    for _ in 0..arity {
        args.push(intern(dec.str()?));
    }
    Ok(Fact::new(pred, args))
}

/// Writes a [`Delta`] as a self-contained record payload (facts as
/// strings, independent of any interner state).
pub fn encode_delta(enc: &mut Encoder, delta: &Delta) {
    enc.varint(delta.deletes.len() as u64);
    for f in &delta.deletes {
        encode_fact(enc, f);
    }
    enc.varint(delta.inserts.len() as u64);
    for f in &delta.inserts {
        encode_fact(enc, f);
    }
}

/// Reads a [`Delta`] written by [`encode_delta`].
pub fn decode_delta(dec: &mut Decoder<'_>) -> Result<Delta> {
    let mut delta = Delta::new();
    let deletes = dec.len_capped(dec.remaining())?;
    for _ in 0..deletes {
        delta.add_delete(decode_fact(dec)?);
    }
    let inserts = dec.len_capped(dec.remaining())?;
    for _ in 0..inserts {
        delta.add_insert(decode_fact(dec)?);
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The oracle: one byte at a time, one bit at a time, no table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let step = |c: u32, _| (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
        !bytes
            .iter()
            .fold(!0u32, |c, &b| (0..8).fold(c ^ u32::from(b), step))
    }

    #[test]
    fn crc32_kernel_matches_a_bytewise_oracle() {
        // xorshift64: a fixed pseudo-random buffer, no dependency.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..(1usize << 20) + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for offset in 0..16 {
            for len in 0..=256 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
        let mib = &buf[..1 << 20];
        assert_eq!(crc32(mib), crc32_bitwise(mib), "1 MiB");
    }

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.u8(7);
        enc.u32_fixed(0xDEAD_BEEF);
        enc.u64_fixed(u64::MAX);
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            enc.varint(v);
        }
        enc.str("héllo");
        enc.blob(&[1, 2, 3]);
        enc.u32_slice([5u32, 0, NULL_BIT | 3].into_iter());

        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32_fixed().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64_fixed().unwrap(), u64::MAX);
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(dec.varint().unwrap(), v);
        }
        assert_eq!(dec.str().unwrap(), "héllo");
        assert_eq!(dec.blob().unwrap(), &[1, 2, 3]);
        assert_eq!(dec.u32_slice().unwrap(), vec![5, 0, NULL_BIT | 3]);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut enc = Encoder::new();
        enc.str("a longer string than the stream will hold");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..bytes.len() - 5]);
        let err = dec.str().unwrap_err();
        assert_eq!(err.code(), "E-PERSIST");
    }

    #[test]
    fn absurd_length_prefixes_are_rejected() {
        let mut enc = Encoder::new();
        enc.varint(u64::MAX - 1);
        let bytes = enc.into_bytes();
        assert_eq!(Decoder::new(&bytes).blob().unwrap_err().code(), "E-PERSIST");
        // A varint that never terminates within 64 bits.
        let overlong = [0xFFu8; 11];
        assert_eq!(
            Decoder::new(&overlong).varint().unwrap_err().code(),
            "E-PERSIST"
        );
    }

    #[test]
    fn interner_table_round_trips_through_remap() {
        let a = intern("codec-remap-a");
        let b = intern("codec-remap-b");
        let mut enc = Encoder::new();
        encode_interner(&mut enc);
        let bytes = enc.into_bytes();
        let remap = SymbolRemap::decode(&mut Decoder::new(&bytes)).unwrap();
        // Re-interning into the same process interner is the identity.
        assert!(remap.is_identity());
        assert_eq!(remap.symbol(a.index()).unwrap(), a);
        assert_eq!(remap.symbol(b.index()).unwrap(), b);
        assert_eq!(
            remap.term(TermId::from_const(a).raw()).unwrap(),
            TermId::from_const(a)
        );
        let null = TermId::from_null(NullId(42));
        assert_eq!(remap.term(null.raw()).unwrap(), null);
        assert!(remap.symbol(remap.len() as u32).is_err());
    }

    #[test]
    fn delta_round_trips_as_strings() {
        let delta = Delta::new()
            .insert("e", &["a", "b"])
            .insert("node", &["x"])
            .delete("e", &["b", "c"]);
        let mut enc = Encoder::new();
        encode_delta(&mut enc, &delta);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(decode_delta(&mut dec).unwrap(), delta);
        assert!(dec.is_exhausted());
    }
}
