//! Self-describing compression container.
//!
//! Three real codecs:
//!
//! * [`Codec::Store`] — identity, for incompressible payloads.
//! * [`Codec::Rle`] — byte run-length encoding, cheap CPU.
//! * [`Codec::Lz`] — an LZ77-family codec with a 32 KiB window and hash
//!   chains, the workhorse for layer/squash-image payloads.
//!
//! The compressed container is `[codec-id u8][orig-len varint][payload]`,
//! so [`decompress`] is self-describing. The vfs driver cost models charge
//! decompression CPU proportional to output size — the "trade CPU for IO"
//! argument of Section 3.2 — so both directions are real transforms.

use crate::wire::{put_varint, Reader, WireError};

/// Compression codec identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression.
    Store,
    /// Run-length encoding.
    Rle,
    /// LZ77 with 32 KiB window.
    Lz,
}

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::Store => 0,
            Codec::Rle => 1,
            Codec::Lz => 2,
        }
    }

    fn from_id(id: u8) -> Option<Codec> {
        match id {
            0 => Some(Codec::Store),
            1 => Some(Codec::Rle),
            2 => Some(Codec::Lz),
            _ => None,
        }
    }
}

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Unknown codec id byte.
    UnknownCodec(u8),
    /// Container or payload truncated/corrupt.
    Corrupt(&'static str),
    /// Wire-format failure inside the container.
    Wire(WireError),
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> CodecError {
        CodecError::Wire(e)
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::Corrupt(what) => write!(f, "corrupt compressed data: {what}"),
            CodecError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// No container decodes to more than this many bytes per payload byte
/// (an LZ match token of a few bytes expands to at most 258). Decoders
/// cap what they reserve by it, never by a declared length alone.
pub const MAX_EXPANSION: usize = LZ_MAX_MATCH;

/// Compress `data` with `codec` into a self-describing container.
///
/// # Panics
///
/// With [`Codec::Lz`], if `data` is 4 GiB or longer.
pub fn compress(codec: Codec, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.push(codec.id());
    put_varint(&mut out, data.len() as u64);
    match codec {
        Codec::Store => out.extend_from_slice(data),
        Codec::Rle => rle_compress(data, &mut out),
        Codec::Lz => lz_compress(data, &mut out),
    }
    out
}

/// Decompress a container produced by [`compress`].
pub fn decompress(container: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = Reader::new(container);
    let id = r.u8()?;
    let codec = Codec::from_id(id).ok_or(CodecError::UnknownCodec(id))?;
    let orig_len = r.varint()? as usize;
    let payload = r.take(r.remaining())?;
    let out = match codec {
        Codec::Store => payload.to_vec(),
        Codec::Rle => rle_decompress(payload, orig_len)?,
        Codec::Lz => lz_decompress(payload, orig_len)?,
    };
    if out.len() != orig_len {
        return Err(CodecError::Corrupt("length mismatch"));
    }
    Ok(out)
}

/// The codec recorded in a container, without decompressing.
pub fn sniff(container: &[u8]) -> Result<Codec, CodecError> {
    let id = *container.first().ok_or(CodecError::Corrupt("empty"))?;
    Codec::from_id(id).ok_or(CodecError::UnknownCodec(id))
}

// ---------------------------------------------------------------- RLE

fn rle_compress(data: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
}

fn rle_decompress(payload: &[u8], cap: usize) -> Result<Vec<u8>, CodecError> {
    if !payload.len().is_multiple_of(2) {
        return Err(CodecError::Corrupt("odd RLE payload"));
    }
    let mut out = Vec::with_capacity(cap.min(payload.len() / 2 * 255));
    for pair in payload.chunks_exact(2) {
        let (run, b) = (pair[0] as usize, pair[1]);
        if run == 0 {
            return Err(CodecError::Corrupt("zero-length RLE run"));
        }
        if out.len() + run > cap {
            return Err(CodecError::Corrupt("RLE overrun"));
        }
        out.resize(out.len() + run, b);
    }
    Ok(out)
}

// ---------------------------------------------------------------- LZ77

const LZ_WINDOW: usize = 32 * 1024;
const LZ_MIN_MATCH: usize = 4;
const LZ_MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;

#[inline]
fn lz_hash(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Empty slot in the hash-chain tables.
const NIL: u32 = u32::MAX;

/// Token stream: `0x00` literal-run (varint len, bytes); `0x01` match
/// (varint len, varint dist).
///
/// Greedy parse over hash chains: at each position the chain of earlier
/// positions with the same hash is probed newest first, at most 32 deep
/// and no further back than the window, and the first longest match wins.
/// `prev` is a ring over the window rather than one slot per input byte:
/// a chain is followed only while `i - cand <= LZ_WINDOW`, and position
/// `cand + LZ_WINDOW`, the next to reuse `cand`'s slot, is inserted only
/// after the search at `i` ends, so every slot read still holds the link
/// written for `cand`.
///
/// # Panics
///
/// If `data` is 4 GiB or longer (positions are stored as `u32`).
fn lz_compress(data: &[u8], out: &mut Vec<u8>) {
    assert!(data.len() < NIL as usize, "LZ input must be under 4 GiB");
    let mut head = vec![NIL; 1 << HASH_BITS];
    let mut prev = vec![NIL; LZ_WINDOW];
    let link = |head: &mut [u32], prev: &mut [u32], pos: usize| {
        let h = lz_hash(data, pos);
        prev[pos & (LZ_WINDOW - 1)] = head[h];
        head[h] = pos as u32;
    };
    let mut lit_start = 0usize;
    let mut i = 0usize;

    while i + LZ_MIN_MATCH <= data.len() {
        let max = (data.len() - i).min(LZ_MAX_MATCH);
        let mut cand = head[lz_hash(data, i)];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut probes = 0;
        while cand != NIL && i - cand as usize <= LZ_WINDOW && probes < 32 {
            let c = cand as usize;
            // A candidate can only win if it also matches at `best_len`.
            if data[c + best_len] == data[i + best_len] {
                let l = match_len(data, c, i, max);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l == max {
                        break;
                    }
                }
            }
            cand = prev[c & (LZ_WINDOW - 1)];
            probes += 1;
        }
        link(&mut head, &mut prev, i);

        if best_len >= LZ_MIN_MATCH {
            if i > lit_start {
                put_literals(out, &data[lit_start..i]);
            }
            out.push(0x01);
            put_varint(out, best_len as u64);
            put_varint(out, best_dist as u64);
            // Index the skipped positions too (cheap, improves ratio).
            let end = (i + best_len).min(data.len() - (LZ_MIN_MATCH - 1));
            for j in i + 1..end {
                link(&mut head, &mut prev, j);
            }
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    if data.len() > lit_start {
        put_literals(out, &data[lit_start..]);
    }
}

fn put_literals(out: &mut Vec<u8>, lits: &[u8]) {
    out.push(0x00);
    put_varint(out, lits.len() as u64);
    out.extend_from_slice(lits);
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max`; `b + max <= data.len()` and `a < b`. Compares eight bytes at a
/// time.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let (x, y) = (&data[a..a + max], &data[b..b + max]);
    let mut l = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = u64::from_le_bytes(wx.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(wy.try_into().expect("8 bytes"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + x[l..]
        .iter()
        .zip(&y[l..])
        .take_while(|(p, q)| p == q)
        .count()
}

fn lz_decompress(payload: &[u8], cap: usize) -> Result<Vec<u8>, CodecError> {
    let mut r = Reader::new(payload);
    let mut out = Vec::with_capacity(cap.min(payload.len().saturating_mul(MAX_EXPANSION)));
    while !r.is_empty() {
        match r.u8()? {
            0x00 => {
                let len = r.varint()? as usize;
                let bytes = r.take(len).map_err(CodecError::from)?;
                if len > cap - out.len() {
                    return Err(CodecError::Corrupt("literal overrun"));
                }
                out.extend_from_slice(bytes);
            }
            0x01 => {
                let len = r.varint()? as usize;
                let dist = r.varint()? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(CodecError::Corrupt("match distance out of range"));
                }
                if len > cap - out.len() {
                    return Err(CodecError::Corrupt("match overrun"));
                }
                // An overlapping match (dist < len) repeats the last
                // `dist` bytes: copy the span, then twice the span, and so
                // on, each copy reading only bytes already written.
                let start = out.len() - dist;
                let mut left = len;
                while left > 0 {
                    let n = left.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    left -= n;
                }
            }
            t => {
                return Err(CodecError::Corrupt(if t > 1 {
                    "bad token"
                } else {
                    "unreachable"
                }))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn text_like(n: usize) -> Vec<u8> {
        // Repetitive, library-directory-like content.
        let unit = b"lib/python3.11/site-packages/numpy/core/__init__.py\n";
        unit.iter().copied().cycle().take(n).collect()
    }

    #[test]
    fn store_roundtrip() {
        let data = b"anything at all".to_vec();
        assert_eq!(decompress(&compress(Codec::Store, &data)).unwrap(), data);
    }

    #[test]
    fn rle_roundtrip_and_shrinks_runs() {
        let data = vec![0u8; 10_000];
        let c = compress(Codec::Rle, &data);
        assert!(
            c.len() < 200,
            "RLE of zeros should be tiny, got {}",
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_and_shrinks_text() {
        let data = text_like(50_000);
        let c = compress(Codec::Lz, &data);
        assert!(
            c.len() < data.len() / 5,
            "LZ should compress repetitive text at least 5x, got {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_handles_overlapping_matches() {
        // "aaaa..." forces dist=1 overlapping copies.
        let data = vec![b'a'; 1000];
        let c = compress(Codec::Lz, &data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn empty_input_all_codecs() {
        for codec in [Codec::Store, Codec::Rle, Codec::Lz] {
            assert_eq!(decompress(&compress(codec, &[])).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn unknown_codec_rejected() {
        let mut c = compress(Codec::Store, b"x");
        c[0] = 99;
        assert_eq!(decompress(&c), Err(CodecError::UnknownCodec(99)));
    }

    #[test]
    fn corrupt_lz_rejected_not_panicking() {
        let mut c = compress(Codec::Lz, &text_like(1000));
        // Flip bytes throughout the payload; decompression must error or
        // produce a wrong-length result, never panic.
        for i in 2..c.len().min(64) {
            let mut bad = c.clone();
            bad[i] ^= 0xff;
            let _ = decompress(&bad);
        }
        c.truncate(c.len() / 2);
        let _ = decompress(&c);
    }

    // Well-formed containers whose header declares 2^62 bytes: the
    // decoders must not reserve the declared length up front.

    #[test]
    fn rle_hostile_declared_length_is_an_error() {
        let mut rle = vec![Codec::Rle.id()];
        put_varint(&mut rle, 1 << 62);
        rle.extend_from_slice(&[3, b'x']);
        assert_eq!(
            decompress(&rle),
            Err(CodecError::Corrupt("length mismatch"))
        );
    }

    #[test]
    fn lz_hostile_declared_length_is_an_error() {
        let mut lz = vec![Codec::Lz.id()];
        put_varint(&mut lz, 1 << 62);
        lz.extend_from_slice(&[0x00, 3, b'a', b'b', b'c']);
        assert_eq!(decompress(&lz), Err(CodecError::Corrupt("length mismatch")));

        // A match token whose length would wrap `out.len() + len`.
        let mut lz = vec![Codec::Lz.id()];
        put_varint(&mut lz, 8);
        lz.extend_from_slice(&[0x00, 1, b'a', 0x01]);
        put_varint(&mut lz, u64::MAX);
        put_varint(&mut lz, 1);
        assert_eq!(decompress(&lz), Err(CodecError::Corrupt("match overrun")));
    }

    #[test]
    fn lz_overlapping_matches_decode_like_a_byte_copy() {
        for dist in 1..=8usize {
            for len in LZ_MIN_MATCH..=LZ_MAX_MATCH {
                let prefix: Vec<u8> = (0..dist as u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
                let mut want = prefix.clone();
                for k in 0..len {
                    want.push(want[k]);
                }
                let mut c = vec![Codec::Lz.id()];
                put_varint(&mut c, want.len() as u64);
                put_literals(&mut c, &prefix);
                c.push(0x01);
                put_varint(&mut c, len as u64);
                put_varint(&mut c, dist as u64);
                assert_eq!(decompress(&c).unwrap(), want, "dist {dist} len {len}");
            }
        }
    }

    #[test]
    fn sniff_reports_codec() {
        assert_eq!(sniff(&compress(Codec::Lz, b"abc")).unwrap(), Codec::Lz);
        assert_eq!(sniff(&compress(Codec::Rle, b"abc")).unwrap(), Codec::Rle);
        assert!(sniff(&[]).is_err());
    }

    /// The encoder as it was before the ring-buffer chains, word-wise
    /// compare and early exits: one `usize` chain slot per input byte,
    /// byte-wise compare, every probe run to the end. The fast encoder
    /// must emit exactly its tokens.
    fn lz_compress_reference(data: &[u8], out: &mut Vec<u8>) {
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; data.len()];
        let mut lit_start = 0usize;
        let mut i = 0usize;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
            if to > from {
                out.push(0x00);
                put_varint(out, (to - from) as u64);
                out.extend_from_slice(&data[from..to]);
            }
        };

        while i < data.len() {
            if i + LZ_MIN_MATCH <= data.len() {
                let h = lz_hash(data, i);
                let mut cand = head[h];
                let mut best_len = 0usize;
                let mut best_dist = 0usize;
                let mut probes = 0;
                while cand != usize::MAX && i - cand <= LZ_WINDOW && probes < 32 {
                    let max = (data.len() - i).min(LZ_MAX_MATCH);
                    let mut l = 0usize;
                    while l < max && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                    }
                    cand = prev[cand];
                    probes += 1;
                }
                prev[i] = head[h];
                head[h] = i;

                if best_len >= LZ_MIN_MATCH {
                    flush_literals(out, lit_start, i, data);
                    out.push(0x01);
                    put_varint(out, best_len as u64);
                    put_varint(out, best_dist as u64);
                    let end = (i + best_len).min(data.len().saturating_sub(LZ_MIN_MATCH - 1));
                    #[allow(clippy::needless_range_loop)] // j indexes head and prev together
                    for j in i + 1..end {
                        let h = lz_hash(data, j);
                        prev[j] = head[h];
                        head[h] = j;
                    }
                    i += best_len;
                    lit_start = i;
                    continue;
                }
            }
            i += 1;
        }
        flush_literals(out, lit_start, data.len(), data);
    }

    /// `len` bytes of one content class, determined by `seed`: 0 text,
    /// 1 binary records, 2 random, 3 long runs.
    fn sample(kind: u8, len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const WORDS: [&str; 12] = [
            "lib/",
            "python3.11/",
            "site-packages/",
            "numpy/",
            "core/",
            "__init__.py",
            "def ",
            "return ",
            "import ",
            "self",
            " = ",
            "\n",
        ];
        let mut out = Vec::with_capacity(len + 64);
        let mut record = 0u64;
        while out.len() < len {
            match kind {
                0 => out.extend_from_slice(WORDS[next() as usize % WORDS.len()].as_bytes()),
                1 => {
                    record += 1;
                    let r = next();
                    out.extend_from_slice(&record.to_le_bytes());
                    out.extend_from_slice(&((r % 16) as u32).to_le_bytes());
                    out.extend_from_slice(&[b'R', b'E', b'C', (r >> 8) as u8 % 4]);
                    out.extend_from_slice(&(r >> 16).to_le_bytes());
                }
                2 => out.extend_from_slice(&next().to_le_bytes()),
                _ => {
                    let r = next();
                    out.resize(out.len() + 1 + (r % 600) as usize, (r >> 32) as u8 % 4);
                }
            }
        }
        out.truncate(len);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn lz_encoder_matches_reference(kind in 0u8..4, len in 0usize..256 * 1024,
                                        shift in 0usize..8, seed in any::<u64>()) {
            let data = sample(kind, len >> shift, seed);
            let mut want = Vec::new();
            lz_compress_reference(&data, &mut want);
            let mut got = Vec::new();
            lz_compress(&data, &mut got);
            prop_assert!(got == want, "kind {} len {}: encoders differ", kind, data.len());
            prop_assert_eq!(decompress(&compress(Codec::Lz, &data)).unwrap(), data);
        }
    }

    proptest! {
        #[test]
        fn roundtrip_any_payload(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            for codec in [Codec::Store, Codec::Rle, Codec::Lz] {
                prop_assert_eq!(&decompress(&compress(codec, &data)).unwrap(), &data);
            }
        }

        #[test]
        fn roundtrip_runs(runs in proptest::collection::vec((any::<u8>(), 1usize..600), 0..32)) {
            let mut data = Vec::new();
            for (b, n) in runs {
                data.resize(data.len() + n, b);
            }
            for codec in [Codec::Store, Codec::Rle, Codec::Lz] {
                prop_assert_eq!(&decompress(&compress(codec, &data)).unwrap(), &data);
            }
        }

        #[test]
        fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decompress(&data);
        }
    }
}
