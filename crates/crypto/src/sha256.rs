//! SHA-256 (FIPS 180-4).
//!
//! Content digests are the backbone of OCI images: layers, manifests and
//! configs are all addressed by their SHA-256. This is a from-scratch
//! implementation with incremental (streaming) hashing. The block function
//! runs on the x86-64 SHA extensions where the CPU has them and in
//! portable Rust everywhere else; the portable code is also the oracle the
//! accelerated one is tested against.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// OCI-style string form: `sha256:<hex>`.
    pub fn oci(&self) -> String {
        format!("sha256:{}", crate::hex::encode(&self.0))
    }

    /// Parse the OCI string form.
    pub fn parse_oci(s: &str) -> Option<Digest> {
        let hexpart = s.strip_prefix("sha256:")?;
        let bytes = crate::hex::decode(hexpart)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(Digest(arr))
    }

    /// A short prefix for log lines.
    pub fn short(&self) -> String {
        crate::hex::encode(&self.0[..6])
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.oci())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// A block function: absorbs `blocks` (a whole number of 64-byte
/// blocks) into `state`.
type BlockFn = fn(&mut [u32; 8], &[u8]);

impl Sha256 {
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb more input.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.absorb(data, compress_blocks)
    }

    /// Finish and produce the digest.
    pub fn finalize(self) -> Digest {
        self.finish(compress_blocks)
    }

    fn absorb(&mut self, mut data: &[u8], block_fn: BlockFn) -> &mut Self {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("message too long");
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                block_fn(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Every whole block in one call, so the block function's set-up
        // (and the run-time dispatch) is paid once per update.
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            block_fn(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
        self
    }

    fn finish(mut self, block_fn: BlockFn) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        let mut tail = [0u8; 128];
        tail[0] = 0x80;
        tail[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        // Bypass total_len bookkeeping for the padding itself.
        let save = self.total_len;
        self.absorb(&tail[..pad_len + 8], block_fn);
        self.total_len = save;
        debug_assert_eq!(self.buf_len, 0);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The block function every hasher uses: the SHA extensions where the CPU
/// has them, the portable code everywhere else.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available` checked that the CPU supports every target
        // feature `shani::compress_blocks` enables.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 compression function in plain Rust: the fallback on
/// CPUs without the SHA extensions, and the oracle the accelerated path
/// is tested against.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The block function on the x86-64 SHA extensions (SHA-NI).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress_blocks`] enables.
    /// The standard library caches the CPUID probe, so this is a load.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Absorb `blocks` (a whole number of 64-byte blocks) into `state`.
    ///
    /// The hardware keeps the eight working words as two registers,
    /// `ABEF` and `CDGH`; the state is shuffled into that layout once per
    /// call, not once per block.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1` ([`available`]).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 bytes; unaligned loads have no alignment
        // requirement.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 bytes, so the four 16-byte unaligned
            // loads stay inside it.
            let mut w = unsafe {
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
                ]
            };
            // Sixteen groups of four rounds. Group `g` consumes message
            // words 4g..4g+3 from `w[g % 4]`, then (while words remain to
            // be scheduled) replaces them with words 4g+16..4g+19.
            for g in 0..16 {
                // SAFETY: `K` has 64 words and 4g+3 < 64.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * g).cast()) };
                let wk = _mm_add_epi32(w[g % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                if g < 12 {
                    let s = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
                    let s = _mm_add_epi32(s, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
                    w[g % 4] = _mm_sha256msg2_epu32(s, w[(g + 3) % 4]);
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads above.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hexd(d: &Digest) -> String {
        crate::hex::encode(&d.0)
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hexd(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hexd(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        // FIPS 180-4 example: 56-byte message forcing two-block padding.
        assert_eq!(
            hexd(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hexd(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn oci_string_roundtrip() {
        let d = sha256(b"layer data");
        let s = d.oci();
        assert!(s.starts_with("sha256:"));
        assert_eq!(Digest::parse_oci(&s), Some(d));
        assert_eq!(Digest::parse_oci("sha256:zz"), None);
        assert_eq!(Digest::parse_oci("md5:abcd"), None);
    }

    proptest! {
        #[test]
        fn streaming_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                      split in 0usize..4096) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        #[test]
        fn distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..256),
                                            b in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    /// Hash `parts` as consecutive `update` calls through `block_fn`.
    fn digest_with(block_fn: BlockFn, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.absorb(part, block_fn);
        }
        h.finish(block_fn)
    }

    /// The SHA-NI block function, or `None` with a note when this CPU
    /// lacks the SHA extensions.
    fn shani_block_fn() -> Option<BlockFn> {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // SAFETY: only returned after `available` confirmed the
            // features the function enables.
            return Some(|state, blocks| unsafe { shani::compress_blocks(state, blocks) });
        }
        eprintln!("note: this CPU lacks the SHA extensions; SHA-NI comparison skipped");
        None
    }

    #[test]
    fn both_block_functions_meet_fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let block_fns: Vec<BlockFn> = std::iter::once(compress_portable as BlockFn)
            .chain(shani_block_fn())
            .collect();
        for block_fn in block_fns {
            for (msg, want) in vectors {
                assert_eq!(hexd(&digest_with(block_fn, &[msg])), want);
            }
        }
    }

    proptest! {
        #[test]
        fn shani_matches_portable(data in proptest::collection::vec(any::<u8>(), 0..10 * 1024),
                                  cuts in proptest::collection::vec(0usize..10 * 1024, 0..8)) {
            let Some(shani) = shani_block_fn() else {
                return;
            };
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                parts.push(&data[from..cut]);
                from = cut;
            }
            let want = digest_with(compress_portable, &parts);
            prop_assert_eq!(digest_with(shani, &parts), want);
            prop_assert_eq!(sha256(&data), want);
        }
    }

    #[test]
    fn many_small_updates_match() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(&data));
    }
}
