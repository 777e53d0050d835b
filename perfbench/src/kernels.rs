//! Same-run kernel calibration: codec, SHA-256 and WOTS signing timed on
//! a sample of the workload's own content, in the same process and on
//! the same host as the run they describe.

use crate::common::{self, Counters, MIB};
use hpcc_codec::compress::{self, Codec};
use hpcc_crypto::sha256::sha256;
use hpcc_crypto::wots::Keypair;
use std::hint::black_box;
use std::time::Instant;

/// Largest sample timed; longer content is truncated.
const SAMPLE_MAX: usize = 4 << 20;
/// Repetitions per kernel; the median is reported.
const REPS: usize = 5;
/// One-time signatures timed per repetition.
const SIGNS: usize = 8;

/// Bytes taken from the front of each content item.
const SLICE: usize = 64 << 10;

/// A calibration sample across `parts`: up to [`SLICE`] bytes of each, so
/// every content class in the workload is represented.
pub fn sample_of<'a>(parts: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    for p in parts {
        out.extend_from_slice(&p[..p.len().min(SLICE)]);
        if out.len() >= SAMPLE_MAX {
            break;
        }
    }
    out
}

fn median_secs(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    common::median(&times)
}

/// Time LZ compress and decompress, SHA-256 and WOTS signing on `sample`
/// (median of [`REPS`]) and record the rates in `c`.
pub fn calibrate(mut sample: Vec<u8>, c: &mut Counters) {
    sample.truncate(SAMPLE_MAX);
    let mib = sample.len() as f64 / MIB;
    let packed = compress::compress(Codec::Lz, &sample);
    let unpacked = compress::decompress(&packed).expect("own container decodes");
    assert_eq!(unpacked, sample, "codec round trip");

    let t_compress = median_secs(|| {
        black_box(compress::compress(Codec::Lz, black_box(&sample)));
    });
    let t_decompress = median_secs(|| {
        black_box(compress::decompress(black_box(&packed)).expect("decodes"));
    });
    let t_sha = median_secs(|| {
        black_box(sha256(black_box(&sample)));
    });
    // Key generation stays outside the timed region.
    let message = sha256(&sample);
    let mut sign_only = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut key = Keypair::generate(b"perfbench-calibration", 3);
        let t = Instant::now();
        for _ in 0..SIGNS {
            black_box(key.sign(black_box(&message)).expect("key has leaves left"));
        }
        sign_only.push(t.elapsed().as_secs_f64() / SIGNS as f64);
    }

    c.insert("codec.compress_mib_s", mib / t_compress);
    c.insert("codec.decompress_mib_s", mib / t_decompress);
    c.insert("codec.ratio", sample.len() as f64 / packed.len() as f64);
    c.insert("crypto.sha256_mib_s", mib / t_sha);
    c.insert("crypto.wots_sign_ms", common::median(&sign_only) * 1e3);
}
