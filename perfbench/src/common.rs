//! What every workload shares: the per-round result, percentiles, the
//! content generators and the workload interface.

use crate::probe::Probe;
use hpcc_crypto::sha256::{Digest, Sha256};
use hpcc_oci::builder::BuiltImage;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::Registry;
use hpcc_sim::obs::SpanRecord;
use hpcc_sim::DetRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Per-layer counters and logical span sums of one round, by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// The outcome of one round: every op of the workload, run once from a
/// fresh program state.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub attempted: u64,
    pub failed: u64,
    /// Logical latencies of the ops that succeeded, sorted; empty when
    /// the program reports only percentiles. Only the first round of a
    /// phase keeps them; the hash stands for them in later rounds.
    pub lat_ns: Vec<u64>,
    pub lat_hash: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Ops that succeeded.
    pub ok: u64,
    /// First op due → last op complete, logical.
    pub makespan_ns: u64,
    pub counters: Counters,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// The program's logical spans (traced rounds only).
    pub logical_spans: Vec<SpanRecord>,
}

impl Round {
    /// Build a round from per-op logical latencies, one for each of the
    /// `ok` ops that succeeded.
    pub fn from_latencies(
        (attempted, ok, failed): (u64, u64, u64),
        mut lat_ns: Vec<u64>,
        makespan_ns: u64,
        counters: Counters,
        mut errors: Vec<String>,
    ) -> Round {
        if lat_ns.len() as u64 != ok {
            errors.push(format!(
                "{} latencies for {ok} ops that succeeded",
                lat_ns.len()
            ));
        }
        lat_ns.sort_unstable();
        let mut h = DefaultHasher::new();
        lat_ns.hash(&mut h);
        Round {
            attempted,
            failed,
            lat_hash: h.finish(),
            p50_ns: nearest_rank(&lat_ns, 0.50),
            p95_ns: nearest_rank(&lat_ns, 0.95),
            samples: lat_ns.len() as u64,
            ok,
            lat_ns,
            makespan_ns,
            counters,
            errors,
            logical_spans: Vec::new(),
        }
    }

    /// The round's logical outputs. Two rounds at one seed must agree on
    /// this exactly, traced or not.
    pub fn same_logical(&self, other: &Round) -> bool {
        (
            self.attempted,
            self.failed,
            self.p50_ns,
            self.p95_ns,
            self.samples,
            self.ok,
            self.makespan_ns,
            self.lat_hash,
        ) == (
            other.attempted,
            other.failed,
            other.p50_ns,
            other.p95_ns,
            other.samples,
            other.ok,
            other.makespan_ns,
            other.lat_hash,
        )
    }
}

/// Push a built image's blobs (those the registry lacks) and tag its
/// manifest as `repo:tag`.
pub fn push_image(registry: &Registry, cas: &Cas, repo: &str, tag: &str, img: &BuiltImage) {
    for d in std::iter::once(&img.manifest.config).chain(&img.manifest.layers) {
        if registry.has_blob(&d.digest) {
            continue;
        }
        let data = cas
            .get(&d.digest)
            .expect("built blob is in the builder CAS");
        registry
            .push_blob(d.media_type, d.digest, data.as_ref().clone())
            .expect("push of a verified blob succeeds");
    }
    registry
        .push_manifest(repo, tag, &img.manifest)
        .expect("manifest push succeeds");
}

/// Nearest-rank percentile of a sorted sample; 0 for an empty one.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |k: usize| {
        let m = (n + 1) as f64 * k as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// One benchmark workload.
pub trait Workload {
    /// Run every op once from a fresh program state. With `traced`, the
    /// program's logical tracers are attached and their span sums land in
    /// the round's counters.
    fn round(&self, probe: &Probe, traced: bool) -> Round;

    /// Digest of the generated inputs (the held-out-seed check compares
    /// these across seeds).
    fn inputs_digest(&self) -> Digest;

    /// A sample of the workload's own content for the kernel calibration;
    /// `None` for a workload that does no codec or crypto work, whose
    /// kernel metrics then read 0.
    fn kernel_sample(&self) -> Option<Vec<u8>>;

    /// MiB per round the workload's inputs push through the codec,
    /// computed from input sizes rather than measured.
    fn computed_codec_mib(&self) -> f64;
}

// ------------------------------------------------------------ generators

const WORDS: &[&str] = &[
    "import",
    "numpy",
    "def",
    "return",
    "self",
    "mpi",
    "rank",
    "comm",
    "data",
    "for",
    "in",
    "range",
    "if",
    "else",
    "solver",
    "grid",
    "step",
    "halo",
    "exchange",
    "buffer",
    "np",
    "array",
    "float64",
    "reduce",
    "allreduce",
    "barrier",
    "print",
    "class",
    "None",
    "True",
];

/// Source-like text: lines of identifiers, compresses well.
pub fn text(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        let indent = rng.uniform(0, 3) as usize * 4;
        out.extend(std::iter::repeat_n(b' ', indent));
        for w in 0..rng.uniform(3, 9) {
            if w > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(WORDS[rng.uniform(0, WORDS.len() as u64) as usize].as_bytes());
        }
        out.push(b'\n');
    }
    out.truncate(len);
    out
}

/// Binary-like content: fixed-width records drawn from a small alphabet,
/// the way object code repeats opcodes; compresses moderately.
pub fn binary(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut alphabet = [[0u8; 8]; 64];
    for rec in alphabet.iter_mut() {
        for b in rec.iter_mut() {
            *b = rng.next_u64() as u8;
        }
    }
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&alphabet[rng.uniform(0, 64) as usize]);
        out.push(rng.next_u64() as u8);
    }
    out.truncate(len);
    out
}

/// Incompressible bytes (model weights, compressed archives).
pub fn random(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `count` sizes spread ±50% around `nominal` whose total is fixed, so a
/// seed changes which item is large but not how much work there is.
pub fn spread_sizes(rng: &mut DetRng, count: usize, nominal: usize) -> Vec<usize> {
    let spread: Vec<f64> = (0..count).map(|_| 0.5 + rng.unit()).collect();
    let mean = spread.iter().sum::<f64>() / count as f64;
    spread
        .iter()
        .map(|s| (nominal as f64 * s / mean) as usize)
        .collect()
}

/// Fisher–Yates shuffle on the deterministic generator.
pub fn shuffle<T>(rng: &mut DetRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.uniform(0, i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Split `total` into integer counts proportional to `weights`
/// (largest remainder), each at least 1.
pub fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| (e.floor() as usize).max(1)).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let mut k = 0;
    while counts.iter().sum::<usize>() < total {
        counts[order[k % order.len()]] += 1;
        k += 1;
    }
    counts
}

/// Incremental digest over generated inputs.
pub struct InputHasher(Sha256);

impl InputHasher {
    pub fn new(workload: &str) -> InputHasher {
        let mut h = Sha256::new();
        h.update(workload.as_bytes());
        InputHasher(h)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    pub fn finish(self) -> Digest {
        self.0.finalize()
    }
}
