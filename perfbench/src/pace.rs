//! The host's pace: a fixed reference slice of work, timed in between
//! the workload's own calls, that says how fast the host runs right now.
//!
//! On a shared machine the same code runs 20–40% faster or slower from
//! one minute to the next, and each core drifts on its own. Host-clock
//! metrics are therefore scaled by the reference's speed, measured on the
//! same thread in the same stretch of time:
//!
//! ```text
//! paced seconds = host seconds × REF_SLICE_S / (mean reference slice time)
//! ```
//!
//! On a host where one reference slice takes [`REF_SLICE_S`], paced
//! seconds are host seconds. The slice is code of this benchmark only, so
//! a change to the program moves the paced time and not the reference.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One reference slice's time on a two-core cloud VM at its median pace;
/// the scale on which paced seconds read as host seconds.
pub const REF_SLICE_S: f64 = 0.0025;
/// Reference time as a share of the workload time it paces.
const SHARE: f64 = 0.15;
/// Calls into the program closer together than this share one check.
const TICK: Duration = Duration::from_millis(20);
/// Slices in one catch-up, at most.
const MAX_SLICES: u32 = 64;
/// Words of the random-access buffer (32 MiB): larger than the caches,
/// so the slice feels a busy memory system as the workloads do.
const BUF_WORDS: usize = 1 << 22;

/// Reference slices run since the last [`Pace::take`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    pub slices: u32,
    pub ns: u64,
}

impl Sampled {
    pub fn add(&mut self, other: Sampled) {
        self.slices += other.slices;
        self.ns += other.ns;
    }

    /// Host seconds → paced seconds; host seconds unchanged when no slice
    /// ran.
    pub fn paced(&self, host_s: f64) -> f64 {
        if self.slices == 0 {
            return host_s;
        }
        let slice_s = self.ns as f64 / 1e9 / f64::from(self.slices);
        host_s * REF_SLICE_S / slice_s
    }
}

pub struct Pace {
    buf: Vec<u64>,
    /// End of the last slice: workload time is counted from here.
    last: Instant,
    sampled: Sampled,
}

impl Pace {
    pub fn new() -> Pace {
        Pace {
            buf: vec![1; BUF_WORDS],
            last: Instant::now(),
            sampled: Sampled::default(),
        }
    }

    /// Called between calls into the program: once the workload has run
    /// a while since the last slice, run enough slices to keep the
    /// reference at [`SHARE`] of the time. `force` runs at least one.
    pub fn tick(&mut self, force: bool) {
        let since = self.last.elapsed();
        if !force && since < TICK {
            return;
        }
        let owed = (since.as_secs_f64() * SHARE / REF_SLICE_S).round() as u32;
        let n = owed.clamp(u32::from(force), MAX_SLICES);
        for _ in 0..n {
            let t = Instant::now();
            self.slice();
            self.sampled.slices += 1;
            self.sampled.ns += t.elapsed().as_nanos() as u64;
        }
        self.last = Instant::now();
    }

    /// The slices run since the last call.
    pub fn take(&mut self) -> Sampled {
        std::mem::take(&mut self.sampled)
    }

    /// A fixed mix of what the simulator does most: random memory
    /// access, hashing with small allocations, ordered maps, formatting
    /// and sorting.
    fn slice(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..40_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (x >> 33) as usize % BUF_WORDS;
            self.buf[j] = self.buf[j].wrapping_add(x);
        }
        // Fixed hash keys: the same slice in every process.
        let mut m: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for i in 0..4_000u64 {
            m.insert(i.wrapping_mul(2_654_435_761), vec![i as u8; 48]);
        }
        let found: usize = (0..4_000u64)
            .filter_map(|i| m.get(&i.wrapping_mul(2_654_435_761)))
            .map(Vec::len)
            .sum();
        let mut b: BTreeMap<u64, String> = BTreeMap::new();
        for i in 0..3_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            b.insert(x >> 16, format!("{i}"));
        }
        let mut v: Vec<(u64, String)> = b.into_iter().collect();
        v.sort_by(|p, q| q.1.cmp(&p.1));
        black_box((found, v, &self.buf));
    }
}
