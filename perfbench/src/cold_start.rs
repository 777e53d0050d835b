//! `cold-start`: the read side of the data plane, a closed loop per node.
//!
//! A small catalogue of images sharing two base layers is published as
//! OCI and as seekable indexes to a primary registry and a mirror. Each
//! node runs its own engine over a node-local journalled blob store and
//! starts containers back to back: eager (`Engine::pull_resilient` →
//! `prepare` → read the first-exec set from the prepared root) or
//! lazy (`pull_lazy` → `LazyContainer::read_file`). Image choice follows
//! Zipf popularity, so repeat and sibling starts hit the node store and
//! the conversion cache. A seeded brownout of the primary is absorbed by
//! the engines' own resilience (breakers, hedging, the mirror).
//!
//! Op latency is time to first exec: from when the start was due (the
//! node's previous start completed) until the first-exec set was read.

use crate::common::{self, Counters, InputHasher, Round, Workload, MIB};
use crate::kernels;
use crate::metrics;
use crate::probe::Probe;
use hpcc_crypto::sha256::Digest;
use hpcc_engine::engine::{Engine, Host, PullResilience, PullSources};
use hpcc_engine::engines;
use hpcc_engine::lazy::publish_seekable;
use hpcc_oci::builder::ImageBuilder;
use hpcc_oci::cas::Cas;
use hpcc_oci::image::MediaType;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::obs::Tracer;
use hpcc_sim::resilience::{BreakerConfig, HedgePolicy};
use hpcc_sim::{DetRng, FaultInjector, FaultKind, FaultRule, SimClock, SimSpan, SimTime};
use hpcc_storage::journal::JournaledStore;
use hpcc_storage::BlobStore;
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::seekable::DEFAULT_CHUNK_SIZE;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Nodes, each with its own engine and store.
pub const NODES: usize = 2;
/// Starts per node per round.
pub const STARTS_PER_NODE: usize = 512;
/// Share of each image's starts on a node that run eager.
pub const EAGER_SHARE: f64 = 0.4;
/// Files read before first exec, besides the entrypoint.
pub const FIRST_EXEC_FILES: usize = 4;
/// Primary brownout: share of requests refused inside the window.
pub const BROWNOUT_FAILURE_P: f64 = 0.95;
pub const BROWNOUT_LEN: SimSpan = SimSpan(2_000_000_000);

/// Content class of a generated file.
#[derive(Clone, Copy)]
enum Class {
    Text,
    Binary,
    Random,
}

/// A group of files: (count, class, nominal bytes per file).
type Group = (usize, Class, usize);

/// Image catalogue in popularity order (Zipf rank 1 first): name and
/// the app layer's file groups.
const CATALOGUE: &[(&str, &[Group])] = &[
    ("pyapp", &[(192, Class::Text, 2 << 10)]),
    (
        "solver",
        &[(1, Class::Binary, 1 << 20), (16, Class::Text, 4 << 10)],
    ),
    (
        "analysis",
        &[
            (64, Class::Text, 8 << 10),
            (1, Class::Random, 1 << 20),
            (1, Class::Binary, 1 << 20),
        ],
    ),
    (
        "ml",
        &[
            (96, Class::Text, 4 << 10),
            (1, Class::Random, 2 << 20),
            (1, Class::Binary, 1 << 20),
        ],
    ),
    (
        "bigdata",
        &[
            (3, Class::Random, 2 << 20),
            (2, Class::Binary, 1 << 20),
            (32, Class::Text, 16 << 10),
        ],
    ),
];
/// Shared base layers: the OS userland (many small text files) and the
/// MPI stack (a few binaries).
const BASE_OS: Group = (160, Class::Text, 3 << 10);
const BASE_MPI: Group = (2, Class::Binary, 384 << 10);

type Files = BTreeMap<String, Arc<Vec<u8>>>;

struct Image {
    repo: String,
    index: Digest,
    /// Every file of the image as the generator wrote it.
    files: Files,
    entrypoint: String,
}

struct Start {
    image: usize,
    eager: bool,
    touch: Vec<String>,
}

pub struct ColdStart {
    seed: u64,
    primary: Registry,
    mirror: Registry,
    images: Vec<Image>,
    starts: Vec<Vec<Start>>,
    brownout: (SimTime, SimTime),
    digest: Digest,
    /// Uncompressed bytes of each image, in catalogue order.
    image_bytes: Vec<u64>,
}

fn gen(rng: &mut DetRng, class: Class, len: usize) -> Vec<u8> {
    match class {
        Class::Text => common::text(rng, len),
        Class::Binary => common::binary(rng, len),
        Class::Random => common::random(rng, len),
    }
}

fn gen_files(rng: &mut DetRng, dir: &str, spec: &[Group], out: &mut Files) {
    for (g, &(count, class, len)) in spec.iter().enumerate() {
        let ext = match class {
            Class::Text => "py",
            Class::Binary => "so",
            Class::Random => "bin",
        };
        // Varied sizes keep per-file costs (and so the latency
        // percentiles) from collapsing onto a few steps.
        for (i, len) in common::spread_sizes(rng, count, len)
            .into_iter()
            .enumerate()
        {
            out.insert(
                format!("{dir}/g{g}/f{i}.{ext}"),
                Arc::new(gen(rng, class, len)),
            );
        }
    }
}

fn write_all(fs: &mut MemFs, files: &Files) -> Result<(), String> {
    for (path, data) in files {
        fs.write_p(&VPath::parse(&format!("/{path}")), data.as_ref().clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

impl ColdStart {
    pub fn setup(seed: u64, probe: &Probe) -> ColdStart {
        let mut rng = DetRng::seeded(seed);
        let mut hasher = InputHasher::new("cold-start");

        // ---- content ------------------------------------------------
        let mut content_rng = rng.fork(1);
        let mut os = Files::new();
        gen_files(&mut content_rng, "usr/lib/os", &[BASE_OS], &mut os);
        let mut mpi = Files::new();
        gen_files(&mut content_rng, "opt/mpi/lib", &[BASE_MPI], &mut mpi);
        let apps: Vec<Files> = CATALOGUE
            .iter()
            .map(|(name, spec)| {
                let mut f = Files::new();
                gen_files(&mut content_rng, &format!("opt/{name}"), spec, &mut f);
                f
            })
            .collect();
        for files in std::iter::once(&os)
            .chain(std::iter::once(&mpi))
            .chain(apps.iter())
        {
            for (p, d) in files {
                hasher.add(p.as_bytes());
                hasher.add(d);
            }
        }

        // ---- publish: OCI + seekable, primary and mirror --------------
        let primary = Registry::new("origin", RegistryCaps::open());
        let mirror = Registry::new("mirror", RegistryCaps::open());
        for r in [&primary, &mirror] {
            r.create_namespace("site", None).expect("fresh namespace");
        }
        let cas = Cas::new();
        let mut images = Vec::with_capacity(CATALOGUE.len());
        for ((name, _), app) in CATALOGUE.iter().zip(&apps) {
            let repo = format!("site/{name}");
            let entrypoint = app.keys().next().expect("app layer has files").clone();
            let img = probe.time("oci.image_build", || {
                ImageBuilder::from_scratch()
                    .run("os", |fs| write_all(fs, &os))
                    .run("mpi", |fs| write_all(fs, &mpi))
                    .run("app", |fs| write_all(fs, app))
                    .entrypoint(&[&format!("/{entrypoint}")])
                    .build(&cas)
                    .expect("catalogue image builds")
            });
            probe.time("registry.push", || {
                common::push_image(&primary, &cas, &repo, "v1", &img);
                common::push_image(&mirror, &cas, &repo, "v1", &img);
            });
            let rootfs = img.flatten().expect("built image flattens");
            let (index, seekable) = probe.time("engine.publish_seekable", || {
                publish_seekable(&primary, &rootfs, &VPath::root(), DEFAULT_CHUNK_SIZE)
                    .expect("seekable publish succeeds")
            });
            probe.time("registry.push", || {
                for d in seekable.distinct_chunks() {
                    if !mirror.has_blob(&d) {
                        let data = primary.cas().get(&d).expect("chunk was published");
                        mirror
                            .push_blob(MediaType::Layer, d, data.as_ref().clone())
                            .expect("mirror chunk push");
                    }
                }
                mirror
                    .push_blob(MediaType::UserDefined, index, seekable.to_bytes())
                    .expect("mirror index push");
            });
            let mut files = os.clone();
            files.extend(mpi.iter().map(|(k, v)| (k.clone(), Arc::clone(v))));
            files.extend(app.iter().map(|(k, v)| (k.clone(), Arc::clone(v))));
            images.push(Image {
                repo,
                index,
                files,
                entrypoint,
            });
        }

        // ---- start schedule -------------------------------------------
        let weights: Vec<f64> = (1..=CATALOGUE.len()).map(|r| 1.0 / r as f64).collect();
        let counts = common::apportion(STARTS_PER_NODE, &weights);
        let mut sched_rng = rng.fork(2);
        let mut touch_rng = rng.fork(3);
        let starts: Vec<Vec<Start>> = (0..NODES)
            .map(|_| {
                let mut list = Vec::with_capacity(STARTS_PER_NODE);
                for (image, &count) in counts.iter().enumerate() {
                    let eager = ((count as f64 * EAGER_SHARE).round() as usize).max(1);
                    let mut modes: Vec<bool> = (0..count).map(|k| k < eager).collect();
                    common::shuffle(&mut sched_rng, &mut modes);
                    // First exec loads the entrypoint, one shared library
                    // and a few modules; data files are read later.
                    let of = |ext: &str| -> Vec<&String> {
                        images[image]
                            .files
                            .keys()
                            .filter(|p| p.ends_with(ext))
                            .collect()
                    };
                    let (libs, modules) = (of(".so"), of(".py"));
                    for eager in modes {
                        let mut touch = vec![images[image].entrypoint.clone()];
                        let k = touch_rng.uniform(0, libs.len() as u64) as usize;
                        touch.push(libs[k].clone());
                        for _ in 0..FIRST_EXEC_FILES {
                            let k = touch_rng.uniform(0, modules.len() as u64) as usize;
                            touch.push(modules[k].clone());
                        }
                        list.push(Start {
                            image,
                            eager,
                            touch,
                        });
                    }
                }
                common::shuffle(&mut sched_rng, &mut list);
                for s in &list {
                    hasher.add(&[s.image as u8, s.eager as u8]);
                    for t in &s.touch {
                        hasher.add(t.as_bytes());
                    }
                }
                list
            })
            .collect();

        let from = SimTime::ZERO + SimSpan::millis(rng.uniform(20, 80));
        let brownout = (from, from + BROWNOUT_LEN);
        hasher.add(&from.as_nanos().to_le_bytes());

        ColdStart {
            seed,
            primary,
            mirror,
            starts,
            brownout,
            digest: hasher.finish(),
            image_bytes: images
                .iter()
                .map(|i| i.files.values().map(|d| d.len() as u64).sum())
                .collect(),
            images,
        }
    }

    /// Re-publish the first image as a seekable index whose entrypoint
    /// differs from the generated bytes in one byte, and make every start
    /// lazy so they read it. The self-test uses this to show that the
    /// content check fails.
    pub fn tamper_first_image(&mut self) {
        let img = &mut self.images[0];
        let mut fs = MemFs::new();
        let mut tampered = img.files.clone();
        let victim = img.entrypoint.clone();
        let mut bytes = tampered[&victim].as_ref().clone();
        bytes[0] ^= 0x01;
        tampered.insert(victim, Arc::new(bytes));
        write_all(&mut fs, &tampered).expect("tampered tree writes");
        let (index, _) = publish_seekable(&self.primary, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE)
            .expect("tampered publish succeeds");
        img.index = index;
        for node in &mut self.starts {
            for s in node.iter_mut() {
                s.eager = false;
            }
        }
    }

    fn new_node(&self, faults: &Arc<FaultInjector>, traced: bool) -> Engine {
        let engine = engines::podman_hpc();
        engine.set_journaled_store(JournaledStore::new(BlobStore::new(8, 1 << 30)));
        engine.set_fault_injector(Arc::clone(faults));
        engine.set_pull_resilience(Some(Arc::new(
            PullResilience::new(BreakerConfig::default()).with_hedging(
                HedgePolicy {
                    hedge_after: SimSpan::millis(200),
                },
                64,
            ),
        )));
        if traced {
            engine.set_tracer(Tracer::new());
        }
        engine
    }
}

struct OpResult {
    ok: bool,
    errors: Vec<String>,
}

impl ColdStart {
    #[allow(clippy::too_many_arguments)]
    fn start(
        &self,
        probe: &Probe,
        engine: &Engine,
        host: &Host,
        s: &Start,
        clock: &SimClock,
        lazy_fetch_ns: &mut u64,
        vfs_bytes: &mut u64,
    ) -> OpResult {
        let img = &self.images[s.image];
        let sources = PullSources {
            primary: &self.primary,
            tier: None,
            proxy: None,
            mirror: Some(&self.mirror),
        };
        let mut errors = Vec::new();
        let check = |errors: &mut Vec<String>, path: &str, got: &[u8]| {
            if img.files.get(path).map(|d| d.as_slice()) != Some(got) {
                errors.push(format!(
                    "{}: {path} differs from the generated bytes",
                    img.repo
                ));
            }
        };
        if s.eager {
            let pulled = match probe.time("engine.pull", || {
                engine.pull_resilient(&sources, &img.repo, "v1", clock)
            }) {
                Ok((pulled, _source)) => pulled,
                Err(_) => return OpResult { ok: false, errors },
            };
            let prepared = match probe.time("engine.prepare", || {
                engine.prepare(&pulled, 1000, host, true, clock)
            }) {
                Ok(p) => p,
                Err(_) => return OpResult { ok: false, errors },
            };
            for p in &s.touch {
                match probe.time("vfs.read", || prepared.driver.read_file(p, clock)) {
                    Ok(data) => {
                        *vfs_bytes += data.len() as u64;
                        check(&mut errors, p, &data);
                    }
                    Err(_) => return OpResult { ok: false, errors },
                }
            }
        } else {
            let c = match probe.time("engine.pull_lazy", || {
                engine.pull_lazy(sources, &img.index, clock)
            }) {
                Ok(c) => c,
                Err(_) => return OpResult { ok: false, errors },
            };
            for p in &s.touch {
                let before = (c.stats().chunk_misses, clock.now());
                match probe.time("engine.lazy.read", || c.read_file(p, clock)) {
                    Ok(data) => {
                        if c.stats().chunk_misses > before.0 {
                            *lazy_fetch_ns += clock.now().since(before.1).as_nanos();
                        }
                        check(&mut errors, p, &data);
                    }
                    Err(_) => return OpResult { ok: false, errors },
                }
            }
        }
        OpResult { ok: true, errors }
    }
}

impl Workload for ColdStart {
    fn round(&self, probe: &Probe, traced: bool) -> Round {
        let faults = Arc::new(FaultInjector::new(
            self.seed,
            vec![FaultRule::transient(
                FaultKind::RegistryUnavailable,
                self.brownout.0,
                self.brownout.1,
                BROWNOUT_FAILURE_P,
            )],
        ));
        self.primary.set_fault_injector(Arc::clone(&faults));
        let origin_tracer = Tracer::new();
        self.primary.set_tracer(Arc::clone(&origin_tracer));
        let reg_before = self.primary.stats();

        let host = Host::compute_node();
        let engines: Vec<Engine> = (0..NODES).map(|_| self.new_node(&faults, traced)).collect();
        let clocks: Vec<SimClock> = (0..NODES).map(|_| SimClock::new()).collect();
        let mut next = [0usize; NODES];
        let mut lat = Vec::with_capacity(NODES * STARTS_PER_NODE);
        let (mut attempted, mut ok, mut failed) = (0u64, 0u64, 0u64);
        let mut errors = Vec::new();
        let (mut lazy_fetch_ns, mut vfs_bytes) = (0u64, 0u64);
        let mut last_done = SimTime::ZERO;
        let mut op = 0u64;
        // Nodes run concurrently on the logical timeline: always advance
        // the node whose clock is furthest behind.
        while let Some(n) = (0..NODES)
            .filter(|&n| next[n] < self.starts[n].len())
            .min_by_key(|&n| (clocks[n].now(), n))
        {
            let s = &self.starts[n][next[n]];
            next[n] += 1;
            op += 1;
            probe.set_op(op);
            let due = clocks[n].now();
            let r = probe.time("bench.op", || {
                self.start(
                    probe,
                    &engines[n],
                    &host,
                    s,
                    &clocks[n],
                    &mut lazy_fetch_ns,
                    &mut vfs_bytes,
                )
            });
            attempted += 1;
            let done = clocks[n].now();
            last_done = last_done.max(done);
            errors.extend(r.errors);
            if r.ok {
                ok += 1;
                lat.push(done.since(due).as_nanos());
            } else {
                failed += 1;
                if !(self.brownout.0 <= done && due < self.brownout.1) {
                    errors.push(format!("start failed outside the brownout at {due}"));
                }
            }
        }

        // ---- counters ---------------------------------------------------
        let m = faults.metrics();
        let mut c = Counters::new();
        let (hits, misses) = engines
            .iter()
            .map(|e| e.cache_stats())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        c.insert(
            "engine.prepare.cache_hit_ratio",
            metrics::ratio(hits, hits + misses),
        );
        c.insert(
            "engine.pull.fetched_mib",
            m.get("engine.pull.fetched_bytes") as f64 / MIB,
        );
        c.insert(
            "engine.lazy.fetched_mib",
            m.get("engine.lazy.fetched_bytes") as f64 / MIB,
        );
        c.insert("engine.lazy.fetch.logical_s", lazy_fetch_ns as f64 / 1e9);
        c.insert("vfs.read.mib", vfs_bytes as f64 / MIB);
        metrics::resilience_counters(m, &mut c);
        let mut store = hpcc_storage::blobstore::BlobStoreStats::default();
        for e in &engines {
            let s = e.blob_store().expect("node store attached").stats();
            store.hits += s.hits;
            store.misses += s.misses;
            store.hit_bytes += s.hit_bytes;
            store.dedup_bytes += s.dedup_bytes;
            store.evictions += s.evictions;
        }
        metrics::blobstore_counters(&store, &mut c);
        let reg = self.primary.stats();
        c.insert(
            "registry.blob_pulls",
            (reg.blob_pulls - reg_before.blob_pulls) as f64,
        );
        c.insert(
            "registry.manifest_pulls",
            (reg.manifest_pulls - reg_before.manifest_pulls) as f64,
        );
        let origin_bytes: u64 = origin_tracer
            .finished()
            .iter()
            .filter(|s| s.name.as_str() == "registry.blob")
            .flat_map(|s| s.attrs.iter())
            .filter(|(k, _)| k.as_str() == "bytes")
            .map(|(_, v)| v.parse::<u64>().expect("byte count attribute"))
            .sum();
        c.insert(
            "origin_mib_per_op",
            origin_bytes as f64 / MIB / ok.max(1) as f64,
        );
        let spans: Vec<_> = engines.iter().flat_map(|e| e.tracer().finished()).collect();
        if traced {
            metrics::logical_sums(
                &spans,
                &[
                    ("engine.pull", "engine.pull.logical_s"),
                    ("engine.convert", "engine.convert.logical_s"),
                ],
                &mut c,
            );
        }
        self.primary.set_fault_injector(FaultInjector::disabled());
        self.primary.set_tracer(Tracer::disabled());
        let mut round = Round::from_latencies(
            (attempted, ok, failed),
            lat,
            last_done.since(SimTime::ZERO).as_nanos(),
            c,
            errors,
        );
        round.logical_spans = spans;
        round
    }

    fn inputs_digest(&self) -> Digest {
        self.digest
    }

    fn kernel_sample(&self) -> Option<Vec<u8>> {
        // The largest image: the content mix a cold conversion compresses.
        let img = self.images.last().expect("catalogue is non-empty");
        Some(kernels::sample_of(img.files.values().map(|d| d.as_slice())))
    }

    fn computed_codec_mib(&self) -> f64 {
        // Every node converts every image once per round (each image has
        // at least one eager start per node), compressing all its bytes.
        NODES as f64 * self.image_bytes.iter().sum::<u64>() as f64 / MIB
    }
}
