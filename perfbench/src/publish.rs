//! `publish`: the write side of the data plane, a closed loop per tenant.
//!
//! Each tenant runs a CI loop: `build_fleet` of a spec on a shared
//! MPI/Python base where only the leaf step changes per build, then
//! `sign_and_push` (WOTS signature, transparency log, journalled push),
//! `publish_seekable` of the built root, and a `verified_pull` by one
//! consumer node. It exercises the codec, crypto, registry and storage
//! layers that `cold-start` reads through, but for writes.
//!
//! Op latency: from when the build was due (the tenant's previous build
//! completed) until its signed image was verified-pullable.

use crate::common::{self, Counters, InputHasher, Round, Workload, MIB};
use crate::kernels;
use crate::metrics;
use crate::probe::Probe;
use hpcc_build::{build_fleet, sign_and_push, verified_pull, BuildCache, BuildRequest, BuildSpec};
use hpcc_crypto::sha256::Digest;
use hpcc_crypto::translog::TransparencyLog;
use hpcc_crypto::wots::Keypair;
use hpcc_engine::engine::Engine;
use hpcc_engine::engines;
use hpcc_engine::lazy::publish_seekable;
use hpcc_oci::cas::Cas;
use hpcc_oci::layer;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::obs::Tracer;
use hpcc_sim::{CrashInjector, DetRng, FaultInjector, SimClock, SimTime};
use hpcc_storage::journal::JournaledStore;
use hpcc_storage::BlobStore;
use hpcc_vfs::path::VPath;
use hpcc_vfs::seekable::DEFAULT_CHUNK_SIZE;
use std::sync::Arc;

pub const TENANTS: usize = 4;
pub const BUILDS_PER_TENANT: usize = 50;
/// Bounded build workers per fleet.
const WORKERS: usize = 2;
/// One-time signatures per tenant key: 2^6 = 64 ≥ builds per tenant.
const KEY_HEIGHT: u8 = 6;

type File = (String, Vec<u8>);

struct Build {
    tag: String,
    leaf: File,
}

pub struct Publish {
    /// Shared base: OS userland with the MPI library, and the Python
    /// runtime, identical for every tenant and build.
    base: Vec<File>,
    python: Vec<File>,
    /// One library per tenant, identical across the tenant's builds.
    tenant_libs: Vec<File>,
    builds: Vec<Vec<Build>>,
    keys: Vec<Keypair>,
    digest: Digest,
}

fn refs(files: &[File]) -> Vec<(&str, &[u8])> {
    files
        .iter()
        .map(|(p, d)| (p.as_str(), d.as_slice()))
        .collect()
}

impl Publish {
    pub fn setup(seed: u64, _probe: &Probe) -> Publish {
        let mut rng = DetRng::seeded(seed);
        let mut hasher = InputHasher::new("publish");
        let mut files = |rng: &mut DetRng, dir: &str, sizes: Vec<usize>, text: bool| {
            sizes
                .into_iter()
                .enumerate()
                .map(|(i, len)| {
                    let data = if text {
                        common::text(rng, len)
                    } else {
                        common::binary(rng, len)
                    };
                    hasher.add(&data);
                    (format!("{dir}/f{i}"), data)
                })
                .collect::<Vec<File>>()
        };
        let sizes = common::spread_sizes(&mut rng, 16, 3 << 10);
        let mut base = files(&mut rng, "/usr/lib/os", sizes, true);
        base.extend(files(&mut rng, "/usr/lib/mpi", vec![64 << 10], false));
        let sizes = common::spread_sizes(&mut rng, 16, 3 << 10);
        let python = files(&mut rng, "/usr/lib/python3", sizes, true);
        let tenant_libs: Vec<File> = (0..TENANTS)
            .map(|t| files(&mut rng, &format!("/srv/t{t}/lib"), vec![16 << 10], false).remove(0))
            .collect();
        let builds: Vec<Vec<Build>> = (0..TENANTS)
            .map(|t| {
                // Leaf sizes vary freely, so each tenant's total work (and
                // the makespan) differs a little from seed to seed.
                let sizes = (0..BUILDS_PER_TENANT)
                    .map(|_| ((16 << 10) as f64 * (0.5 + rng.unit())) as usize)
                    .collect();
                files(&mut rng, &format!("/srv/t{t}/app"), sizes, true)
                    .into_iter()
                    .enumerate()
                    .map(|(b, leaf)| Build {
                        tag: format!("b{b}"),
                        leaf,
                    })
                    .collect()
            })
            .collect();
        let keys = (0..TENANTS)
            .map(|t| Keypair::generate(format!("tenant-{t}-seed-{seed}").as_bytes(), KEY_HEIGHT))
            .collect();
        Publish {
            base,
            python,
            tenant_libs,
            builds,
            keys,
            digest: hasher.finish(),
        }
    }

    fn spec(&self, t: usize, b: &Build) -> BuildSpec {
        let (lib_path, lib) = &self.tenant_libs[t];
        let (leaf_path, leaf) = &b.leaf;
        BuildSpec::from_scratch("app")
            .run("base", &refs(&self.base))
            .run("python", &refs(&self.python))
            .copy(lib_path, lib.clone())
            .copy(leaf_path, leaf.clone())
            .env("BUILD", &b.tag)
            .entrypoint(&[leaf_path])
    }

    /// Self-test: re-publish a built image with one flipped byte in its
    /// leaf layer under the signed tag; `verified_pull` must refuse it.
    pub fn tampered_pull_is_rejected(&self) -> bool {
        let registry = Registry::new("origin", RegistryCaps::open());
        registry
            .create_namespace("t0", None)
            .expect("fresh namespace");
        let cache = BuildCache::new(BlobStore::new(8, 1 << 30));
        let journal = JournaledStore::new(Arc::clone(cache.store()));
        let crash = CrashInjector::disabled();
        let cas = Cas::new();
        let engine = engines::podman_hpc();
        let mut key = self.keys[0].clone();
        let mut log = TransparencyLog::new();
        let clock = SimClock::new();
        let tracer = Tracer::disabled();
        let build = &self.builds[0][0];
        let req = BuildRequest::new("t0", "app", &build.tag, self.spec(0, build));
        let out = build_fleet(&[req], WORKERS, &cache, &cas, &tracer, &clock)
            .expect("build succeeds")
            .remove(0);
        let signed = sign_and_push(
            &engine, &mut key, &mut log, &registry, &out, &cas, &journal, &crash, &clock,
        )
        .expect("push succeeds");
        let clean = verified_pull(
            &engine,
            &registry,
            &out.repo,
            &out.tag,
            &signed.proof,
            &signed.head,
            &clock,
        )
        .is_ok();

        let mut flipped = build.leaf.1.clone();
        flipped[0] ^= 0x01;
        let tampered = Build {
            tag: build.tag.clone(),
            leaf: (build.leaf.0.clone(), flipped),
        };
        let req = BuildRequest::new("t0", "app", &tampered.tag, self.spec(0, &tampered));
        let evil = build_fleet(&[req], WORKERS, &cache, &cas, &tracer, &clock)
            .expect("build succeeds")
            .remove(0);
        common::push_image(&registry, &cas, &evil.repo, &evil.tag, &evil.image);
        let rejected = verified_pull(
            &engine,
            &registry,
            &out.repo,
            &out.tag,
            &signed.proof,
            &signed.head,
            &clock,
        )
        .is_err();
        clean && rejected
    }
}

impl Workload for Publish {
    fn round(&self, probe: &Probe, traced: bool) -> Round {
        let registry = Registry::new("origin", RegistryCaps::open());
        for t in 0..TENANTS {
            registry
                .create_namespace(&format!("t{t}"), None)
                .expect("fresh namespace");
        }
        let cache = BuildCache::new(BlobStore::new(8, 1 << 30));
        let journal = JournaledStore::new(Arc::clone(cache.store()));
        let crash = CrashInjector::disabled();
        journal.set_crash_injector(Arc::clone(&crash));
        let cas = Cas::new();
        let mut log = TransparencyLog::new();
        let mut keys = self.keys.clone();
        let tracer = if traced {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let builder = engines::podman_hpc();
        builder.set_tracer(Arc::clone(&tracer));
        let consumer = engines::podman_hpc();
        let faults = Arc::new(FaultInjector::new(0, Vec::new()));
        consumer.set_fault_injector(Arc::clone(&faults));
        consumer.set_blob_store(BlobStore::new(8, 1 << 30));
        let pull_tracer = if traced {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        consumer.set_tracer(Arc::clone(&pull_tracer));

        let clocks: Vec<SimClock> = (0..TENANTS).map(|_| SimClock::new()).collect();
        let mut next = [0usize; TENANTS];
        let mut lat = Vec::with_capacity(TENANTS * BUILDS_PER_TENANT);
        let (mut attempted, mut ok, mut failed) = (0u64, 0u64, 0u64);
        let mut errors = Vec::new();
        let mut last_done = SimTime::ZERO;
        let mut op = 0u64;
        while let Some(t) = (0..TENANTS)
            .filter(|&t| next[t] < self.builds[t].len())
            .min_by_key(|&t| (clocks[t].now(), t))
        {
            let b = &self.builds[t][next[t]];
            next[t] += 1;
            op += 1;
            probe.set_op(op);
            let clock = &clocks[t];
            let due = clock.now();
            attempted += 1;
            let done_ok = probe.time("bench.op", || {
                self.ci_step(
                    probe,
                    t,
                    b,
                    &builder,
                    &consumer,
                    &registry,
                    &cache,
                    &journal,
                    &crash,
                    &cas,
                    &mut log,
                    &mut keys[t],
                    &tracer,
                    clock,
                    &mut errors,
                )
            });
            let done = clock.now();
            last_done = last_done.max(done);
            if done_ok {
                ok += 1;
                lat.push(done.since(due).as_nanos());
            } else {
                failed += 1;
            }
        }

        let mut c = Counters::new();
        let s = cache.stats();
        c.insert(
            "build.cache.hit_ratio",
            metrics::ratio(s.hits, s.hits + s.misses),
        );
        let reg = registry.stats();
        c.insert("registry.pushes", reg.pushes as f64);
        c.insert("registry.blob_pulls", reg.blob_pulls as f64);
        c.insert("registry.manifest_pulls", reg.manifest_pulls as f64);
        c.insert(
            "engine.pull.fetched_mib",
            faults.metrics().get("engine.pull.fetched_bytes") as f64 / MIB,
        );
        metrics::blobstore_counters(
            &consumer.blob_store().expect("consumer store").stats(),
            &mut c,
        );
        c.insert(
            "origin_mib_per_op",
            registry.cas().stats().stored_bytes as f64 / MIB / ok.max(1) as f64,
        );
        let mut spans = tracer.finished();
        spans.extend(pull_tracer.finished());
        if traced {
            metrics::logical_sums(
                &spans,
                &[
                    ("build.step", "build.step.logical_s"),
                    ("build.sign", "build.sign.logical_s"),
                    ("build.push", "build.push.logical_s"),
                    ("engine.pull", "engine.pull.logical_s"),
                ],
                &mut c,
            );
        }
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
        let leaves = self.builds.iter().flatten().map(|b| b.leaf.1.as_slice());
        let base = self
            .base
            .iter()
            .chain(&self.python)
            .map(|(_, d)| d.as_slice());
        Some(kernels::sample_of(leaves.chain(base)))
    }

    fn computed_codec_mib(&self) -> f64 {
        // Per build: the new leaf layer, plus the whole root again for
        // the seekable publish. The shared layers compress once a round.
        let bytes = |f: &[File]| f.iter().map(|(_, d)| d.len()).sum::<usize>();
        let shared = bytes(&self.base) + bytes(&self.python);
        let libs = bytes(&self.tenant_libs);
        let mut total = shared + libs;
        for (t, builds) in self.builds.iter().enumerate() {
            for b in builds {
                let leaf = b.leaf.1.len();
                total += leaf + shared + self.tenant_libs[t].1.len() + leaf;
            }
        }
        total as f64 / MIB
    }
}

impl Publish {
    /// One CI iteration for tenant `t`; false when any stage failed. No
    /// fault is injected here, so every failed stage is also an error.
    #[allow(clippy::too_many_arguments)]
    fn ci_step(
        &self,
        probe: &Probe,
        t: usize,
        b: &Build,
        builder: &Engine,
        consumer: &Engine,
        registry: &Registry,
        cache: &Arc<BuildCache>,
        journal: &JournaledStore,
        crash: &CrashInjector,
        cas: &Cas,
        log: &mut TransparencyLog,
        key: &mut Keypair,
        tracer: &Arc<Tracer>,
        clock: &SimClock,
        errors: &mut Vec<String>,
    ) -> bool {
        let req = BuildRequest::new(&format!("t{t}"), "app", &b.tag, self.spec(t, b));
        let mut fail = |stage: &str, e: String| {
            errors.push(format!("t{t}:{}: {stage} failed: {e}", b.tag));
            false
        };
        let mut outs = match probe.time("build.fleet", || {
            build_fleet(&[req], WORKERS, cache, cas, tracer, clock)
        }) {
            Ok(outs) => outs,
            Err(e) => return fail("build_fleet", e.to_string()),
        };
        let out = outs.remove(0);
        let signed = match probe.time("build.sign_and_push", || {
            sign_and_push(
                builder, key, log, registry, &out, cas, journal, crash, clock,
            )
        }) {
            Ok(signed) => signed,
            Err(e) => return fail("sign_and_push", e.to_string()),
        };
        let rootfs = out.image.flatten().expect("built image flattens");
        if let Err(e) = probe.time("engine.publish_seekable", || {
            publish_seekable(registry, &rootfs, &VPath::root(), DEFAULT_CHUNK_SIZE)
        }) {
            return fail("publish_seekable", e.to_string());
        }
        let pulled = match probe.time("build.verified_pull", || {
            verified_pull(
                consumer,
                registry,
                &out.repo,
                &out.tag,
                &signed.proof,
                &signed.head,
                clock,
            )
        }) {
            Ok(p) => p,
            Err(e) => return fail("verified_pull", e.to_string()),
        };
        let root = layer::flatten(&pulled.layers).expect("verified layers flatten");
        for (path, want) in [&b.leaf, &self.tenant_libs[t]] {
            let got = root.read(&VPath::parse(path));
            if got.as_deref().map(|d| d.as_slice()) != Ok(want.as_slice()) {
                errors.push(format!(
                    "{}:{}: {path} differs from the generated bytes",
                    out.repo, out.tag
                ));
            }
        }
        true
    }
}
