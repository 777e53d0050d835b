//! Lazy-pulling image format (the eStargz/EroFS direction of §7).
//!
//! "With registries like Quay or Dragonfly providing eStargz or EroFS
//! images ... we assume it won't be long until these formats will be
//! evaluated and possibly adopted for HPC usage as an alternative to
//! SIF." This module implements that evaluation: an image whose table of
//! contents is pulled eagerly while file contents are fetched from the
//! registry *on first access*, chunk by chunk, with a node-local cache.
//!
//! The trade-off measured in `quant8`: lazy pulling slashes time-to-first
//! -read and bytes moved for sparse access patterns, but pays a
//! per-miss registry round trip, losing to an eagerly staged squash image
//! once most of the image is touched.
//!
//! Two generations live here:
//!
//! * [`LazyMount`] — the original whole-file-chunk prototype against a
//!   single registry (kept for `quant8`).
//! * [`Engine::pull_lazy`] / [`LazyContainer`] — the production path over
//!   the seekable indexed format ([`SeekableIndex`]): launch on the index
//!   blob alone, fault fixed-size chunk *ranges* in on first touch through
//!   the FUSE cost model, fetch through the engine's full
//!   primary→tier→proxy→mirror degradation chain, deposit into the shared
//!   blob store under journalled intents so a crash mid-page-in recovers
//!   like a crashed pull.

use crate::engine::{
    Engine, EngineError, PullBackend, PullSources, BLOB_STORE_READ_BPS, BLOB_STORE_READ_LATENCY,
};
use hpcc_codec::compress::{self, Codec};
use hpcc_codec::wire::{put_str, put_varint, Reader, WireError};
use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_oci::cas::CasError;
use hpcc_oci::image::MediaType;
use hpcc_registry::registry::{Registry, RegistryError};
use hpcc_sim::{sym, SimClock, SimSpan, SimTime, Stage};
use hpcc_storage::blobstore::BlobStore;
use hpcc_vfs::driver::DriverProfile;
use hpcc_vfs::fs::{FileType, FsError, MemFs};
use hpcc_vfs::path::VPath;
use hpcc_vfs::seekable::{ChunkRef, SeekableEntry, SeekableIndex};
use hpcc_vfs::squash::SquashError;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

const TOC_MAGIC: &[u8; 4] = b"HLZY";

/// Table-of-contents entry: where one file's chunk lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TocEntry {
    /// Digest of the compressed chunk blob in the registry.
    pub chunk: Digest,
    /// Compressed size.
    pub stored_len: u64,
    /// Uncompressed size.
    pub orig_len: u64,
}

/// The eagerly-pulled table of contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LazyToc {
    /// path → entry (files only; directories/symlinks are implicit in
    /// paths for this format).
    pub entries: BTreeMap<String, TocEntry>,
}

impl LazyToc {
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(TOC_MAGIC);
        put_varint(&mut out, self.entries.len() as u64);
        for (path, e) in &self.entries {
            put_str(&mut out, path);
            out.extend_from_slice(&e.chunk.0);
            put_varint(&mut out, e.stored_len);
            put_varint(&mut out, e.orig_len);
        }
        out
    }

    pub fn from_bytes(data: &[u8]) -> Result<LazyToc, WireError> {
        let mut r = Reader::new(data);
        if r.take(4)? != TOC_MAGIC {
            return Err(WireError::Truncated);
        }
        let n = r.varint()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let path = r.str()?.to_string();
            let mut chunk = [0u8; 32];
            chunk.copy_from_slice(r.take(32)?);
            entries.insert(
                path,
                TocEntry {
                    chunk: Digest(chunk),
                    stored_len: r.varint()?,
                    orig_len: r.varint()?,
                },
            );
        }
        Ok(LazyToc { entries })
    }

    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }

    /// Total (uncompressed) image size.
    pub fn total_orig_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.orig_len).sum()
    }
}

/// Errors from lazy-image operations.
#[derive(Debug)]
pub enum LazyError {
    Registry(RegistryError),
    Wire(WireError),
    Codec(hpcc_codec::compress::CodecError),
    Fs(FsError),
    Squash(hpcc_vfs::squash::SquashError),
    NotFound(String),
}

impl From<RegistryError> for LazyError {
    fn from(e: RegistryError) -> Self {
        LazyError::Registry(e)
    }
}
impl From<WireError> for LazyError {
    fn from(e: WireError) -> Self {
        LazyError::Wire(e)
    }
}
impl From<hpcc_codec::compress::CodecError> for LazyError {
    fn from(e: hpcc_codec::compress::CodecError) -> Self {
        LazyError::Codec(e)
    }
}
impl From<FsError> for LazyError {
    fn from(e: FsError) -> Self {
        LazyError::Fs(e)
    }
}
impl From<hpcc_vfs::squash::SquashError> for LazyError {
    fn from(e: hpcc_vfs::squash::SquashError) -> Self {
        LazyError::Squash(e)
    }
}

impl std::fmt::Display for LazyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LazyError::Registry(e) => write!(f, "registry: {e}"),
            LazyError::Wire(e) => write!(f, "wire: {e}"),
            LazyError::Codec(e) => write!(f, "codec: {e}"),
            LazyError::Fs(e) => write!(f, "fs: {e}"),
            LazyError::Squash(e) => write!(f, "squash: {e}"),
            LazyError::NotFound(p) => write!(f, "{p}: not in lazy image"),
        }
    }
}

impl std::error::Error for LazyError {}

/// Publish a filesystem tree as a lazy image: one compressed chunk blob
/// per file plus the TOC blob. Returns the TOC digest (the image
/// reference) and the TOC itself.
pub fn publish(
    registry: &Registry,
    fs: &MemFs,
    root: &VPath,
) -> Result<(Digest, LazyToc), LazyError> {
    let mut toc = LazyToc::default();
    for p in fs.walk(root)? {
        let st = fs.lstat(&p)?;
        if st.kind != FileType::File {
            continue;
        }
        let data = fs.read(&p)?;
        let chunk = compress::compress(Codec::Lz, &data);
        let digest = sha256(&chunk);
        if !registry.has_blob(&digest) {
            registry.push_blob(MediaType::Layer, digest, chunk.clone())?;
        }
        let rel = p
            .rebase(root, &VPath::root())
            .expect("walked path under root")
            .to_string()
            .trim_start_matches('/')
            .to_string();
        toc.entries.insert(
            rel,
            TocEntry {
                chunk: digest,
                stored_len: chunk.len() as u64,
                orig_len: data.len() as u64,
            },
        );
    }
    let toc_bytes = toc.to_bytes();
    let toc_digest = sha256(&toc_bytes);
    registry.push_blob(MediaType::UserDefined, toc_digest, toc_bytes)?;
    Ok((toc_digest, toc))
}

/// Statistics of a lazy mount.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyStats {
    pub misses: u64,
    pub hits: u64,
    /// Bytes fetched from the registry (compressed).
    pub bytes_fetched: u64,
}

/// A lazily-backed mount: TOC local, chunks fetched on demand.
pub struct LazyMount<'a> {
    registry: &'a Registry,
    toc: LazyToc,
    cache: Mutex<HashMap<Digest, Vec<u8>>>,
    stats: Mutex<LazyStats>,
    /// Extra cost per chunk miss beyond the registry's own timing
    /// (FUSE-style interposition, like SquashFUSE).
    per_miss_overhead: SimSpan,
    per_hit_overhead: SimSpan,
}

impl<'a> LazyMount<'a> {
    /// Mount by TOC digest: pulls only the TOC eagerly.
    pub fn mount(
        registry: &'a Registry,
        toc_digest: &Digest,
        clock: &SimClock,
    ) -> Result<LazyMount<'a>, LazyError> {
        let (toc_bytes, done) = registry.pull_blob(toc_digest, clock.now())?;
        clock.advance_to(done);
        let toc = LazyToc::from_bytes(&toc_bytes)?;
        Ok(LazyMount {
            registry,
            toc,
            cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(LazyStats::default()),
            per_miss_overhead: SimSpan::micros(80),
            per_hit_overhead: SimSpan::micros(25),
        })
    }

    pub fn toc(&self) -> &LazyToc {
        &self.toc
    }

    pub fn stats(&self) -> LazyStats {
        *self.stats.lock()
    }

    /// Read one file, fetching its chunk from the registry on first
    /// access and caching it node-locally.
    pub fn read_file(&self, path: &str, clock: &SimClock) -> Result<Vec<u8>, LazyError> {
        let entry = self
            .toc
            .entries
            .get(path)
            .ok_or_else(|| LazyError::NotFound(path.to_string()))?;
        let cached = self.cache.lock().get(&entry.chunk).cloned();
        let chunk = match cached {
            Some(c) => {
                clock.advance(self.per_hit_overhead);
                self.stats.lock().hits += 1;
                c
            }
            None => {
                clock.advance(self.per_miss_overhead);
                let (data, done) = self.registry.pull_blob(&entry.chunk, clock.now())?;
                clock.advance_to(done);
                let mut st = self.stats.lock();
                st.misses += 1;
                st.bytes_fetched += data.len() as u64;
                drop(st);
                let v = data.as_ref().clone();
                self.cache.lock().insert(entry.chunk, v.clone());
                v
            }
        };
        // Decompression CPU (~0.25 ns/B like the FUSE squash path).
        clock.advance(SimSpan::from_secs_f64(entry.orig_len as f64 * 0.25e-9));
        Ok(compress::decompress(&chunk)?)
    }

    /// Prefetch everything (degenerates to an eager pull).
    pub fn prefetch_all(&self, clock: &SimClock) -> Result<(), LazyError> {
        let paths: Vec<String> = self.toc.entries.keys().cloned().collect();
        for p in paths {
            self.read_file(&p, clock)?;
        }
        Ok(())
    }
}

/// The eager comparison: pull the whole tree as one squash image, then
/// serve reads locally. Returns (time until image ready, squash image).
pub fn eager_pull(
    registry: &Registry,
    squash_digest: &Digest,
    clock: &SimClock,
) -> Result<hpcc_vfs::squash::SquashImage, LazyError> {
    let (bytes, done) = registry.pull_blob(squash_digest, clock.now())?;
    clock.advance_to(done);
    Ok(hpcc_vfs::squash::SquashImage::from_bytes(bytes)?)
}

// --------------------------------------------------------------------
// Seekable lazy pulls: Engine::pull_lazy + LazyContainer
// --------------------------------------------------------------------

/// Publish a filesystem tree as a *seekable* lazy image: content-addressed
/// compressed chunk-range blobs plus the manifest-first [`SeekableIndex`]
/// blob. Returns the index digest (the image reference a lazy pull starts
/// from) and the index itself.
pub fn publish_seekable(
    registry: &Registry,
    fs: &MemFs,
    root: &VPath,
    chunk_size: u64,
) -> Result<(Digest, SeekableIndex), LazyError> {
    let (index, chunks) = SeekableIndex::build(fs, root, Codec::Lz, chunk_size)?;
    for (digest, data) in &chunks {
        if !registry.has_blob(digest) {
            registry.push_blob(MediaType::Layer, *digest, data.as_ref().clone())?;
        }
    }
    let bytes = index.to_bytes();
    let digest = sha256(&bytes);
    if !registry.has_blob(&digest) {
        registry.push_blob(MediaType::UserDefined, digest, bytes)?;
    }
    Ok((digest, index))
}

/// Statistics of one lazy container's page-in activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyPullStats {
    /// Chunk ranges fetched from a pull source (first touch, not resident).
    pub chunk_misses: u64,
    /// Chunk ranges served from the shared blob store / node-local cache.
    pub chunk_hits: u64,
    /// Compressed bytes moved from pull sources.
    pub bytes_fetched: u64,
    /// File reads served through [`LazyContainer::read_file`].
    pub files_touched: u64,
    /// Chunks fetched by the readahead heuristic (piggybacked on a
    /// demand fault's round trip — no extra FUSE op charged).
    pub chunks_prefetched: u64,
}

/// Consecutive sequential faults in one file before readahead engages.
pub const READAHEAD_MIN_RUN: u32 = 2;
/// How many chunks past the demanded range readahead fetches.
pub const READAHEAD_CHUNKS: usize = 4;

/// Per-file sequential-access detector for readahead.
#[derive(Debug, Clone, Copy, Default)]
struct ReadaheadState {
    /// The chunk index the next sequential access would start at.
    next_chunk: usize,
    /// Length of the current run of sequential accesses.
    run: u32,
}

/// Fetch one blob through the engine's degradation chain: the primary
/// registry retried per the engine's [`RetryPolicy`](hpcc_sim::RetryPolicy),
/// then tier → proxy → mirror, each fallback recorded as a degrade
/// decision. Mirrors [`Engine::pull_resilient`]'s semantics at blob
/// granularity: a *fatal* primary error propagates immediately, fallback
/// fatals only move the chain along.
fn fetch_blob_resilient(
    engine: &Engine,
    sources: &PullSources<'_>,
    digest: &Digest,
    clock: &SimClock,
) -> Result<(Arc<Vec<u8>>, &'static str), EngineError> {
    let faults = engine.fault_injector();
    let crash = engine.crash_injector();
    let res = engine.pull_resilience();
    let policy = engine.retry_policy();

    let mut backends: Vec<(&'static str, &'static str, &dyn PullBackend)> =
        vec![("primary", "engine.lazy.fetch", sources.primary)];
    if let Some(tier) = sources.tier {
        backends.push(("tier", "engine.lazy.fetch.tier", tier));
    }
    if let Some(proxy) = sources.proxy {
        backends.push(("proxy", "engine.lazy.fetch.proxy", proxy));
    }
    if let Some(mirror) = sources.mirror {
        backends.push(("mirror", "engine.lazy.fetch.mirror", mirror));
    }

    let mut from = "primary";
    let mut last: Option<EngineError> = None;
    for (i, (label, op, backend)) in backends.into_iter().enumerate() {
        // The breakers are shared with the whole-image pull chain —
        // endpoint health learned there short-circuits chunk faults
        // here, and vice versa.
        if let Some(r) = &res {
            if !r
                .allow(label, &faults, &crash, clock.now())
                .map_err(EngineError::Crash)?
            {
                if last.is_none() {
                    last = Some(EngineError::Registry(RegistryError::Unavailable {
                        status: 503,
                    }));
                }
                continue;
            }
        }
        if i > 0 {
            faults.note_degrade("engine.lazy.fetch", from, label, clock.now());
            from = label;
        }
        match policy.run_timed(
            &faults,
            op,
            Stage::Pull,
            clock.now(),
            EngineError::is_transient,
            |_, at| backend.blob(digest, at),
        ) {
            Ok(ok) => {
                if let Some(r) = &res {
                    r.observe(label, &faults, ok.done, true);
                }
                clock.advance_to(ok.done);
                return Ok((ok.value, label));
            }
            Err(err) if i == 0 && !err.gave_up => return Err(Engine::unwrap_retry(op, err)),
            Err(err) => {
                clock.advance_to(err.at);
                if err.gave_up {
                    if let Some(r) = &res {
                        r.observe(label, &faults, err.at, false);
                    }
                }
                last = Some(Engine::unwrap_retry(op, err));
            }
        }
    }
    Err(last.expect("at least the primary backend was tried"))
}

impl Engine {
    /// Lazy pull: fetch *only* the [`SeekableIndex`] blob (consulting the
    /// shared blob store first, then the full degradation chain) and
    /// return a launched [`LazyContainer`] — the container is runnable the
    /// moment this returns, with every file range still remote. File
    /// ranges fault in on first touch through the FUSE cost model.
    pub fn pull_lazy<'a>(
        &'a self,
        sources: PullSources<'a>,
        index_digest: &Digest,
        clock: &SimClock,
    ) -> Result<LazyContainer<'a>, EngineError> {
        let tracer = self.tracer();
        let span = tracer.begin(sym!("engine.pull_lazy"), Stage::Pull, clock.now());
        tracer.attr(span, sym!("index"), index_digest.short());
        let result = self.pull_lazy_inner(sources, index_digest, clock);
        match &result {
            Ok(c) => {
                tracer.attr(span, sym!("source"), c.index_source);
                tracer.attr(span, sym!("entries"), c.index.entry_count() as u64);
            }
            Err(e) => tracer.attr(span, sym!("error"), e),
        }
        if let Err(EngineError::Crash(c)) = &result {
            clock.advance_to(c.at);
            Self::record_crash_span(&tracer, c, clock.now());
        }
        tracer.end(span, clock.now());
        result
    }

    fn pull_lazy_inner<'a>(
        &'a self,
        sources: PullSources<'a>,
        index_digest: &Digest,
        clock: &SimClock,
    ) -> Result<LazyContainer<'a>, EngineError> {
        let store = self.blob_store();
        let journal = self.journaled_store();
        let crash = self.crash_injector();
        let faults = self.fault_injector();

        let (index_bytes, index_source) = match store.as_ref().and_then(|s| s.get(index_digest)) {
            Some(bytes) => {
                clock.advance(
                    BLOB_STORE_READ_LATENCY
                        + SimSpan::from_secs_f64(bytes.len() as f64 / BLOB_STORE_READ_BPS),
                );
                (bytes, "store")
            }
            None => {
                crash.crash_point("lazy.index.fetch.pre", clock.now())?;
                let (bytes, label) = fetch_blob_resilient(self, &sources, index_digest, clock)?;
                faults
                    .metrics()
                    .add("engine.lazy.fetched_bytes", bytes.len() as u64);
                let actual = sha256(&bytes);
                if actual != *index_digest {
                    return Err(EngineError::Cas(CasError::DigestMismatch {
                        claimed: *index_digest,
                        actual,
                    }));
                }
                // Deposit the index under its own journalled intent so a
                // crash between fetch and durability leaves no orphan.
                match &journal {
                    Some(j) => {
                        let intent =
                            j.begin("engine.lazy.index", &index_digest.short(), clock.now())?;
                        j.stage(intent, *index_digest, Arc::clone(&bytes), clock.now())?;
                        j.commit(intent, clock.now())?;
                    }
                    None => {
                        if let Some(s) = &store {
                            s.insert(*index_digest, Arc::clone(&bytes));
                            s.release(index_digest);
                        }
                    }
                }
                (bytes, label)
            }
        };
        let index = SeekableIndex::from_bytes(&index_bytes)?;
        // Mount setup (index parse + FUSE session) — one interposed op.
        let profile = DriverProfile::fuse_squash();
        clock.advance(profile.per_op);
        Ok(LazyContainer {
            engine: self,
            sources,
            index,
            launched_at: clock.now(),
            index_source,
            profile,
            store,
            cache: Mutex::new(HashMap::new()),
            mapped: Mutex::new(HashSet::new()),
            readahead: Mutex::new(HashMap::new()),
            stats: Mutex::new(LazyPullStats::default()),
        })
    }
}

/// A launched lazily-pulled container: the [`SeekableIndex`] is local, all
/// file ranges start remote. Every read goes through the SquashFUSE cost
/// model; missing chunk ranges are fetched through the engine's
/// degradation chain and deposited into the shared blob store (journalled
/// when a [`JournaledStore`](hpcc_storage::journal::JournaledStore) is
/// attached), so sibling containers on the node hit them locally and a
/// crash mid-page-in is recovered by the same fsck as a crashed pull.
pub struct LazyContainer<'a> {
    engine: &'a Engine,
    sources: PullSources<'a>,
    index: SeekableIndex,
    /// Instant the container became launchable: index resident and
    /// mounted — everything after this is first-touch faulting.
    launched_at: SimTime,
    /// Where the index blob came from ("store", "primary", "tier", ...).
    index_source: &'static str,
    profile: DriverProfile,
    store: Option<Arc<BlobStore>>,
    /// Node-local chunk cache when no shared blob store is attached.
    cache: Mutex<HashMap<Digest, Arc<Vec<u8>>>>,
    /// Chunks this container has mapped (its page-cache analogue):
    /// re-reads of a mapped chunk pay only the driver read cost.
    mapped: Mutex<HashSet<Digest>>,
    /// Per-file sequential-fault detectors driving readahead.
    readahead: Mutex<HashMap<String, ReadaheadState>>,
    stats: Mutex<LazyPullStats>,
}

impl LazyContainer<'_> {
    /// The resident index.
    pub fn index(&self) -> &SeekableIndex {
        &self.index
    }

    /// When the container became launchable (index resident + mounted).
    pub fn launched_at(&self) -> SimTime {
        self.launched_at
    }

    /// Which source served the index blob.
    pub fn index_source(&self) -> &'static str {
        self.index_source
    }

    /// Page-in statistics so far.
    pub fn stats(&self) -> LazyPullStats {
        *self.stats.lock()
    }

    /// Distinct chunks this container has mapped.
    pub fn resident_chunks(&self) -> usize {
        self.mapped.lock().len()
    }

    fn chunk_resident(&self, d: &Digest) -> bool {
        self.store.as_ref().is_some_and(|s| s.contains(d)) || self.cache.lock().contains_key(d)
    }

    fn chunk_bytes(&self, d: &Digest) -> Option<Arc<Vec<u8>>> {
        if let Some(s) = &self.store {
            if let Some(b) = s.get(d) {
                return Some(b);
            }
        }
        self.cache.lock().get(d).cloned()
    }

    /// Metadata touch (stat/open without reading): index-local, charges
    /// one FUSE op, faults nothing in. Returns the file's original length
    /// (0 for directories/symlink targets that aren't files... symlinks
    /// resolve to their target entry).
    pub fn touch(&self, path: &str, clock: &SimClock) -> Result<u64, EngineError> {
        clock.advance(self.profile.per_op);
        let real = self.index.resolve(path)?;
        match self.index.entry(&real) {
            Some(SeekableEntry::File { orig_len, .. }) => Ok(*orig_len),
            Some(_) => Ok(0),
            None => Err(EngineError::Squash(SquashError::NotFound(path.to_string()))),
        }
    }

    /// Read one file: fault its chunk ranges in on first touch, then
    /// serve the read through the FUSE cost model. Byte-for-byte what an
    /// eagerly pulled image would return.
    pub fn read_file(&self, path: &str, clock: &SimClock) -> Result<Vec<u8>, EngineError> {
        let (orig_len, chunks) = self.index.file_chunks(path)?;
        self.fault_in(path, chunks, clock)?;
        let stored: u64 = chunks.iter().map(|c| c.stored_len).sum();
        clock.advance(self.profile.read_cost(stored, orig_len));
        self.stats.lock().files_touched += 1;
        Ok(self.index.assemble_file(path, |d| self.chunk_bytes(d))?)
    }

    /// Read `len` bytes of one file starting at `offset` — the windowed
    /// read a FUSE `read(2)` maps to. Only the chunk ranges covering the
    /// window fault in; the readahead heuristic watches for sequential
    /// windows per file and, after [`READAHEAD_MIN_RUN`] consecutive
    /// sequential accesses, extends each fault with the next
    /// [`READAHEAD_CHUNKS`] ranges. Prefetched ranges piggyback on the
    /// demand fault's service (no extra per-op round trip), so sequential
    /// scans pay fewer FUSE round trips while random access is unchanged.
    pub fn read_range(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        clock: &SimClock,
    ) -> Result<Vec<u8>, EngineError> {
        let (orig_len, chunks) = self.index.file_chunks(path)?;
        let end = (offset.saturating_add(len)).min(orig_len);
        if offset >= end {
            return Ok(Vec::new());
        }
        let chunk_size = self.index.chunk_size.max(1);
        let first = (offset / chunk_size) as usize;
        let last = ((end - 1) / chunk_size) as usize;
        let demand = &chunks[first..=last.min(chunks.len() - 1)];

        // Sequential-run detection + readahead window, per file.
        let prefetch: Vec<ChunkRef> = {
            let mut ra = self.readahead.lock();
            let st = ra.entry(path.to_string()).or_default();
            if first == st.next_chunk {
                st.run += 1;
            } else {
                st.run = 1;
            }
            st.next_chunk = last + 1;
            if st.run >= READAHEAD_MIN_RUN {
                chunks
                    .iter()
                    .skip(last + 1)
                    .take(READAHEAD_CHUNKS)
                    .copied()
                    .collect()
            } else {
                Vec::new()
            }
        };

        self.fault_in_with_prefetch(path, demand, &prefetch, clock)?;
        let stored: u64 = demand.iter().map(|c| c.stored_len).sum();
        clock.advance(self.profile.read_cost(stored, end - offset));
        self.stats.lock().files_touched += 1;

        // Assemble the window from the demanded chunks.
        let mut buf = Vec::with_capacity(((last - first + 1) as u64 * chunk_size) as usize);
        for c in demand {
            let bytes =
                self.chunk_bytes(&c.digest)
                    .ok_or(EngineError::Squash(SquashError::Codec(
                        hpcc_codec::compress::CodecError::Corrupt("chunk not resident"),
                    )))?;
            buf.extend_from_slice(&compress::decompress(&bytes).map_err(SquashError::Codec)?);
        }
        let lo = (offset - first as u64 * chunk_size) as usize;
        let hi = lo + (end - offset) as usize;
        Ok(buf[lo..hi.min(buf.len())].to_vec())
    }

    /// Make every chunk of one file resident. Shared-store hits charge
    /// blob-store read costs; misses charge a FUSE round trip plus the
    /// resilient fetch, and land in the store under one journalled intent
    /// (begin → stage-per-chunk → commit) so a crash mid-page-in is
    /// recovered by the same fsck as a crashed pull — no orphaned chunks.
    fn fault_in(
        &self,
        key: &str,
        chunks: &[ChunkRef],
        clock: &SimClock,
    ) -> Result<(), EngineError> {
        self.fault_in_with_prefetch(key, chunks, &[], clock)
    }

    /// [`fault_in`](Self::fault_in) plus an optional readahead set:
    /// `prefetch` chunks ride the same journalled intent and fetch path
    /// but skip the per-chunk FUSE round-trip charge (they piggyback the
    /// demand fault's service) and count as `chunks_prefetched`.
    fn fault_in_with_prefetch(
        &self,
        key: &str,
        demand: &[ChunkRef],
        prefetch: &[ChunkRef],
        clock: &SimClock,
    ) -> Result<(), EngineError> {
        // First-touch set: distinct chunks this container hasn't mapped.
        // Demand chunks win over prefetch duplicates.
        let mut todo: Vec<(ChunkRef, bool)> = Vec::new();
        {
            let mapped = self.mapped.lock();
            let mut seen = HashSet::new();
            for (c, is_prefetch) in demand
                .iter()
                .map(|c| (c, false))
                .chain(prefetch.iter().map(|c| (c, true)))
            {
                if !mapped.contains(&c.digest) && seen.insert(c.digest) {
                    todo.push((*c, is_prefetch));
                }
            }
        }
        if todo.is_empty() {
            return Ok(());
        }

        // Already resident on the node: map without fetching. Prefetch
        // candidates that are already resident are simply dropped — no
        // cost, no stat.
        let mut missing: Vec<(ChunkRef, bool)> = Vec::new();
        for (c, is_prefetch) in todo {
            if self.chunk_resident(&c.digest) {
                if !is_prefetch {
                    clock.advance(
                        BLOB_STORE_READ_LATENCY
                            + SimSpan::from_secs_f64(c.stored_len as f64 / BLOB_STORE_READ_BPS),
                    );
                    self.stats.lock().chunk_hits += 1;
                }
                self.mapped.lock().insert(c.digest);
            } else {
                missing.push((c, is_prefetch));
            }
        }
        if missing.is_empty() {
            return Ok(());
        }

        let crash = self.engine.crash_injector();
        let faults = self.engine.fault_injector();
        let journal = self.engine.journaled_store();
        let intent = match &journal {
            Some(j) => Some(j.begin("engine.lazy.fault", key, clock.now())?),
            None => None,
        };
        let fetched = (|| -> Result<(), EngineError> {
            for (c, is_prefetch) in &missing {
                // FUSE round trip to notice and service the fault;
                // readahead rides the demand fault's round trip.
                if !is_prefetch {
                    clock.advance(self.profile.per_op);
                }
                crash.crash_point("lazy.fault.fetch.pre", clock.now())?;
                let (bytes, _source) =
                    fetch_blob_resilient(self.engine, &self.sources, &c.digest, clock)?;
                faults
                    .metrics()
                    .add("engine.lazy.fetched_bytes", bytes.len() as u64);
                let actual = sha256(&bytes);
                if actual != c.digest {
                    return Err(EngineError::Cas(CasError::DigestMismatch {
                        claimed: c.digest,
                        actual,
                    }));
                }
                match (&journal, intent) {
                    (Some(j), Some(intent)) => {
                        j.stage(intent, c.digest, Arc::clone(&bytes), clock.now())?;
                    }
                    _ => match &self.store {
                        Some(s) => {
                            s.insert(c.digest, Arc::clone(&bytes));
                            s.release(&c.digest);
                        }
                        None => {
                            self.cache.lock().insert(c.digest, Arc::clone(&bytes));
                        }
                    },
                }
                {
                    let mut st = self.stats.lock();
                    if *is_prefetch {
                        st.chunks_prefetched += 1;
                    } else {
                        st.chunk_misses += 1;
                    }
                    st.bytes_fetched += bytes.len() as u64;
                }
                self.mapped.lock().insert(c.digest);
            }
            Ok(())
        })();
        match fetched {
            Ok(()) => {
                if let (Some(j), Some(intent)) = (&journal, intent) {
                    j.commit(intent, clock.now())?;
                }
                Ok(())
            }
            Err(e) => {
                // A crash leaves the intent open for recovery; any other
                // failure rolls it back so no orphaned chunks survive.
                if !matches!(e, EngineError::Crash(_)) {
                    if let (Some(j), Some(intent)) = (&journal, intent) {
                        j.abort(intent, clock.now())?;
                    }
                }
                Err(e)
            }
        }
    }

    /// Fault in every chunk of the image (background prefetch). Charges
    /// only the fault-in path, no read costs.
    pub fn prefetch_all(&self, clock: &SimClock) -> Result<(), EngineError> {
        let paths: Vec<String> = self.index.file_paths().map(str::to_string).collect();
        for p in &paths {
            let (_, chunks) = self.index.file_chunks(p)?;
            self.fault_in(p, chunks, clock)?;
        }
        Ok(())
    }

    /// Touch everything and unpack: the fully-materialized endpoint a
    /// lazy container converges to. Byte-identical to unpacking an
    /// eagerly pulled squash image of the same tree.
    pub fn materialize(&self, clock: &SimClock) -> Result<MemFs, EngineError> {
        self.prefetch_all(clock)?;
        for p in self.index.file_paths() {
            let (orig, chunks) = self.index.file_chunks(p)?;
            let stored: u64 = chunks.iter().map(|c| c.stored_len).sum();
            clock.advance(self.profile.read_cost(stored, orig));
        }
        Ok(self.index.materialize(|d| self.chunk_bytes(d))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_registry::registry::RegistryCaps;
    use hpcc_vfs::squash::SquashImage;

    fn tree(files: usize, size: usize) -> MemFs {
        let mut fs = MemFs::new();
        for i in 0..files {
            fs.write_p(
                &VPath::parse(&format!("/app/pkg{}/f{i}.py", i % 7)),
                vec![(i % 251) as u8; size],
            )
            .unwrap();
        }
        fs
    }

    fn registry() -> Registry {
        Registry::new("lazy-test", RegistryCaps::open())
    }

    #[test]
    fn publish_and_lazy_read_roundtrip() {
        let reg = registry();
        let fs = tree(20, 2048);
        let (toc_digest, toc) = publish(&reg, &fs, &VPath::root()).unwrap();
        assert_eq!(toc.entries.len(), 20);
        let clock = SimClock::new();
        let mount = LazyMount::mount(&reg, &toc_digest, &clock).unwrap();
        let data = mount.read_file("app/pkg0/f0.py", &clock).unwrap();
        assert_eq!(data, vec![0u8; 2048]);
    }

    #[test]
    fn toc_roundtrip() {
        let reg = registry();
        let fs = tree(5, 128);
        let (_, toc) = publish(&reg, &fs, &VPath::root()).unwrap();
        let parsed = LazyToc::from_bytes(&toc.to_bytes()).unwrap();
        assert_eq!(parsed, toc);
        assert_eq!(parsed.digest(), toc.digest());
        assert_eq!(parsed.total_orig_bytes(), 5 * 128);
    }

    #[test]
    fn cache_hits_skip_the_registry() {
        let reg = registry();
        let fs = tree(4, 1024);
        let (toc_digest, _) = publish(&reg, &fs, &VPath::root()).unwrap();
        let clock = SimClock::new();
        let mount = LazyMount::mount(&reg, &toc_digest, &clock).unwrap();
        mount.read_file("app/pkg0/f0.py", &clock).unwrap();
        let pulls_before = reg.stats().blob_pulls;
        mount.read_file("app/pkg0/f0.py", &clock).unwrap();
        assert_eq!(reg.stats().blob_pulls, pulls_before, "second read is local");
        let s = mount.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn sparse_access_fetches_only_whats_read() {
        let reg = registry();
        let fs = tree(100, 4096);
        let (toc_digest, toc) = publish(&reg, &fs, &VPath::root()).unwrap();
        let clock = SimClock::new();
        let mount = LazyMount::mount(&reg, &toc_digest, &clock).unwrap();
        // Touch 5 of 100 files.
        for i in 0..5 {
            mount
                .read_file(&format!("app/pkg{}/f{i}.py", i % 7), &clock)
                .unwrap();
        }
        let s = mount.stats();
        assert_eq!(s.misses, 5);
        let total_stored: u64 = toc.entries.values().map(|e| e.stored_len).sum();
        assert!(
            s.bytes_fetched < total_stored / 10,
            "fetched {} of {} stored bytes",
            s.bytes_fetched,
            total_stored
        );
    }

    /// A tree of barely-compressible files (eager pulls must move real
    /// bytes for the first-read comparison to be meaningful).
    fn incompressible_tree(files: usize, size: usize) -> MemFs {
        let mut fs = MemFs::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in 0..files {
            let data: Vec<u8> = (0..size)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect();
            fs.write_p(&VPath::parse(&format!("/app/pkg{}/f{i}.bin", i % 7)), data)
                .unwrap();
        }
        fs
    }

    #[test]
    fn lazy_first_read_beats_eager_full_pull() {
        // The §7 trade-off: time to the first useful byte.
        let reg = registry();
        let fs = incompressible_tree(120, 65536);
        let (toc_digest, _) = publish(&reg, &fs, &VPath::root()).unwrap();
        let squash = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        let sq_desc = reg
            .push_blob(
                MediaType::SquashImage,
                sha256(squash.as_bytes()),
                squash.as_bytes().to_vec(),
            )
            .unwrap();

        // Lazy: mount + one file.
        let lazy_clock = SimClock::new();
        let mount = LazyMount::mount(&reg, &toc_digest, &lazy_clock).unwrap();
        mount.read_file("app/pkg0/f0.bin", &lazy_clock).unwrap();
        // Eager: full image pull + one local read.
        let eager_clock = SimClock::new();
        let image = eager_pull(&reg, &sq_desc.digest, &eager_clock).unwrap();
        image.read_file("app/pkg0/f0.bin").unwrap();

        assert!(
            lazy_clock.now() < eager_clock.now(),
            "lazy {:?} should beat eager {:?} to first read",
            lazy_clock.now(),
            eager_clock.now()
        );
    }

    #[test]
    fn full_scan_favors_eager() {
        // Reading everything: per-miss round trips lose to one bulk pull.
        let reg = registry();
        let fs = tree(300, 2048);
        let (toc_digest, _) = publish(&reg, &fs, &VPath::root()).unwrap();
        let squash = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        let sq_desc = reg
            .push_blob(
                MediaType::SquashImage,
                sha256(squash.as_bytes()),
                squash.as_bytes().to_vec(),
            )
            .unwrap();

        let lazy_clock = SimClock::new();
        let mount = LazyMount::mount(&reg, &toc_digest, &lazy_clock).unwrap();
        mount.prefetch_all(&lazy_clock).unwrap();

        let eager_clock = SimClock::new();
        let image = eager_pull(&reg, &sq_desc.digest, &eager_clock).unwrap();
        for p in image.paths().map(str::to_string).collect::<Vec<_>>() {
            let _ = image.read_file(&p);
        }
        // Charge the eager local reads through the kernel driver profile.
        let profile = hpcc_vfs::driver::DriverProfile::kernel_squash();
        for _ in 0..300 {
            eager_clock.advance(profile.read_cost(2048, 2048));
        }

        assert!(
            lazy_clock.now() > eager_clock.now(),
            "full scan: lazy {:?} should lose to eager {:?}",
            lazy_clock.now(),
            eager_clock.now()
        );
    }

    #[test]
    fn missing_path_errors() {
        let reg = registry();
        let fs = tree(2, 64);
        let (toc_digest, _) = publish(&reg, &fs, &VPath::root()).unwrap();
        let clock = SimClock::new();
        let mount = LazyMount::mount(&reg, &toc_digest, &clock).unwrap();
        assert!(matches!(
            mount.read_file("nope", &clock),
            Err(LazyError::NotFound(_))
        ));
    }

    // ---------------------------------------------- seekable lazy pulls

    use crate::engines;
    use hpcc_storage::journal::JournaledStore;
    use hpcc_vfs::seekable::DEFAULT_CHUNK_SIZE;

    fn engine_with_store() -> (Engine, Arc<BlobStore>, Arc<JournaledStore>) {
        let engine = engines::sarus();
        let store = BlobStore::new(8, 1 << 30);
        let journal = JournaledStore::new(Arc::clone(&store));
        engine.set_journaled_store(Arc::clone(&journal));
        (engine, store, journal)
    }

    #[test]
    fn pull_lazy_launches_before_the_data_moves() {
        let reg = registry();
        let fs = incompressible_tree(120, 65536);
        let (index_digest, index) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();

        let (engine, _store, journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        let launched = c.launched_at();
        let data = c.read_file("app/pkg0/f0.bin", &clock).unwrap();
        assert_eq!(data.len(), 65536);

        // Eager comparison: the full squash image must cross the wire
        // before the first byte is readable.
        let squash = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        let sq_digest = sha256(squash.as_bytes());
        reg.push_blob(
            MediaType::SquashImage,
            sq_digest,
            squash.as_bytes().to_vec(),
        )
        .unwrap();
        let eager_clock = SimClock::new();
        eager_pull(&reg, &sq_digest, &eager_clock).unwrap();

        assert!(
            launched < eager_clock.now(),
            "lazy launch {launched:?} should precede eager pull completion {:?}",
            eager_clock.now()
        );
        let s = c.stats();
        assert!(s.bytes_fetched < index.total_stored_bytes() / 10);
        assert_eq!(s.files_touched, 1);
        // Page-in intents all committed; nothing left open or staged.
        assert!(journal.open_intents().is_empty());
        assert!(journal.orphaned_staged().is_empty());
    }

    #[test]
    fn sibling_containers_hit_the_shared_store() {
        let reg = registry();
        let fs = tree(30, 4096);
        let (index_digest, _) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();

        let (engine, store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let a = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        a.read_file("app/pkg0/f0.py", &clock).unwrap();
        assert_eq!(a.stats().chunk_misses, 1);

        let b = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        assert_eq!(b.index_source(), "store", "index dedups across siblings");
        b.read_file("app/pkg0/f0.py", &clock).unwrap();
        let sb = b.stats();
        assert_eq!(sb.chunk_misses, 0, "sibling pages in from the store");
        assert_eq!(sb.chunk_hits, 1);
        assert!(store.stats().hits > 0);
    }

    #[test]
    fn rereads_pay_only_the_driver() {
        let reg = registry();
        let fs = tree(4, 2048);
        let (index_digest, _) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        c.read_file("app/pkg0/f0.py", &clock).unwrap();
        let pulls = reg.stats().blob_pulls;
        let s1 = c.stats();
        c.read_file("app/pkg0/f0.py", &clock).unwrap();
        assert_eq!(reg.stats().blob_pulls, pulls, "reread is registry-free");
        let s2 = c.stats();
        assert_eq!(s2.chunk_misses, s1.chunk_misses);
        assert_eq!(s2.chunk_hits, s1.chunk_hits, "mapped chunks skip the store");
    }

    #[test]
    fn materialize_matches_the_source_tree() {
        let reg = registry();
        let fs = sample_tree_with_links();
        let (index_digest, _) = publish_seekable(&reg, &fs, &VPath::root(), 1024).unwrap();
        let (engine, _store, journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        let out = c.materialize(&clock).unwrap();
        assert_eq!(
            out.tree_digest(&VPath::root()).unwrap(),
            fs.tree_digest(&VPath::root()).unwrap(),
            "fully-touched lazy image is byte-identical to the source"
        );
        assert!(journal.open_intents().is_empty());
        assert!(journal.orphaned_staged().is_empty());
        assert!(c.resident_chunks() > 0);
    }

    fn sample_tree_with_links() -> MemFs {
        let mut fs = tree(12, 3000);
        fs.symlink(&VPath::parse("/app/latest"), "pkg0/f0.py")
            .unwrap();
        fs.write_p(&VPath::parse("/app/empty"), Vec::new()).unwrap();
        fs
    }

    #[test]
    fn touch_is_index_local() {
        let reg = registry();
        let fs = sample_tree_with_links();
        let (index_digest, _) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        let pulls = reg.stats().blob_pulls;
        assert_eq!(c.touch("app/pkg0/f0.py", &clock).unwrap(), 3000);
        assert_eq!(c.touch("app/latest", &clock).unwrap(), 3000, "via symlink");
        assert_eq!(reg.stats().blob_pulls, pulls, "touch faults nothing in");
        assert!(matches!(
            c.touch("nope", &clock),
            Err(EngineError::Squash(SquashError::NotFound(_)))
        ));
    }

    #[test]
    fn identical_files_share_chunks() {
        let reg = registry();
        let mut fs = MemFs::new();
        for i in 0..10 {
            fs.write_p(&VPath::parse(&format!("/f{i}")), vec![7u8; 4096])
                .unwrap();
        }
        let (_, toc) = publish(&reg, &fs, &VPath::root()).unwrap();
        let chunks: std::collections::HashSet<Digest> =
            toc.entries.values().map(|e| e.chunk).collect();
        assert_eq!(chunks.len(), 1, "identical contents dedup to one chunk");
    }

    // ---------------------------------------------- readahead prefetch

    /// One big incompressible file chunked at 4 KiB, published seekable.
    fn big_file_container(chunks: usize) -> (Registry, Digest, Vec<u8>) {
        let reg = registry();
        let mut fs = MemFs::new();
        let mut x: u64 = 0x243F6A8885A308D3;
        let data: Vec<u8> = (0..chunks * 4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        fs.write_p(&VPath::parse("/app/big.bin"), data.clone())
            .unwrap();
        let (index_digest, _) = publish_seekable(&reg, &fs, &VPath::root(), 4096).unwrap();
        (reg, index_digest, data)
    }

    #[test]
    fn sequential_scan_prefetches_and_pays_fewer_round_trips() {
        let (reg, index_digest, data) = big_file_container(64);
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();

        // A forward scan in chunk-sized windows.
        let mut assembled = Vec::new();
        for i in 0..64u64 {
            assembled.extend(c.read_range("app/big.bin", i * 4096, 4096, &clock).unwrap());
        }
        assert_eq!(assembled, data, "windowed reads reassemble the file");

        let s = c.stats();
        assert_eq!(
            s.chunk_misses + s.chunks_prefetched + s.chunk_hits,
            64,
            "every chunk becomes resident exactly once"
        );
        assert!(
            s.chunks_prefetched > 0,
            "readahead engaged on a sequential scan"
        );
        assert!(
            s.chunk_misses <= 64 / (READAHEAD_CHUNKS as u64 + 1) + READAHEAD_MIN_RUN as u64,
            "demand round trips collapse to ~1 per readahead window: {} misses",
            s.chunk_misses
        );
    }

    #[test]
    fn random_access_is_unchanged_by_readahead() {
        let (reg, index_digest, _) = big_file_container(64);
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();

        // Scattered, never-sequential windows.
        for i in [3u64, 40, 9, 55, 21, 61, 0, 33] {
            c.read_range("app/big.bin", i * 4096, 4096, &clock).unwrap();
        }
        let s = c.stats();
        assert_eq!(s.chunks_prefetched, 0, "no readahead on random access");
        assert_eq!(s.chunk_misses, 8, "each random window pays its fault");
    }

    #[test]
    fn readahead_runs_are_tracked_per_file() {
        let (reg, index_digest, _) = big_file_container(16);
        let reg2fs = {
            let mut fs = MemFs::new();
            fs.write_p(&VPath::parse("/app/big.bin"), vec![0x5A; 16 * 4096])
                .unwrap();
            fs
        };
        // Second file in the same image: interleaved sequential scans of
        // two files must both trigger readahead (state is per-file).
        let _ = reg2fs; // (single-file image is enough: interleave two cursors)
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();

        // Cursor A walks forward from 0, cursor B from chunk 8 — B's
        // jumps reset nothing for A because runs key on the file, but
        // interleaving the same file breaks sequentiality; this pins the
        // conservative behavior (no spurious prefetch).
        for i in 0..4u64 {
            c.read_range("app/big.bin", i * 4096, 4096, &clock).unwrap();
            c.read_range("app/big.bin", (8 + i) * 4096, 4096, &clock)
                .unwrap();
        }
        let s = c.stats();
        assert_eq!(
            s.chunks_prefetched, 0,
            "interleaved cursors on one file look random — no readahead"
        );
    }

    #[test]
    fn read_range_clamps_and_rereads_are_local() {
        let (reg, index_digest, data) = big_file_container(4);
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();

        // Cross-chunk window.
        let w = c.read_range("app/big.bin", 4000, 200, &clock).unwrap();
        assert_eq!(w, &data[4000..4200]);
        // Tail clamp.
        let tail = c
            .read_range("app/big.bin", 4 * 4096 - 10, 100, &clock)
            .unwrap();
        assert_eq!(tail, &data[4 * 4096 - 10..]);
        // Past-EOF is empty, not an error.
        assert!(c
            .read_range("app/big.bin", 1 << 20, 16, &clock)
            .unwrap()
            .is_empty());

        let misses_before = c.stats().chunk_misses;
        c.read_range("app/big.bin", 4000, 200, &clock).unwrap();
        assert_eq!(c.stats().chunk_misses, misses_before, "re-read is local");
    }
}
