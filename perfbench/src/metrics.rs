//! Metric names and units, and the readers that turn the program's own
//! counters and logical spans into per-layer metrics.

use crate::common::{Counters, MIB};
use hpcc_sim::obs::SpanRecord;
use hpcc_sim::MetricsRegistry;
use hpcc_storage::blobstore::BlobStoreStats;

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("logical_p50_ms", "ms"),
    ("logical_p95_ms", "ms"),
    ("logical_makespan_s", "s"),
];

/// Host-clock spans the benchmark records around calls into a layer;
/// each becomes `<name>.host_s`, host seconds per round (or per setup
/// for calls made while setting up).
pub const HOST_SPANS: &[&str] = &[
    "engine.pull",
    "engine.prepare",
    "engine.pull_lazy",
    "engine.lazy.read",
    "engine.publish_seekable",
    "vfs.read",
    "oci.image_build",
    "registry.push",
    "build.fleet",
    "build.sign_and_push",
    "build.verified_pull",
    "registry.tier.pull",
    "storage.p2p.broadcast",
    "adapt.run",
];

/// Per-layer metrics, reported by every workload from traced runs. A
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.pull.host_s", "s"),
    ("engine.prepare.host_s", "s"),
    ("engine.prepare.cache_hit_ratio", "ratio"),
    ("engine.pull_lazy.host_s", "s"),
    ("engine.lazy.read.host_s", "s"),
    ("engine.publish_seekable.host_s", "s"),
    ("engine.pull.fetched_mib", "MiB"),
    ("engine.lazy.fetched_mib", "MiB"),
    ("engine.pull.logical_s", "s"),
    ("engine.convert.logical_s", "s"),
    ("engine.lazy.fetch.logical_s", "s"),
    ("engine.degrade.count", "count"),
    ("sim.breaker.open.count", "count"),
    ("sim.hedge.win_ratio", "ratio"),
    ("sim.retry.giveups", "count"),
    ("vfs.read.host_s", "s"),
    ("vfs.read.mib", "MiB"),
    ("codec.compress_mib_s", "MiB/s"),
    ("codec.decompress_mib_s", "MiB/s"),
    ("codec.ratio", "ratio"),
    ("codec.computed_mib", "MiB"),
    ("crypto.sha256_mib_s", "MiB/s"),
    ("crypto.wots_sign_ms", "ms"),
    ("oci.image_build.host_s", "s"),
    ("registry.push.host_s", "s"),
    ("registry.blob_pulls", "count"),
    ("registry.manifest_pulls", "count"),
    ("registry.pushes", "count"),
    ("build.fleet.host_s", "s"),
    ("build.cache.hit_ratio", "ratio"),
    ("build.sign_and_push.host_s", "s"),
    ("build.verified_pull.host_s", "s"),
    ("build.step.logical_s", "s"),
    ("build.sign.logical_s", "s"),
    ("build.push.logical_s", "s"),
    ("storage.blobstore.hit_ratio", "ratio"),
    ("storage.blobstore.hit_mib", "MiB"),
    ("storage.blobstore.dedup_mib", "MiB"),
    ("storage.blobstore.evictions", "count"),
    ("registry.tier.pull.host_s", "s"),
    ("registry.tier.origin_requests", "count"),
    ("registry.tier.rack_hit_ratio", "ratio"),
    ("registry.tier.origin_mib", "MiB"),
    ("registry.tier.shed", "count"),
    ("registry.tier.node_down_rejects", "count"),
    ("registry.tier.partition_timeouts", "count"),
    ("registry.tier.rate_wait_s", "s"),
    ("storage.p2p.broadcast.host_s", "s"),
    ("storage.p2p.chunks_sent", "count"),
    ("storage.p2p.repairs", "count"),
    ("storage.p2p.outage_rewired", "count"),
    ("adapt.run.host_s", "s"),
    ("adapt.decisions", "count"),
    ("adapt.reprovisions", "count"),
    ("adapt.releases", "count"),
    ("adapt.slo_violations", "count"),
    ("adapt.reprovision.logical_s", "s"),
    ("adapt.return.logical_s", "s"),
    ("wlm.jobs_completed", "count"),
    ("wlm.utilization", "ratio"),
    ("k8s.pods_succeeded", "count"),
    ("k8s.pods_failed", "count"),
    ("k8s.utilization", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("origin_mib_per_op", "MiB"),
    ("utilization", "ratio"),
    ("failed_ratio", "ratio"),
    ("logical_samples", "count"),
];

/// Counter values by name from a metrics registry. The registry has no
/// public listing of its series, so this reads its rendered text.
fn counters(m: &MetricsRegistry) -> Vec<(String, u64)> {
    let text = m.render();
    let mut out = Vec::new();
    let mut in_counters = false;
    for line in text.lines() {
        if !line.starts_with(' ') {
            in_counters = line == "counters:";
            continue;
        }
        if in_counters {
            let mut parts = line.split_whitespace();
            if let (Some(k), Some(v)) = (parts.next(), parts.next()) {
                out.push((
                    k.to_string(),
                    v.parse().expect("counter values are integers"),
                ));
            }
        }
    }
    out
}

fn sum_where(all: &[(String, u64)], keep: impl Fn(&str) -> bool) -> u64 {
    all.iter().filter(|(k, _)| keep(k)).map(|(_, v)| v).sum()
}

/// Degrades, breaker trips, hedge wins and retry give-ups the program
/// recorded to its fault injector.
pub fn resilience_counters(m: &MetricsRegistry, c: &mut Counters) {
    let all = counters(m);
    let launched = sum_where(&all, |k| {
        k.starts_with("hedge.") && k.ends_with(".launched")
    });
    let won = sum_where(&all, |k| k.starts_with("hedge.") && k.ends_with(".win"));
    c.insert(
        "engine.degrade.count",
        sum_where(&all, |k| k.starts_with("degrade.engine.")) as f64,
    );
    c.insert(
        "sim.breaker.open.count",
        sum_where(&all, |k| k.starts_with("breaker.") && k.ends_with(".open")) as f64,
    );
    c.insert("sim.hedge.win_ratio", ratio(won, launched));
    c.insert(
        "sim.retry.giveups",
        sum_where(&all, |k| k.starts_with("retry.") && k.ends_with(".giveup")) as f64,
    );
}

pub fn blobstore_counters(s: &BlobStoreStats, c: &mut Counters) {
    c.insert(
        "storage.blobstore.hit_ratio",
        ratio(s.hits, s.hits + s.misses),
    );
    c.insert("storage.blobstore.hit_mib", s.hit_bytes as f64 / MIB);
    c.insert("storage.blobstore.dedup_mib", s.dedup_bytes as f64 / MIB);
    c.insert("storage.blobstore.evictions", s.evictions as f64);
}

/// Sum logical span durations (seconds) by span name into metrics.
pub fn logical_sums(spans: &[SpanRecord], names: &[(&str, &'static str)], c: &mut Counters) {
    for &(span, metric) in names {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name.as_str() == span)
            .map(|s| s.duration().as_nanos())
            .sum();
        c.insert(metric, ns as f64 / 1e9);
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
