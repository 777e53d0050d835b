//! `fleet-storm`: the distribution plane, an open loop on the logical
//! clock.
//!
//! Seeded release waves of sized images are pulled by a seeded subset of
//! a 16,384-node fleet through the rack → row → site cache hierarchy
//! (`StormTopology::pull_image_sized`); every fourth wave is served by a
//! few seed pulls plus a pipelined tree broadcast
//! (`broadcast_tree_from_seeds_gated`). One seed-chosen rack loses power
//! across one broadcast wave (`hpcc_sim::domains`, armed with
//! `set_domain_schedule`): the tree is repaired around its dead nodes and
//! the gated broadcast re-attaches them after the heal. The outage ends
//! before the next wave, so no tier pull meets it and no op fails (a
//! pull the tiers reject would count as failed). Codec, crypto and vfs
//! do no work here.
//!
//! Op latency: from when the wave was due until the image was complete on
//! the node.

use crate::common::{self, Counters, InputHasher, Round, Workload, MIB};
use crate::probe::Probe;
use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_registry::tiered::{ImageSpec, StormConfig, StormTopology};
use hpcc_sim::net::{Fabric, NodeId};
use hpcc_sim::obs::Tracer;
use hpcc_sim::{
    Bytes, CrashInjector, DetRng, DomainSchedule, DomainTopology, FaultInjector, MetricsRegistry,
    OutageEvent, OutageKind, SimSpan, SimTime,
};
use hpcc_storage::p2p::{broadcast_tree_from_seeds_gated, chunk_count, DistributionTree, TreeSpec};
use std::sync::Arc;

/// Fleet size: the largest `StormConfig::default_for` accepts.
pub const FLEET: usize = 16 * 16 * 64;
/// Nodes pulling each wave.
pub const PULLERS: usize = 1024;
pub const WAVES: usize = 40;
/// Waves are released this far apart, plus a seeded jitter.
const WAVE_GAP: SimSpan = SimSpan(60_000_000_000);
/// Pullers in a tiered wave start this far apart (open loop).
const STAGGER: SimSpan = SimSpan(1_000_000);
/// Every wave's image shares this base layer.
const BASE_BYTES: u64 = 512 << 20;
/// Nominal size of each wave's own layers.
const WAVE_BYTES: u64 = 768 << 20;
/// Every `TREE_EVERY`-th wave (from wave 1) is served by broadcast.
const TREE_EVERY: usize = 4;
/// The outage starts this long before its wave is due and heals this
/// long after, before the next wave (due at least 50 s later).
const OUTAGE_MARGIN: SimSpan = SimSpan(5_000_000_000);
const OUTAGE_HEAL: SimSpan = SimSpan(30_000_000_000);
const TREE_SEEDS: usize = 4;

struct Wave {
    due: SimTime,
    image: ImageSpec,
    pullers: Vec<usize>,
    /// The distribution forest over `pullers`, for waves served by
    /// broadcast.
    tree: Option<DistributionTree>,
}

pub struct FleetStorm {
    waves: Vec<Wave>,
    outage: OutageEvent,
    digest: Digest,
}

impl FleetStorm {
    pub fn setup(seed: u64, _probe: &Probe) -> FleetStorm {
        let mut rng = DetRng::seeded(seed);
        let mut hasher = InputHasher::new("fleet-storm");
        let base = (sha256(format!("{seed}/base").as_bytes()), BASE_BYTES);
        let mut nodes: Vec<usize> = (0..FLEET).collect();
        let waves: Vec<Wave> = (0..WAVES)
            .map(|w| {
                let label = format!("{seed}/wave{w}");
                let layer =
                    |l: usize, bytes: u64| (sha256(format!("{label}/l{l}").as_bytes()), bytes);
                // Sizes within ±10% of nominal, so no two seeds give the
                // same timings.
                let size = (WAVE_BYTES as f64 * (0.9 + 0.2 * rng.unit())) as u64;
                let own = size / 3;
                let image = ImageSpec {
                    manifest: (sha256(format!("{label}/manifest").as_bytes()), 2 << 10),
                    blobs: vec![
                        layer(0, 4 << 10),
                        base,
                        layer(1, own),
                        layer(2, own),
                        layer(3, size - 2 * own),
                    ],
                };
                common::shuffle(&mut rng, &mut nodes);
                let mut pullers = nodes[..PULLERS].to_vec();
                pullers.sort_unstable();
                let jitter = SimSpan::millis(rng.uniform(0, 10_000));
                let due = SimTime::ZERO + SimSpan(WAVE_GAP.0 * w as u64) + jitter;
                hasher.add(&image.manifest.0 .0);
                for p in &pullers {
                    hasher.add(&(*p as u64).to_le_bytes());
                }
                let tree = (w % TREE_EVERY == 1).then(|| {
                    DistributionTree::build(
                        PULLERS,
                        TreeSpec {
                            seeds: TREE_SEEDS,
                            placement_seed: rng.next_u64(),
                            ..TreeSpec::default()
                        },
                    )
                });
                Wave {
                    due,
                    image,
                    pullers,
                    tree,
                }
            })
            .collect();
        // The outage spans one broadcast wave in the middle of the run and
        // takes down the rack of one of its forwarding pullers, a rack that
        // holds none of its seeds, so the tree is rewired and every seed
        // pull succeeds.
        // The rest of the waves keep the outage's late deliveries far
        // below 5% of the ops, beyond the latency percentiles.
        let trees = (WAVES / TREE_EVERY) as u64;
        let k = TREE_EVERY * rng.uniform(trees / 4, 3 * trees / 4) as usize + 1;
        let tree = waves[k].tree.as_ref().expect("wave k broadcasts");
        let domains = DomainTopology::default_for(FLEET);
        let rack_at = |pos: usize| domains.rack_of(waves[k].pullers[tree.assignments()[pos]]);
        let seed_racks: Vec<usize> = (0..TREE_SEEDS)
            .map(|s| rack_at(tree.seed_root(s)))
            .collect();
        let rack = loop {
            let pos = rng.uniform(0, PULLERS as u64) as usize;
            let r = rack_at(pos);
            if !tree.children(pos).is_empty() && !seed_racks.contains(&r) {
                break r;
            }
        };
        hasher.add(&(rack as u64).to_le_bytes());
        FleetStorm {
            outage: OutageEvent {
                kind: OutageKind::RackPower { rack },
                from: SimTime(waves[k].due.0 - OUTAGE_MARGIN.0),
                until: waves[k].due + OUTAGE_HEAL,
            },
            waves,
            digest: hasher.finish(),
        }
    }
}

impl Workload for FleetStorm {
    fn round(&self, probe: &Probe, traced: bool) -> Round {
        let schedule = Arc::new(DomainSchedule::new(
            DomainTopology::default_for(FLEET),
            vec![self.outage.clone()],
        ));
        let faults = Arc::new(FaultInjector::new(0, schedule.fault_rules()));
        let topo = StormTopology::new(StormConfig::default_for(FLEET));
        topo.set_domain_schedule(
            Arc::clone(&schedule),
            Arc::clone(&faults),
            CrashInjector::disabled(),
        );
        let tracer = if traced {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        topo.set_tracer(Arc::clone(&tracer));
        let p2p = MetricsRegistry::new();

        let mut lat = Vec::with_capacity(WAVES * PULLERS);
        let (mut attempted, mut ok, mut failed) = (0u64, 0u64, 0u64);
        let mut errors = Vec::new();
        let mut last_done = SimTime::ZERO;
        let mut op = 0u64;
        let in_outage = |t: SimTime| self.outage.from <= t && t < self.outage.until;
        for wave in &self.waves {
            let mut pull = |node: usize, at: SimTime| {
                op += 1;
                probe.set_op(op);
                attempted += 1;
                match probe.time("registry.tier.pull", || {
                    topo.pull_image_sized(node, 0, &wave.image, at)
                }) {
                    Ok((done, _)) => {
                        ok += 1;
                        Some(done)
                    }
                    Err(e) => {
                        failed += 1;
                        if !in_outage(at) {
                            errors.push(format!("node {node} pull failed outside the outage: {e}"));
                        }
                        None
                    }
                }
            };
            let Some(tree) = &wave.tree else {
                for (i, &node) in wave.pullers.iter().enumerate() {
                    let due = wave.due + SimSpan(STAGGER.0 * i as u64);
                    if let Some(done) = pull(node, due) {
                        lat.push(done.since(due).as_nanos());
                        last_done = last_done.max(done);
                    }
                }
                continue;
            };
            // Tree wave: seed roots pull through the tiers, the rest of
            // the pullers receive the image down the forest.
            let spec = tree.spec();
            let total = Bytes::new(wave.image.total_bytes());
            let chunks = chunk_count(total, spec.chunk);
            let node_of = |pos: usize| wave.pullers[tree.assignments()[pos]];
            let mut seed_done = Vec::with_capacity(spec.seeds);
            let mut seeds_ok = true;
            for s in 0..spec.seeds {
                match pull(node_of(tree.seed_root(s)), wave.due) {
                    // Conservatively, a seed forwards once its whole
                    // image has arrived.
                    Some(done) => seed_done.push(vec![done; chunks]),
                    None => seeds_ok = false,
                }
            }
            if !seeds_ok {
                errors.push("a tree seed could not pull".to_string());
                continue;
            }
            let ids: Vec<NodeId> = wave.pullers.iter().map(|&n| NodeId(n as u32)).collect();
            let fabric = Fabric::with_defaults(ids.iter().copied());
            let dead: Vec<usize> = (0..wave.pullers.len())
                .filter(|&pos| schedule.node_down(node_of(pos), wave.due))
                .collect();
            let gate = schedule
                .heal_time(wave.due)
                .map(|heal| (dead.as_slice(), heal));
            let report = probe.time("storage.p2p.broadcast", || {
                broadcast_tree_from_seeds_gated(
                    &fabric, total, &ids, tree, &seed_done, wave.due, &faults, &tracer, &p2p, gate,
                )
            });
            let roots: Vec<usize> = (0..spec.seeds).map(|s| tree.seed_root(s)).collect();
            for pos in 0..wave.pullers.len() {
                let done = report.per_node_done[tree.assignments()[pos]];
                if !roots.contains(&pos) {
                    attempted += 1;
                    ok += 1;
                }
                lat.push(done.since(wave.due).as_nanos());
                last_done = last_done.max(done);
            }
        }

        let m = topo.metrics();
        let mut c = Counters::new();
        c.insert(
            "registry.tier.origin_requests",
            topo.origin_requests() as f64,
        );
        c.insert(
            "registry.tier.rack_hit_ratio",
            topo.tier_stats(0).hit_ratio(),
        );
        let origin_bytes = m.get("storm.origin.bytes");
        c.insert("registry.tier.origin_mib", origin_bytes as f64 / MIB);
        c.insert("registry.tier.shed", m.get("storm.origin.shed") as f64);
        c.insert(
            "registry.tier.node_down_rejects",
            m.get("storm.domain.node_down_rejects") as f64,
        );
        c.insert(
            "registry.tier.partition_timeouts",
            m.get("storm.domain.partition_timeouts") as f64,
        );
        c.insert(
            "registry.tier.rate_wait_s",
            m.get("storm.tenant.rate_wait_ns") as f64 / 1e9,
        );
        c.insert(
            "storage.p2p.chunks_sent",
            p2p.get("p2p.tree.chunks_sent") as f64,
        );
        c.insert("storage.p2p.repairs", p2p.get("p2p.tree.repairs") as f64);
        c.insert(
            "storage.p2p.outage_rewired",
            p2p.get("p2p.tree.outage_rewired") as f64,
        );
        c.insert(
            "origin_mib_per_op",
            origin_bytes as f64 / MIB / ok.max(1) as f64,
        );
        let first_due = self.waves[0].due;
        let mut round = Round::from_latencies(
            (attempted, ok, failed),
            lat,
            last_done.since(first_due).as_nanos(),
            c,
            errors,
        );
        round.logical_spans = tracer.finished();
        round
    }

    fn inputs_digest(&self) -> Digest {
        self.digest
    }

    fn kernel_sample(&self) -> Option<Vec<u8>> {
        // Sized images carry no bytes and meet no codec or crypto.
        None
    }

    fn computed_codec_mib(&self) -> f64 {
        0.0
    }
}
