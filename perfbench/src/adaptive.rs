//! `adaptive-partition`: the control plane, the paper's §6 loop, an open
//! loop driven by the trace.
//!
//! `hpcc_adapt::run` replays a seeded day of batch jobs and pods
//! (`traces::generate`) against a WLM partition the EWMA-forecast policy
//! lends to and reclaims from Kubernetes. It is the only workload that
//! reaches the DES, Slurm EASY backfill, the kubelets and the adapt
//! controller.
//!
//! An op is one job or pod reaching a terminal state. Op latency is the
//! program's own pod arrival → running percentiles; jobs carry none.

use crate::common::{self, Counters, InputHasher, Round, Workload};
use crate::metrics;
use crate::pace::Pace;
use crate::probe::Probe;
use hpcc_adapt::presets;
use hpcc_adapt::traces::{generate, TimedWorkload, TraceConfig, TraceShape};
use hpcc_adapt::RunSpec;
use hpcc_core::scenarios::common::{measured_container_startup, MeasuredCri};
use hpcc_crypto::sha256::Digest;
use hpcc_k8s::kubelet::CriRuntime;
use hpcc_k8s::objects::PodSpec;
use hpcc_sim::obs::Tracer;
use hpcc_sim::{DetRng, FaultInjector, SimSpan};
use std::sync::{Arc, Mutex};

/// Cluster width: the WLM partition the controller lends from.
pub const NODES: u32 = 64;
/// Jobs drive the host cost (superlinear in queue depth); pods keep the
/// pod-start percentiles steady across seeds.
pub const JOBS: usize = 100;
pub const PODS: usize = 1200;
/// Arrival window of the trace; the controller's default six-hour
/// horizon leaves room for the queue to drain.
const WINDOW: SimSpan = SimSpan(3 * 3600 * 1_000_000_000);

/// The measured-startup CRI, pacing the host before each pod start: the
/// only point inside `hpcc_adapt::run` where the benchmark runs.
struct PacedCri(Option<Arc<Mutex<Pace>>>);

impl CriRuntime for PacedCri {
    fn start_pod(&self, pod: &PodSpec) -> Result<SimSpan, String> {
        if let Some(pace) = &self.0 {
            pace.lock().expect("no pace holder panicked").tick(false);
        }
        MeasuredCri.start_pod(pod)
    }
}

/// `n` evenly spaced quantiles of an exponential distribution with the
/// given mean, clamped to `[lo, hi]` seconds, as the trace generator
/// clamps its draws.
fn quantiles(n: usize, mean: f64, lo: f64, hi: f64) -> Vec<SimSpan> {
    (0..n)
        .map(|i| {
            let q = (i as f64 + 0.5) / n as f64;
            SimSpan::from_secs_f64((-mean * (1.0 - q).ln()).clamp(lo, hi))
        })
        .collect()
}

pub struct Adaptive {
    trace: TimedWorkload,
    digest: Digest,
}

impl Adaptive {
    pub fn setup(seed: u64, _probe: &Probe) -> Adaptive {
        // Prime the CRI's startup cost, which the program measures once
        // per process through the real engine pipeline.
        measured_container_startup();
        let mut trace = generate(&TraceConfig {
            seed,
            shape: TraceShape::Diurnal {
                period: SimSpan(WINDOW.0 / 2),
            },
            duration: WINDOW,
            nodes: NODES,
            n_jobs: JOBS,
            n_pods: PODS,
            // Jobs arrive over the first half of the window, which keeps
            // the WLM queue deep while pods come and go.
            job_window: SimSpan(WINDOW.0 / 2),
        });
        // Every seed gets the same mix of job widths and run times and of
        // pod sizes and durations, the generator's distributions taken at
        // evenly spaced quantiles; the seed sets arrivals and which job or
        // pod gets which size. Drawn freely, the mix made the WLM's load
        // and the host cost differ by up to ~25% from seed to seed.
        let mut rng = DetRng::seeded(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut widths: Vec<u32> = (0..JOBS).map(|i| 1 + (16 * i / JOBS) as u32).collect();
        let mut runtimes = quantiles(JOBS, 600.0, 60.0, 3600.0);
        common::shuffle(&mut rng, &mut widths);
        common::shuffle(&mut rng, &mut runtimes);
        for ((job, _), (nodes, runtime)) in
            trace.jobs.iter_mut().zip(widths.into_iter().zip(runtimes))
        {
            job.nodes = nodes;
            job.actual_runtime = runtime;
            job.walltime_limit = runtime * 2;
        }
        let mut cores: Vec<u64> = (0..PODS).map(|i| 2 + (15 * i / PODS) as u64).collect();
        let mut durations = quantiles(PODS, 120.0, 20.0, 900.0);
        common::shuffle(&mut rng, &mut cores);
        common::shuffle(&mut rng, &mut durations);
        for ((pod, _), (cores, duration)) in
            trace.pods.iter_mut().zip(cores.into_iter().zip(durations))
        {
            pod.resources.cpu_millis = cores * 1000;
            pod.duration = duration;
        }
        let mut hasher = InputHasher::new("adaptive-partition");
        for (job, at) in &trace.jobs {
            hasher.add(format!("{job:?}@{}", at.as_nanos()).as_bytes());
        }
        for (pod, at) in &trace.pods {
            hasher.add(format!("{pod:?}@{}", at.as_nanos()).as_bytes());
        }
        Adaptive {
            trace,
            digest: hasher.finish(),
        }
    }
}

impl Workload for Adaptive {
    fn round(&self, probe: &Probe, traced: bool) -> Round {
        let (policy, config) = presets::ewma_forecast(NODES, SimSpan::secs(900), 4);
        let tracer = if traced {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let out = probe.time("adapt.run", || {
            hpcc_adapt::run(RunSpec {
                workload: &self.trace,
                policy,
                config,
                cri: Arc::new(PacedCri(probe.pace())),
                tracer: Arc::clone(&tracer),
                faults: FaultInjector::disabled(),
                domains: None,
                scenario: "perfbench",
            })
        });

        let jobs = self.trace.jobs.len() as u64;
        let pods = self.trace.pods.len() as u64;
        let attempted = jobs + pods;
        let failed = out.pods_failed as u64;
        let ok = (out.jobs_completed + out.pods_succeeded) as u64;
        let mut errors = Vec::new();
        if out.jobs_completed as u64 != jobs {
            errors.push(format!("{} of {jobs} jobs completed", out.jobs_completed));
        }
        if out.pods_failed > 0 {
            // No fault is injected, so no pod may fail.
            errors.push(format!("{} pods failed", out.pods_failed));
        }
        if (out.pods_succeeded + out.pods_failed) as u64 != pods {
            errors.push(format!(
                "{} succeeded + {} failed of {pods} pods",
                out.pods_succeeded, out.pods_failed
            ));
        }

        let mut c = Counters::new();
        c.insert("adapt.decisions", out.decisions.len() as f64);
        c.insert("adapt.reprovisions", f64::from(out.reprovisions));
        c.insert("adapt.releases", f64::from(out.releases));
        c.insert("adapt.slo_violations", out.slo_violations as f64);
        c.insert("wlm.jobs_completed", out.jobs_completed as f64);
        c.insert("wlm.utilization", out.wlm_utilization);
        c.insert("k8s.pods_succeeded", out.pods_succeeded as f64);
        c.insert("k8s.pods_failed", out.pods_failed as f64);
        c.insert("k8s.utilization", out.k8s_utilization);
        c.insert("utilization", out.combined_utilization);
        let spans = tracer.finished();
        if traced {
            metrics::logical_sums(
                &spans,
                &[
                    ("adapt.reprovision", "adapt.reprovision.logical_s"),
                    ("adapt.return", "adapt.return.logical_s"),
                ],
                &mut c,
            );
        }
        let first_arrival = self
            .trace
            .jobs
            .iter()
            .map(|(_, t)| *t)
            .chain(self.trace.pods.iter().map(|(_, t)| *t))
            .min()
            .expect("the trace is non-empty");
        let nanos = |s: Option<SimSpan>| s.map_or(0, |s| s.as_nanos());
        Round {
            attempted,
            failed,
            ok,
            lat_ns: Vec::new(),
            lat_hash: 0,
            p50_ns: nanos(out.p50_pod_start),
            p95_ns: nanos(out.p95_pod_start),
            samples: out.pods_succeeded as u64,
            makespan_ns: out.work_makespan.as_nanos() - first_arrival.as_nanos(),
            counters: c,
            errors,
            logical_spans: spans,
        }
    }

    fn inputs_digest(&self) -> Digest {
        self.digest
    }

    fn kernel_sample(&self) -> Option<Vec<u8>> {
        // Jobs and pods carry no bytes and meet no codec or crypto.
        None
    }

    fn computed_codec_mib(&self) -> f64 {
        0.0
    }
}
