//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <cold-start|publish|fleet-storm|adaptive-partition>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test --seed <n>
//! ```
//!
//! A run sets the workload up several times (reporting the median set-up
//! time), then runs rounds of the workload's ops for `--seconds` host
//! seconds. End-to-end host times are in paced seconds: host seconds
//! scaled by a reference slice timed in between (see [`pace`]). Every
//! round starts from a fresh program state, so its
//! logical outputs must repeat exactly; any difference, and any failed
//! output check, makes the run incorrect and the exit code 1. With
//! `--trace 0` the last line of standard output is a JSON object with the
//! end-to-end metrics; with `--trace 1` untraced and traced rounds
//! alternate after one warm-up round, and the JSON object holds the
//! per-layer metrics. The lines before it are a human-readable report.

mod adaptive;
mod cold_start;
mod common;
mod fleet_storm;
mod kernels;
mod metrics;
mod pace;
mod probe;
mod publish;
mod rusage;

use common::{quartiles, Counters, Round, Workload};
use probe::{Phase, Probe};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run: at least `SETUP_REPS`, and more while they have
/// taken less than `SETUP_MIN_S` in all, so a set-up of a millisecond is
/// timed hundreds of times. The median is `setup_s`.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 1000;

const WORKLOADS: &[&str] = &["cold-start", "publish", "fleet-storm", "adaptive-partition"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn setup(name: &str, seed: u64, probe: &Probe) -> Box<dyn Workload> {
    match name {
        "cold-start" => Box::new(cold_start::ColdStart::setup(seed, probe)),
        "publish" => Box::new(publish::Publish::setup(seed, probe)),
        "fleet-storm" => Box::new(fleet_storm::FleetStorm::setup(seed, probe)),
        "adaptive-partition" => Box::new(adaptive::Adaptive::setup(seed, probe)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Measured rounds and the host and paced seconds each took.
#[derive(Default)]
struct Phased {
    rounds: Vec<Round>,
    host_s: Vec<f64>,
    paced_s: Vec<f64>,
}

impl Phased {
    fn run_round(&mut self, w: &dyn Workload, probe: &Probe, traced: bool) {
        // Only the last round's logical spans are written out, and only
        // the first round's latencies are kept: memory stays flat however
        // many rounds run.
        if let Some(prev) = self.rounds.last_mut() {
            prev.logical_spans = Vec::new();
        }
        let (mut r, t) = probe.measure(|| w.round(probe, traced));
        self.host_s.push(t.host_s);
        self.paced_s.push(t.paced_s);
        if !self.rounds.is_empty() {
            r.lat_ns = Vec::new();
        }
        self.rounds.push(r);
    }

    /// Median over rounds of completed ops per paced second: every round
    /// does the same work, and the median discards rounds a busy host
    /// slowed down more than the reference shows.
    fn ops_per_s(&self) -> f64 {
        common::median(&self.per_round_ops_per_s(&self.paced_s))
    }

    /// The same in plain host seconds.
    fn host_ops_per_s(&self) -> f64 {
        common::median(&self.per_round_ops_per_s(&self.host_s))
    }

    fn per_round_ops_per_s(&self, secs: &[f64]) -> Vec<f64> {
        self.rounds
            .iter()
            .zip(secs)
            .map(|(r, s)| r.ok as f64 / s)
            .collect()
    }
}

/// Output checks over a phase: every round counted every op once, and
/// repeated the first round's logical outputs and counters exactly.
fn check_rounds(label: &str, first: &Round, p: &Phased, errors: &mut Vec<String>) {
    for (i, r) in p.rounds.iter().enumerate() {
        errors.extend(r.errors.iter().map(|e| format!("{label} round {i}: {e}")));
        if r.ok + r.failed != r.attempted {
            errors.push(format!(
                "{label} round {i}: {} ok + {} failed != {} attempted",
                r.ok, r.failed, r.attempted
            ));
        }
        if !r.same_logical(first) {
            errors.push(format!(
                "{label} round {i}: logical outputs differ from round 0"
            ));
        }
        if r.counters != p.rounds[0].counters {
            errors.push(format!("{label} round {i}: counters differ from round 0"));
        }
    }
}

fn peak_rss_mib() -> f64 {
    rusage::max_rss_kib() as f64 / 1024.0
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn trace_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::PathBuf::from(target).join("perfbench-traces")
}

/// Write the host spans and the last traced round's logical spans; the
/// returned line names the files.
fn write_traces(args: &Args, probe: &Probe, logical: &[hpcc_sim::obs::SpanRecord]) -> String {
    let dir = trace_dir();
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.host.tsv")), probe.export_tsv())?;
        std::fs::write(
            dir.join(format!("{stem}.logical.tsv")),
            hpcc_sim::obs::export_tsv(logical),
        )
    });
    match written {
        Ok(()) => format!("# traces written to {}/{stem}.*.tsv\n", dir.display()),
        Err(e) => format!("# cannot write traces to {}: {e}\n", dir.display()),
    }
}

/// Every per-layer metric of a traced run (0 for a layer the workload
/// bypasses), with the per-call host times and per-layer self time
/// appended to `report`.
fn per_layer(
    w: &dyn Workload,
    probe: &Probe,
    first: &Round,
    untraced: &Phased,
    traced: &Phased,
    setups: usize,
    report: &mut String,
) -> Counters {
    let last = traced.rounds.last().expect("at least one traced round");
    let mut layer: Counters = last.counters.clone();
    layer.insert(
        "failed_ratio",
        metrics::ratio(first.failed, first.attempted),
    );
    layer.insert("logical_samples", first.samples as f64);
    layer.insert("codec.computed_mib", w.computed_codec_mib());
    layer.insert(
        "obs.trace_overhead_ratio",
        untraced.host_ops_per_s() / traced.host_ops_per_s(),
    );
    if let Some(sample) = w.kernel_sample() {
        kernels::calibrate(sample, &mut layer);
    }

    let _ = writeln!(
        report,
        "# host time per call (ms) in traced rounds and set-ups"
    );
    let phases = [
        ("setup", probe.durations(Phase::Setup), setups as f64),
        (
            "round",
            probe.durations(Phase::Round),
            traced.rounds.len() as f64,
        ),
    ];
    for name in metrics::HOST_SPANS {
        let mut total = 0.0;
        for (label, calls, per) in &phases {
            if let Some(d) = calls.get(name) {
                total += d.iter().sum::<u64>() as f64 / 1e9 / per;
                let ms: Vec<f64> = d.iter().map(|&n| n as f64 / 1e6).collect();
                let (q1, q2, q3) = quartiles(&ms);
                let _ = writeln!(
                    report,
                    "  {name:<34} {label:>7} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7}",
                    d.len()
                );
            }
        }
        let metric: &'static str = metrics::PER_LAYER
            .iter()
            .find(|(m, _)| m.strip_suffix(".host_s") == Some(name))
            .map(|(m, _)| *m)
            .expect("every host span has a metric");
        layer.insert(metric, total);
    }

    let _ = writeln!(report, "# per-layer metrics (traced round, per round)");
    for &(name, unit) in metrics::PER_LAYER {
        let v = *layer.entry(name).or_insert(0.0);
        let _ = writeln!(report, "  {name:<40} {unit:>7} {v:>16.6}");
    }
    let self_time = probe.self_time_by_layer();
    let total: u64 = self_time.values().sum();
    let _ = writeln!(report, "# host self time per layer, all traced spans");
    for (l, ns) in &self_time {
        let _ = writeln!(
            report,
            "  {l:<20} {:>12.6} s {:>6.1}%",
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    layer
}

fn run(args: &Args) -> ExitCode {
    // Untraced runs report end-to-end metrics and so pace their calls;
    // traced runs time every call instead.
    let probe = if args.trace {
        Probe::new(true)
    } else {
        Probe::paced()
    };
    let mut errors = Vec::new();

    // ---- set-up ---------------------------------------------------------
    probe.set_phase(Phase::Setup);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    let start = Instant::now();
    while setup_s.len() < SETUP_REPS
        || (start.elapsed().as_secs_f64() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        let prev = workload.take().map(|w| w.inputs_digest());
        let (w, t) = probe.measure(|| setup(&args.workload, args.seed, &probe));
        setup_s.push(t.paced_s);
        if prev.is_some_and(|d| d != w.inputs_digest()) {
            errors.push("one seed generated two different inputs".to_string());
        }
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up");
    probe.set_phase(Phase::Round);

    // ---- measured phases ------------------------------------------------
    let (untraced, traced) = if args.trace {
        let off = Probe::new(false);
        // One unmeasured round first, then untraced and traced rounds in
        // turn, so warm-up and drift fall on neither side of the
        // overhead ratio.
        w.round(&off, false);
        let (mut u, mut t) = (Phased::default(), Phased::default());
        let start = Instant::now();
        while u.rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            u.run_round(w.as_ref(), &off, false);
            t.run_round(w.as_ref(), &probe, true);
        }
        (u, Some(t))
    } else {
        let mut u = Phased::default();
        let start = Instant::now();
        while u.rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            u.run_round(w.as_ref(), &probe, false);
        }
        (u, None)
    };
    let first = untraced.rounds[0].clone();
    check_rounds("untraced", &first, &untraced, &mut errors);
    if let Some(t) = &traced {
        check_rounds("traced", &first, t, &mut errors);
    }

    // ---- metrics --------------------------------------------------------
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# perfbench {} seed={} seconds={} trace={} inputs={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.inputs_digest().short()
    );
    let _ = writeln!(
        report,
        "# {:<34} {:>7} {:>16} {:>14} {:>14} {:>14} {:>7}",
        "metric", "unit", "value", "p25", "median", "p75", "n"
    );
    let mut row = |name: &str, unit: &str, value: f64, dist: &[f64]| {
        let (q1, q2, q3) = quartiles(dist);
        let _ = writeln!(
            report,
            "  {name:<34} {unit:>7} {value:>16.6} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7}",
            dist.len()
        );
    };
    let lat_ms: Vec<f64> = first.lat_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let lat_dist = if lat_ms.is_empty() {
        vec![first.p50_ns as f64 / 1e6]
    } else {
        lat_ms
    };

    let e2e: Counters = [
        ("ops_per_s", untraced.ops_per_s()),
        ("setup_s", common::median(&setup_s)),
        ("peak_rss_mib", peak_rss_mib()),
        ("logical_p50_ms", first.p50_ns as f64 / 1e6),
        ("logical_p95_ms", first.p95_ns as f64 / 1e6),
        ("logical_makespan_s", first.makespan_ns as f64 / 1e9),
    ]
    .into_iter()
    .collect();
    for &(name, unit) in metrics::END_TO_END {
        let dist = match name {
            "ops_per_s" => untraced.per_round_ops_per_s(&untraced.paced_s),
            "setup_s" => setup_s.clone(),
            "logical_p50_ms" | "logical_p95_ms" => lat_dist.clone(),
            _ => vec![e2e[name]],
        };
        row(name, unit, e2e[name], &dist);
    }
    let _ = writeln!(
        report,
        "  logical latency samples: {} of {} ops attempted per round, {} failed; {} untraced rounds",
        first.samples,
        first.attempted,
        first.failed,
        untraced.rounds.len()
    );
    if !args.trace {
        let slice_ms: Vec<f64> = untraced
            .host_s
            .iter()
            .zip(&untraced.paced_s)
            .map(|(h, p)| pace::REF_SLICE_S * 1e3 * h / p)
            .collect();
        let _ = writeln!(
            report,
            "  ops per host second, not paced: {:.6}; reference slice: {:.6} ms (median of rounds)",
            untraced.host_ops_per_s(),
            common::median(&slice_ms)
        );
    }

    let attempted: u64 = untraced.rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = untraced.rounds.iter().map(|r| r.failed).sum();

    if let Some(traced) = &traced {
        let layer = per_layer(
            w.as_ref(),
            &probe,
            &first,
            &untraced,
            traced,
            setup_s.len(),
            &mut report,
        );
        for &(name, _) in metrics::PER_LAYER {
            out.insert(name, layer[name]);
        }
        let last = traced.rounds.last().expect("at least one traced round");
        report.push_str(&write_traces(args, &probe, &last.logical_spans));
    } else {
        for &(name, _) in metrics::END_TO_END {
            out.insert(name, e2e[name]);
        }
    }

    let correct = errors.is_empty();
    for e in errors.iter().take(20) {
        let _ = writeln!(report, "# CHECK FAILED: {e}");
    }
    print!("{report}");
    let units: BTreeMap<&str, &str> = metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .copied()
        .collect();
    let body: Vec<String> = out
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                units[k]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Checks that the benchmark's own checks work: the same seed gives the
/// same inputs, another seed different ones, and a published blob with
/// one flipped byte fails the content check.
fn self_test(seed: u64) -> ExitCode {
    let off = Probe::new(false);
    let mut failures = Vec::new();
    for name in WORKLOADS {
        let a = setup(name, seed, &off).inputs_digest();
        let b = setup(name, seed, &off).inputs_digest();
        let c = setup(name, seed.wrapping_add(1), &off).inputs_digest();
        let ok = a == b && a != c;
        println!("self-test {name}: same seed same inputs, next seed new inputs: {ok}");
        if !ok {
            failures.push(format!("{name}: seed does not determine the inputs"));
        }
    }
    let mut cs = cold_start::ColdStart::setup(seed, &off);
    let clean = cs.round(&off, false);
    cs.tamper_first_image();
    let tampered = cs.round(&off, false);
    let ok = clean.errors.is_empty() && !tampered.errors.is_empty();
    println!(
        "self-test cold-start: clean round passes ({} errors), one flipped byte fails ({} errors): {ok}",
        clean.errors.len(),
        tampered.errors.len()
    );
    if !ok {
        failures.push("the content check missed a flipped byte".into());
    }
    let ok = publish::Publish::setup(seed, &off).tampered_pull_is_rejected();
    println!("self-test publish: one flipped byte in a pushed blob fails verified_pull: {ok}");
    if !ok {
        failures.push("verified_pull accepted a flipped byte".into());
    }
    for f in &failures {
        println!("# SELF-TEST FAILED: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        self_test(args.seed)
    } else {
        run(&args)
    }
}
