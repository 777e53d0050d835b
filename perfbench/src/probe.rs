//! Host-clock spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A disabled probe calls the wrapped closure and records nothing, so the
//! untraced runs that produce the end-to-end numbers pay one branch per
//! call. An enabled probe keeps every span in memory (name, start, end,
//! parent, op id) and writes them out once, when the run ends.
//!
//! A paced probe records nothing either, but runs the host's reference
//! slices ([`crate::pace`]) between the calls it wraps, so the rounds it
//! measures can be reported in paced seconds.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::pace::{Pace, Sampled};

/// Which part of a run a span belongs to; per-layer host times are
/// normalised per setup or per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Round,
}

#[derive(Debug, Clone)]
pub struct HostSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub phase: Phase,
}

impl HostSpan {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the first component of its name
    /// (`engine.pull` → `engine`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Probe {
    on: bool,
    t0: Instant,
    phase: Cell<Phase>,
    op: Cell<u64>,
    spans: RefCell<Vec<HostSpan>>,
    stack: RefCell<Vec<usize>>,
    pace: Option<Arc<Mutex<Pace>>>,
    /// The reference slices run right before the next measured call.
    lead: Cell<Sampled>,
}

/// One measured call: host seconds without the reference slices run
/// inside it, and the same in paced seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub host_s: f64,
    pub paced_s: f64,
}

impl Probe {
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            t0: Instant::now(),
            phase: Cell::new(Phase::Round),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            pace: None,
            lead: Cell::new(Sampled::default()),
        }
    }

    /// A probe that records nothing and paces the calls it wraps.
    pub fn paced() -> Probe {
        Probe {
            pace: Some(Arc::new(Mutex::new(Pace::new()))),
            ..Probe::new(false)
        }
    }

    /// Run `f` and time it. On a paced probe the reference slices run
    /// just before, inside and just after `f` set its pace.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, Timed) {
        let Some(pace) = &self.pace else {
            let t = Instant::now();
            let out = f();
            let host_s = t.elapsed().as_secs_f64();
            return (
                out,
                Timed {
                    host_s,
                    paced_s: host_s,
                },
            );
        };
        if self.lead.get().slices == 0 {
            let mut p = pace.lock().expect("no pace holder panicked");
            p.tick(true);
            self.lead.set(p.take());
        }
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let mut p = pace.lock().expect("no pace holder panicked");
        let mut around = p.take();
        let host_s = wall_s - around.ns as f64 / 1e9;
        p.tick(true);
        let trail = p.take();
        around.add(trail);
        around.add(self.lead.replace(trail));
        let paced_s = around.paced(host_s);
        (out, Timed { host_s, paced_s })
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.set(phase);
    }

    /// Tag the spans that follow with the op they serve.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Run `f` inside a span called `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tick();
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(HostSpan {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
                phase: self.phase.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// On a paced probe, give the reference its share of the time since
    /// the last slice. Called between calls into the program.
    fn tick(&self) {
        if let Some(pace) = &self.pace {
            pace.lock().expect("no pace holder panicked").tick(false);
        }
    }

    /// The pace of a paced probe, for callbacks the program makes into
    /// the benchmark from other types.
    pub fn pace(&self) -> Option<Arc<Mutex<Pace>>> {
        self.pace.clone()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Per span name: (calls, per-call durations in ns) within `phase`.
    pub fn durations(&self, phase: Phase) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in self.spans.borrow().iter().filter(|s| s.phase == phase) {
            out.entry(s.name).or_default().push(s.dur_ns());
        }
        out
    }

    /// Host self time per layer: each span's duration minus the part its
    /// child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            *out.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Tab-separated dump: id, parent, name, op, phase, start_ns, end_ns.
    pub fn export_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\top\tphase\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let phase = match s.phase {
                Phase::Setup => "setup",
                Phase::Round => "round",
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{phase}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}
