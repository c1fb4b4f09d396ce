//! The traced run's per-layer accounting.
//!
//! Every number is taken from the benchmark's side of a crate's public
//! call: the program under test is not instrumented. Work the trace adds
//! (re-executing a call through `vip-core` and on an `Analytic` twin
//! engine, the output comparisons, exporting the host-span trace) is timed as
//! *excluded* and subtracted from the workload's measured time, so the
//! traced and untraced runs time the same work.

use std::time::Instant;

use vip_core::addressing::{inter::run_inter, intra::run_intra};
use vip_core::error::CoreResult;
use vip_core::frame::Frame;
use vip_core::ops::{InterOp, IntraOp};
use vip_engine::{AddressEngine, EngineConfig, EngineResult};
use vip_obs::{Attribution, Session, Track};

/// Host time and work of one addressing class re-executed in `vip-core`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreTally {
    /// Nanoseconds inside `run_intra`/`run_inter`.
    pub ns: u128,
    /// Pixels those calls processed.
    pub pixels: u64,
    /// Calls re-executed.
    pub calls: u64,
}

/// Per-layer accumulators of one traced phase.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    session: Session,
    /// Chrome JSON of the last finished repetition's host spans.
    pub last_chrome: String,
    /// Host latency of every workload call (engine or GME backend), ms.
    pub call_ms: Vec<f64>,
    /// Total host nanoseconds of those calls.
    pub call_ns: u128,
    /// Nanoseconds the trace itself added; never part of a workload time.
    pub excluded_ns: u128,
    /// Intra calls re-executed through `vip-core`.
    pub intra: CoreTally,
    /// Inter calls re-executed through `vip-core`.
    pub inter: CoreTally,
    /// The `Analytic` prototype engine that re-executes every call.
    analytic: AddressEngine,
    /// Nanoseconds of those `Analytic` calls.
    pub analytic_ns: u128,
    /// Calls behind `analytic_ns`.
    pub analytic_calls: u64,
    /// Calls whose output was compared against `vip-core`.
    pub checked: u64,
    /// Calls whose output differed from `vip-core`'s (or that failed).
    pub mismatched: u64,
    /// Workload nanoseconds spent in `vip-obs` (recording finish, export
    /// and attribution inside the timed phase).
    pub obs_ns: u128,
    /// Events per repetition of the recording that `obs_*` describe.
    pub obs_events: Vec<f64>,
    /// Chrome-JSON export milliseconds per repetition.
    pub obs_export_ms: Vec<f64>,
    /// Attribution milliseconds per repetition.
    pub obs_attrib_ms: Vec<f64>,
}

impl Trace {
    /// An empty trace whose span clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            session: Session::new(),
            last_chrome: String::new(),
            call_ms: Vec::new(),
            call_ns: 0,
            excluded_ns: 0,
            intra: CoreTally::default(),
            inter: CoreTally::default(),
            analytic: AddressEngine::new(EngineConfig::prototype())
                .expect("prototype config is valid"),
            analytic_ns: 0,
            analytic_calls: 0,
            checked: 0,
            mismatched: 0,
            obs_ns: 0,
            obs_events: Vec::new(),
            obs_export_ms: Vec::new(),
            obs_attrib_ms: Vec::new(),
        }
    }

    /// Host nanoseconds since the trace began: the span timebase.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a host span `[start_ns, now]` on `track`.
    pub fn span_since(&self, track: Track, name: &'static str, start_ns: u64) {
        self.session
            .recorder()
            .span(track, name, start_ns, self.now_ns(), &[]);
    }

    /// Times one workload call: a latency sample and a span on the
    /// engine track.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos();
        self.call_ns += ns;
        self.call_ms.push(ns as f64 / 1e6);
        self.span_since(Track::Engine, name, start_ns);
        out
    }

    /// Runs trace-only work, keeping its time out of every workload time.
    pub fn exclude<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t = Instant::now();
        let out = f(self);
        self.excluded_ns += t.elapsed().as_nanos();
        out
    }

    /// Re-executes an intra call through `vip-core` (the core layer) and
    /// on the `Analytic` twin engine, and checks the workload's output
    /// against `vip-core`'s.
    pub fn shadow_intra(&mut self, frame: &Frame, op: &dyn IntraOp, produced: Option<&Frame>) {
        self.shadow(
            false,
            || run_intra(frame, &op).map(|r| (r.output, r.report.pixels_processed)),
            |e| e.run_intra(frame, &op).map(drop),
            produced,
        );
    }

    /// The inter-call counterpart of [`Trace::shadow_intra`].
    pub fn shadow_inter(
        &mut self,
        a: &Frame,
        b: &Frame,
        op: &dyn InterOp,
        produced: Option<&Frame>,
    ) {
        self.shadow(
            true,
            || run_inter(a, b, &op).map(|r| (r.output, r.report.pixels_processed)),
            |e| e.run_inter(a, b, &op).map(drop),
            produced,
        );
    }

    /// The two re-executions alternate in order, so neither is always the
    /// one that finds the caches cold.
    fn shadow(
        &mut self,
        inter: bool,
        core: impl FnOnce() -> CoreResult<(Frame, u64)>,
        mut twin: impl FnMut(&mut AddressEngine) -> EngineResult<()>,
        produced: Option<&Frame>,
    ) {
        self.exclude(|tr| {
            let core_first = tr.checked % 2 == 0;
            if !core_first {
                tr.twin(&mut twin);
            }
            let t = Instant::now();
            let r = core();
            let ns = t.elapsed().as_nanos();
            if core_first {
                tr.twin(&mut twin);
            }
            tr.checked += 1;
            let pixels = match r {
                Ok((out, px)) => {
                    tr.mismatched += u64::from(produced != Some(&out));
                    px
                }
                Err(_) => {
                    tr.mismatched += 1;
                    0
                }
            };
            let tally = if inter { &mut tr.inter } else { &mut tr.intra };
            tally.ns += ns;
            tally.calls += 1;
            tally.pixels += pixels;
        });
    }

    fn twin(&mut self, call: impl FnOnce(&mut AddressEngine) -> EngineResult<()>) {
        let t = Instant::now();
        // A failing twin call shows as a failed workload call already.
        call(&mut self.analytic).ok();
        self.analytic_ns += t.elapsed().as_nanos();
        self.analytic_calls += 1;
    }

    fn push_obs(&mut self, events: usize, export_ns: u128, attrib_ns: u128) {
        self.obs_events.push(events as f64);
        self.obs_export_ms.push(export_ns as f64 / 1e6);
        self.obs_attrib_ms.push(attrib_ns as f64 / 1e6);
    }

    /// Accounts one repetition's `vip-obs` work done by the workload.
    pub fn workload_obs(
        &mut self,
        events: usize,
        finish_ns: u128,
        export_ns: u128,
        attrib_ns: u128,
    ) {
        self.obs_ns += finish_ns + export_ns + attrib_ns;
        self.push_obs(events, export_ns, attrib_ns);
    }

    /// Closes a repetition: exports its host spans as Chrome JSON and
    /// attributes them, as `vipctl trace` and `report` do. When the
    /// workload records nothing itself, this export is what the `obs.*`
    /// metrics describe.
    pub fn finish_rep(&mut self, workload_records: bool) {
        self.exclude(|tr| {
            let recording = std::mem::take(&mut tr.session).finish();
            let t = Instant::now();
            let chrome = recording.to_chrome_json();
            let export_ns = t.elapsed().as_nanos();
            let t = Instant::now();
            std::hint::black_box(Attribution::of(&recording));
            let attrib_ns = t.elapsed().as_nanos();
            if !workload_records {
                tr.push_obs(recording.len(), export_ns, attrib_ns);
            }
            tr.last_chrome = chrome;
        });
    }
}
