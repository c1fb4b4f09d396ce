//! `engine_detailed` and `engine_recorded`: the GME per-pair call mix
//! issued straight to an `AddressEngine` at `prototype_detailed`
//! fidelity, on consecutive rendered frames of every Table 3 clip.
//!
//! Per frame pair `(prev, cur)` the stream is the estimator's chain:
//! `Binomial3(cur)` (pyramid smoothing), `CentralGradient(cur)`,
//! `AbsDiff(prev, cur)` (the residual) and `AlphaMajority` over the
//! residual's inlier mask. `engine_recorded` attaches a `vip_obs`
//! session and also times `Session::finish`, Chrome-JSON export and
//! attribution: the `vipctl trace`/`report` job.

use std::time::Instant;

use vip_core::addressing::{inter::run_inter, intra::run_intra};
use vip_core::error::CoreResult;
use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::ops::arith::AbsDiff;
use vip_core::ops::filter::{Binomial3, CentralGradient};
use vip_core::ops::morph::AlphaMajority;
use vip_core::ops::{InterOp, IntraOp};
use vip_engine::report::keys;
use vip_engine::{AddressEngine, EngineConfig, EngineResult, EngineRun};
use vip_obs::{Attribution, Session, Track};
use vip_profiling::{software_call_seconds, CostModel};

use crate::calib::Reference;
use crate::gme::{describe_windows, PAPER_SPEEDUP};
use crate::inputs::{self, Window};
use crate::trace::Trace;
use crate::{engine_counts, timed_part, Modelled, Rep, Setup, Workload};

/// Frame pairs per clip: four pairs (sixteen calls) per repetition. The
/// simulated work does not depend on pixel values, so one pair per clip
/// suffices.
pub const PAIRS_PER_CLIP: usize = 1;

/// Calls issued per frame pair.
const CALLS_PER_PAIR: usize = 4;

/// Residuals above this are outliers: `GmeConfig::default()`'s threshold.
const OUTLIER_THRESHOLD: u8 = 48;

/// The `engine_detailed` / `engine_recorded` workload.
#[derive(Debug)]
pub struct EngineCalls {
    windows: Vec<Window>,
    recorded: bool,
    /// Per pair, the software AddressLib outputs of the four calls.
    reference: Vec<[CoreResult<Frame>; CALLS_PER_PAIR]>,
}

/// The inlier mask the estimator feeds `AlphaMajority`: alpha set where
/// the residual is at most the outlier threshold.
fn inlier_mask(residual: &Frame) -> Frame {
    Frame::from_fn(residual.dims(), |p| {
        let px = residual.get(p);
        px.with_alpha(u16::from(px.y <= OUTLIER_THRESHOLD))
    })
}

impl EngineCalls {
    /// Renders the seed's windows and builds a detailed engine.
    #[must_use]
    pub fn setup(seed: u64, dims: Dims, recorded: bool) -> (Self, Setup) {
        let t = Instant::now();
        let (windows, render_s) = inputs::render(seed, dims, 1, PAIRS_PER_CLIP + 1);
        std::hint::black_box(detailed_engine());
        let setup = Setup {
            seconds: t.elapsed().as_secs_f64(),
            render_s,
            frames: windows.iter().map(|w| w.frames.len()).sum(),
            scaled_seconds: 0.0,
        };
        let w = EngineCalls {
            windows,
            recorded,
            reference: Vec::new(),
        };
        (w, setup)
    }
}

fn detailed_engine() -> AddressEngine {
    AddressEngine::new(EngineConfig::prototype_detailed()).expect("prototype config is valid")
}

/// Issues one intra call; traced, also shadows it (see [`Trace`]).
fn intra(
    engine: &mut AddressEngine,
    frame: &Frame,
    op: &dyn IntraOp,
    trace: Option<&mut Trace>,
) -> EngineResult<EngineRun> {
    let Some(tr) = trace else {
        return engine.run_intra(frame, &op);
    };
    let run = tr.call("intra_call", || engine.run_intra(frame, &op));
    tr.shadow_intra(frame, op, run.as_ref().ok().map(|r| &r.output));
    run
}

/// The inter-call counterpart of [`intra`].
fn inter(
    engine: &mut AddressEngine,
    a: &Frame,
    b: &Frame,
    op: &dyn InterOp,
    trace: Option<&mut Trace>,
) -> EngineResult<EngineRun> {
    let Some(tr) = trace else {
        return engine.run_inter(a, b, &op);
    };
    let run = tr.call("inter_call", || engine.run_inter(a, b, &op));
    tr.shadow_inter(a, b, op, run.as_ref().ok().map(|r| &r.output));
    run
}

impl Workload for EngineCalls {
    fn describe(&self) -> Vec<String> {
        describe_windows(&self.windows)
    }

    fn records(&self) -> bool {
        self.recorded
    }

    fn prepare_checks(&mut self) {
        self.reference = self
            .windows
            .iter()
            .flat_map(Window::pairs)
            .map(|(prev, cur)| {
                let diff = run_inter(prev, cur, &AbsDiff::luma()).map(|r| r.output);
                let majority = diff
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|d| run_intra(&inlier_mask(d), &AlphaMajority::new()))
                    .map(|r| r.output);
                [
                    run_intra(cur, &Binomial3::new()).map(|r| r.output),
                    run_intra(cur, &CentralGradient::new()).map(|r| r.output),
                    diff,
                    majority,
                ]
            })
            .collect();
    }

    fn rep(&mut self, clock: &mut Reference, mut trace: Option<&mut Trace>) -> Rep {
        let mut engine = detailed_engine();
        let session = self.recorded.then(Session::new);
        if let Some(s) = &session {
            engine.set_recorder(s.recorder());
        }
        let pairs: Vec<(&Frame, &Frame)> = self.windows.iter().flat_map(Window::pairs).collect();
        let mut runs: Vec<EngineResult<EngineRun>> =
            Vec::with_capacity(pairs.len() * CALLS_PER_PAIR);
        let mut rep = Rep {
            pairs: pairs.len() as u64,
            ..Rep::default()
        };
        // One timed part per frame pair, and one for the recording's
        // finish, export and attribution.
        for (k, &(prev, cur)) in pairs.iter().enumerate() {
            timed_part(&mut rep, clock, &mut trace, |trace| {
                let start = trace.as_ref().map_or(0, |t| t.now_ns());
                let e = &mut engine;
                runs.push(intra(e, cur, &Binomial3::new(), trace.as_deref_mut()));
                runs.push(intra(e, cur, &CentralGradient::new(), trace.as_deref_mut()));
                let diff = inter(e, prev, cur, &AbsDiff::luma(), trace.as_deref_mut());
                // A failed residual is counted below; the reference residual
                // keeps the stream going.
                let residual = match (&diff, &self.reference[k][2]) {
                    (Ok(run), _) => &run.output,
                    (Err(_), Ok(reference)) => reference,
                    (Err(_), Err(_)) => cur,
                };
                let mask = inlier_mask(residual);
                runs.push(diff);
                runs.push(intra(e, &mask, &AlphaMajority::new(), trace.as_deref_mut()));
                if let Some(tr) = trace.as_deref() {
                    tr.span_since(Track::Gme, "pair", start);
                }
            });
        }
        if let Some(session) = session {
            timed_part(&mut rep, clock, &mut trace, |trace| {
                let t_finish = Instant::now();
                let recording = session.finish();
                let finish_ns = t_finish.elapsed().as_nanos();
                let t_export = Instant::now();
                std::hint::black_box(recording.to_chrome_json());
                let export_ns = t_export.elapsed().as_nanos();
                let t_attrib = Instant::now();
                std::hint::black_box(Attribution::of(&recording));
                let attrib_ns = t_attrib.elapsed().as_nanos();
                if let Some(tr) = trace.as_deref_mut() {
                    tr.workload_obs(recording.len(), finish_ns, export_ns, attrib_ns);
                }
            });
        }
        rep.attempted = runs.len() as u64;
        let cost_model = CostModel::pentium_m_xm();
        let mut pm = 0.0;
        for (k, run) in runs.iter().enumerate() {
            let reference = &self.reference[k / CALLS_PER_PAIR][k % CALLS_PER_PAIR];
            if let Ok(run) = run {
                let dims = run.output.dims();
                pm += software_call_seconds(&run.report.descriptor, dims, &cost_model);
            }
            match (run, reference) {
                (Ok(run), Ok(reference)) if run.output == *reference => {}
                _ => rep.failed += 1,
            }
        }
        let registry = engine.metrics();
        rep.sim_cycles = registry.counter(keys::PU_CYCLES) as f64;
        rep.counts = engine_counts(registry, rep.sim_cycles);
        rep.counts.insert("gme.iterations", 0.0);
        let speedup = pm / engine.stats().busy_seconds;
        // The stream mixes all four clips: compare with the paper's mean.
        let paper = PAPER_SPEEDUP.iter().map(|(_, s)| s).sum::<f64>() / PAPER_SPEEDUP.len() as f64;
        rep.modelled = Modelled {
            speedup,
            err_vs_paper: ((speedup - paper) / paper).abs(),
            gt_err_px: f64::NAN,
        };
        rep
    }
}
