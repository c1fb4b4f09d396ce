//! `gme_table3`: the path Table 3 runs. `SequenceRunner::run` with the
//! default estimator on the prototype (`Analytic`) engine backend, one
//! fresh backend per window, over the seed's windows of every Table 3
//! clip.

use std::time::Instant;

use vip_core::error::CoreResult;
use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::ops::{InterOp, IntraOp};
use vip_engine::EngineConfig;
use vip_gme::{
    CallTally, EngineBackend, GmeBackend, GmeConfig, Motion, SequenceReport, SequenceRunner,
    SoftwareBackend,
};
use vip_obs::{Registry, Track};

use crate::calib::Reference;
use crate::inputs::{self, Window};
use crate::trace::Trace;
use crate::{engine_counts, timed_part, Modelled, Rep, Setup, Workload};

/// Windows per clip and frames per window: two frame pairs per window,
/// twenty-four per repetition. The estimator's work depends on the
/// frames, so a repetition samples every third of every clip to keep
/// the seed's effect on host time small.
pub const WINDOWS_PER_CLIP: usize = 3;
/// See [`WINDOWS_PER_CLIP`].
pub const FRAMES_PER_WINDOW: usize = 3;

/// The paper's Table 3 speed-ups (Time in PM / Time in FPGA).
pub const PAPER_SPEEDUP: [(&str, f64); 4] = [
    ("singapore", 275.0 / 64.0),
    ("dome", 328.0 / 73.0),
    ("pisa", 745.0 / 141.0),
    ("movie", 322.0 / 65.0),
];

/// The `gme_table3` workload.
#[derive(Debug)]
pub struct GmeTable3 {
    windows: Vec<Window>,
    /// Per window, the `relative` motion of each pair on `SoftwareBackend`.
    reference: Vec<Vec<Motion>>,
}

impl GmeTable3 {
    /// Renders the seed's windows and builds a backend, as a run must
    /// before its first estimate.
    #[must_use]
    pub fn setup(seed: u64, dims: Dims) -> (Self, Setup) {
        let t = Instant::now();
        let (windows, render_s) = inputs::render(seed, dims, WINDOWS_PER_CLIP, FRAMES_PER_WINDOW);
        std::hint::black_box(EngineBackend::prototype());
        let setup = Setup {
            seconds: t.elapsed().as_secs_f64(),
            render_s,
            frames: windows.iter().map(|w| w.frames.len()).sum(),
            scaled_seconds: 0.0,
        };
        let w = GmeTable3 {
            windows,
            reference: Vec::new(),
        };
        (w, setup)
    }
}

/// Forwards every call to the engine backend, timing it, and shadows it
/// with `vip-core` and the `Analytic` twin on the same inputs.
struct TracedBackend<'a> {
    inner: &'a mut EngineBackend,
    trace: &'a mut Trace,
}

impl GmeBackend for TracedBackend<'_> {
    fn intra(&mut self, frame: &Frame, op: &dyn IntraOp) -> CoreResult<Frame> {
        let out = self
            .trace
            .call("intra_call", || self.inner.intra(frame, op));
        self.trace.shadow_intra(frame, op, out.as_ref().ok());
        out
    }

    fn inter(&mut self, a: &Frame, b: &Frame, op: &dyn InterOp) -> CoreResult<Frame> {
        let out = self.trace.call("inter_call", || self.inner.inter(a, b, op));
        self.trace.shadow_inter(a, b, op, out.as_ref().ok());
        out
    }

    fn tally(&self) -> CallTally {
        self.inner.tally()
    }

    fn modelled_seconds(&self) -> f64 {
        self.inner.modelled_seconds()
    }

    fn pm_modelled_seconds(&self) -> f64 {
        self.inner.pm_modelled_seconds()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Workload for GmeTable3 {
    fn describe(&self) -> Vec<String> {
        describe_windows(&self.windows)
    }

    fn prepare_checks(&mut self) {
        let runner = SequenceRunner::new(GmeConfig::default());
        self.reference = self
            .windows
            .iter()
            .map(|w| {
                runner
                    .run(w.frames.iter().cloned(), &mut SoftwareBackend::new())
                    .map(|r| r.records.iter().map(|rec| rec.relative).collect())
                    .unwrap_or_default()
            })
            .collect();
    }

    fn rep(&mut self, clock: &mut Reference, mut trace: Option<&mut Trace>) -> Rep {
        let runner = SequenceRunner::new(GmeConfig::default());
        let mut rep = Rep::default();
        let mut registry = Registry::new();
        let mut results: Vec<CoreResult<SequenceReport>> = Vec::new();
        for w in &self.windows {
            // Like a Table 3 row: a fresh backend, built outside the timing.
            let mut backend = EngineBackend::prototype();
            let frames = w.frames.iter().cloned();
            let result = timed_part(&mut rep, clock, &mut trace, |trace| match trace {
                None => runner.run(frames, &mut backend),
                Some(tr) => {
                    let start = tr.now_ns();
                    let mut traced = TracedBackend {
                        inner: &mut backend,
                        trace: tr,
                    };
                    let r = runner.run(frames, &mut traced);
                    tr.span_since(Track::Gme, "window", start);
                    r
                }
            });
            registry.merge(backend.engine().metrics());
            results.push(result);
        }

        let (mut iterations, mut gt_sum) = (0u64, 0.0);
        // Per clip: Pentium-M seconds and engine seconds of its windows.
        let mut clip_seconds = PAPER_SPEEDUP.map(|_| (0.0, 0.0));
        for ((w, result), reference) in self.windows.iter().zip(&results).zip(&self.reference) {
            let pairs = (w.frames.len() - 1) as u64;
            rep.pairs += pairs;
            rep.attempted += pairs;
            let Ok(report) = result else {
                rep.failed += pairs;
                continue;
            };
            rep.failed += pairs - report.records.len() as u64;
            for (k, rec) in report.records.iter().enumerate() {
                if reference.get(k) != Some(&rec.relative) {
                    rep.failed += 1;
                }
                iterations += rec.gme.iterations as u64;
                let truth = w.seq.script().ground_truth(w.start + rec.index - 1);
                let (dx, dy) = rec.relative.translation_part();
                gt_sum += (dx - truth.dx).hypot(dy - truth.dy);
            }
            if let Some(i) = PAPER_SPEEDUP
                .iter()
                .position(|(name, _)| *name == w.seq.name())
            {
                clip_seconds[i].0 += report.pm_seconds;
                clip_seconds[i].1 += report.backend_seconds;
            }
        }
        let (pm, busy) = clip_seconds
            .iter()
            .fold((0.0, 0.0), |(p, b), &(cp, cb)| (p + cp, b + cb));
        let speedup_err = clip_seconds
            .iter()
            .zip(PAPER_SPEEDUP)
            .map(|(&(cp, cb), (_, paper))| ((cp / cb - paper) / paper).abs())
            .sum::<f64>()
            / PAPER_SPEEDUP.len() as f64;
        // `Analytic` fidelity steps no cycles: the simulated cycles are the
        // engine-clock cycles of the modelled call time.
        let engine_hz = EngineConfig::prototype().engine_clock.hz;
        rep.sim_cycles =
            (registry.gauge(vip_engine::report::keys::BUSY_SECONDS) * engine_hz).round();
        rep.counts = engine_counts(&registry, rep.sim_cycles);
        rep.counts.insert("gme.iterations", iterations as f64);
        rep.modelled = Modelled {
            speedup: pm / busy,
            err_vs_paper: speedup_err,
            gt_err_px: gt_sum / rep.pairs as f64,
        };
        rep
    }
}

/// One line per clip window: which frames the seed picked.
pub fn describe_windows(windows: &[Window]) -> Vec<String> {
    windows
        .iter()
        .map(|w| {
            format!(
                "input: {} frames {}..{} of {} at {}x{}",
                w.seq.name(),
                w.start,
                w.start + w.frames.len(),
                w.seq.frame_count(),
                w.seq.dims().width,
                w.seq.dims().height
            )
        })
        .collect()
}
