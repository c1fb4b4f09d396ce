//! Global motion estimation: hierarchical Gauss-Newton minimisation of
//! the luminance difference between a warped current frame and the
//! reference frame, in the style of the MPEG-7 eXperimentation Model's
//! GME used by the paper (§4.3, ref. \[6\]).
//!
//! The estimator is split along the paper's hardware/software boundary:
//! high-level control (parameter updates, normal equations, coordinate
//! arithmetic) runs on the host, while every whole-frame pixel pass —
//! pyramid smoothing, gradient computation, residual evaluation, outlier
//! mask clean-up — is an AddressLib call dispatched through a
//! [`GmeBackend`].
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::pixel::Pixel;
//! use vip_gme::backend::SoftwareBackend;
//! use vip_gme::estimate::{Estimator, GmeConfig};
//! use vip_gme::model::Motion;
//! use vip_gme::warp::warp_frame;
//!
//! // A textured reference and a shifted current frame.
//! let reference = Frame::from_fn(Dims::new(64, 64), |p| {
//!     Pixel::from_luma(((p.x * 7 + p.y * 13) % 200) as u8)
//! });
//! let current = warp_frame(&reference, &Motion::translation(-2.0, 0.0)).frame;
//!
//! let mut backend = SoftwareBackend::new();
//! let estimator = Estimator::new(GmeConfig::default());
//! let result = estimator.estimate(&reference, &current, Motion::identity(), &mut backend)?;
//! let (dx, _) = result.motion.translation_part();
//! assert!((dx - 2.0).abs() < 0.5, "recovered dx = {dx}");
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use vip_core::error::{CoreError, CoreResult};
use vip_core::frame::Frame;
use vip_core::ops::arith::AbsDiff;
use vip_core::ops::filter::CentralGradient;
use vip_core::ops::morph::AlphaMajority;
use vip_engine::timing::seconds_to_ns;
use vip_obs::{Recorder, Track};

use crate::backend::GmeBackend;
use crate::model::{solve_linear, Motion, MotionModel};
use crate::pyramid::{level_scale, Pyramid};
use crate::warp::{centre_of, warp_frame_sampled};

/// Estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmeConfig {
    /// Motion model family to fit.
    pub model: MotionModel,
    /// Pyramid levels (coarse-to-fine).
    pub levels: usize,
    /// Maximum Gauss-Newton iterations per level.
    pub max_iterations: usize,
    /// Convergence threshold: mean parameter-induced displacement (px).
    pub epsilon: f64,
    /// Residuals above this magnitude are treated as outliers.
    pub outlier_threshold: f64,
    /// Accumulate normal equations from every `subsample`-th pixel in
    /// each direction (1 = all pixels).
    pub subsample: usize,
}

impl Default for GmeConfig {
    fn default() -> Self {
        GmeConfig {
            model: MotionModel::Affine,
            levels: 3,
            max_iterations: 4,
            epsilon: 0.03,
            outlier_threshold: 48.0,
            subsample: 1,
        }
    }
}

impl GmeConfig {
    /// A translational-only configuration (fast, for tests and demos).
    #[must_use]
    pub fn translational() -> Self {
        GmeConfig {
            model: MotionModel::Translational,
            ..GmeConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for zero levels,
    /// iterations or subsample.
    pub fn validate(&self) -> CoreResult<()> {
        if self.levels == 0 {
            return Err(CoreError::InvalidParameter {
                name: "levels",
                reason: "at least one pyramid level required",
            });
        }
        if self.max_iterations == 0 {
            return Err(CoreError::InvalidParameter {
                name: "max_iterations",
                reason: "at least one iteration required",
            });
        }
        if self.subsample == 0 {
            return Err(CoreError::InvalidParameter {
                name: "subsample",
                reason: "subsample must be at least 1",
            });
        }
        Ok(())
    }
}

/// The result of estimating one frame pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GmeResult {
    /// Estimated motion mapping reference coordinates to current-frame
    /// coordinates (centred).
    pub motion: Motion,
    /// Mean absolute luminance residual over valid pixels after
    /// convergence.
    pub residual: f64,
    /// Gauss-Newton iterations actually performed (all levels).
    pub iterations: usize,
    /// Fraction of pixels that survived warping + outlier rejection in
    /// the final iteration.
    pub inlier_fraction: f64,
}

/// The hierarchical global motion estimator.
#[derive(Debug, Clone, Default)]
pub struct Estimator {
    config: GmeConfig,
    recorder: Recorder,
}

impl Estimator {
    /// Creates an estimator.
    #[must_use]
    pub fn new(config: GmeConfig) -> Self {
        Estimator {
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: estimation runs emit
    /// per-pyramid-level spans on the GME track, timed on the backend's
    /// modelled clock.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &GmeConfig {
        &self.config
    }

    /// Estimates the motion from `reference` to `current`, starting from
    /// `initial` (use the previous frame's motion for warm starts).
    ///
    /// # Errors
    ///
    /// Returns AddressLib errors for invalid frames and
    /// [`CoreError::InvalidParameter`] for invalid configurations.
    pub fn estimate(
        &self,
        reference: &Frame,
        current: &Frame,
        initial: Motion,
        backend: &mut dyn GmeBackend,
    ) -> CoreResult<GmeResult> {
        self.config.validate()?;
        if reference.dims() != current.dims() {
            return Err(CoreError::DimsMismatch {
                left: reference.dims(),
                right: current.dims(),
            });
        }
        let t0 = modelled_ns(backend);
        let ref_pyr = Pyramid::build(reference, self.config.levels, backend)?;
        let cur_pyr = Pyramid::build(current, self.config.levels, backend)?;
        self.recorder.span(
            Track::Gme,
            "pyramid_build",
            t0,
            modelled_ns(backend),
            &[("levels", (self.config.levels as u64).into())],
        );
        self.estimate_with_pyramids(&ref_pyr, &cur_pyr, initial, backend)
    }

    /// Estimates using prebuilt pyramids (lets sequence runners reuse the
    /// previous frame's pyramid, as XM does).
    ///
    /// # Errors
    ///
    /// Returns AddressLib errors surfaced by the backend calls.
    pub fn estimate_with_pyramids(
        &self,
        ref_pyr: &Pyramid,
        cur_pyr: &Pyramid,
        initial: Motion,
        backend: &mut dyn GmeBackend,
    ) -> CoreResult<GmeResult> {
        self.config.validate()?;
        let levels = ref_pyr.levels().min(cur_pyr.levels());
        let top = levels - 1;
        let mut motion = initial.scaled_down(level_scale(top));
        let mut total_iters = 0usize;
        let mut last_residual = f64::INFINITY;
        let mut last_inliers = 0.0f64;
        // The warp's bilinear samples, reused by the step accumulation
        // and across iterations (sized by the finest level).
        let mut samples = Vec::new();

        for li in (0..levels).rev() {
            let ref_level = ref_pyr.level(li);
            let cur_level = cur_pyr.level(li);
            let level_t0 = modelled_ns(backend);
            let level_iters_before = total_iters;
            // AddressLib intra call: spatial gradients of the current
            // level (signed central differences into y/aux).
            let grad = backend.intra(cur_level, &CentralGradient::new())?;

            for _ in 0..self.config.max_iterations {
                total_iters += 1;
                // warp(cur, motion): output(p) = cur(motion(p)) ≈ ref(p).
                let warped = warp_frame_sampled(cur_level, &motion, &mut samples);
                // AddressLib inter call: residual magnitude image — the
                // convergence measure XM evaluates per iteration.
                let residual_img = backend.inter(ref_level, &warped.frame, &AbsDiff::luma())?;
                // AddressLib intra call: clean the inlier mask
                // (majority vote removes speckle outliers).
                let inliers =
                    tag_inliers(residual_img, &warped.frame, self.config.outlier_threshold);
                let mask = backend.intra(&inliers, &AlphaMajority::new())?;

                let step = self.accumulate_step(ref_level, &grad, &mask, &samples, &motion);
                let Some((delta, stats)) = step else { break };
                last_residual = stats.mean_residual;
                last_inliers = stats.inlier_fraction;
                motion = apply_delta(&motion, &delta, self.config.model);
                if stats.mean_displacement(&delta) < self.config.epsilon {
                    break;
                }
            }

            self.recorder.span(
                Track::Gme,
                "pyramid_level",
                level_t0,
                modelled_ns(backend),
                &[
                    ("level", (li as u64).into()),
                    ("iterations", ((total_iters - level_iters_before) as u64).into()),
                ],
            );
            if li > 0 {
                motion = motion.scaled_up(2.0);
            }
        }

        Ok(GmeResult {
            motion,
            residual: if last_residual.is_finite() { last_residual } else { 0.0 },
            iterations: total_iters,
            inlier_fraction: last_inliers,
        })
    }

    /// Accumulates one Gauss-Newton step from the warp's bilinear
    /// `samples` of the current level (row-major, `None` where the warp
    /// is invalid). Returns `None` when the system is singular or no
    /// inliers survive.
    fn accumulate_step(
        &self,
        ref_level: &Frame,
        grad: &Frame,
        mask: &Frame,
        samples: &[Option<f64>],
        motion: &Motion,
    ) -> Option<(Vec<f64>, StepStats)> {
        let np = self.config.model.parameter_count();
        let mut ata = [[0.0f64; 8]; 8];
        let mut atb = [0.0f64; 8];
        let (cx, cy) = centre_of(ref_level.dims());
        let width = ref_level.width();
        // The gradient frame has the current level's dims.
        let gx_max = grad.width().saturating_sub(1) as f64;
        let gy_max = grad.height().saturating_sub(1) as f64;
        let mut n = 0usize;
        let mut considered = 0usize;
        let mut resid_sum = 0.0f64;
        let step = self.config.subsample;

        let mut jac = [0.0f64; 8];
        for py in (1..ref_level.height().saturating_sub(1)).step_by(step) {
            let ref_line = ref_level.line(py);
            let mask_line = mask.line(py);
            let sample_line = &samples[py * width..(py + 1) * width];
            for px in (1..width.saturating_sub(1)).step_by(step) {
                considered += 1;
                if mask_line[px].alpha == 0 {
                    continue;
                }
                let x = px as f64 - cx;
                let y = py as f64 - cy;
                let (wx, wy) = motion.apply(x, y);
                let Some(cur_val) = sample_line[px] else {
                    continue;
                };
                let r = cur_val - f64::from(ref_line[px].y);
                if r.abs() > self.config.outlier_threshold {
                    continue;
                }
                // Gradient of the current level, sampled at the warped
                // position (nearest sample of the backend gradient call).
                let gxi = (wx + cx).round().clamp(0.0, gx_max) as usize;
                let gyi = (wy + cy).round().clamp(0.0, gy_max) as usize;
                let (gx, gy) = CentralGradient::decode(grad.line(gyi)[gxi]);
                let (gx, gy) = (f64::from(gx), f64::from(gy));

                fill_jacobian(&mut jac, self.config.model, x, y, wx, wy, gx, gy, motion);
                for i in 0..np {
                    for j in i..np {
                        ata[i][j] += jac[i] * jac[j];
                    }
                    atb[i] -= jac[i] * r;
                }
                resid_sum += r.abs();
                n += 1;
            }
        }
        if n < np * 4 {
            return None;
        }
        #[allow(clippy::needless_range_loop)] // symmetric-matrix fill reads ata[j][i]
        for i in 0..np {
            for j in 0..i {
                ata[i][j] = ata[j][i];
            }
            // Levenberg damping for stability.
            ata[i][i] *= 1.0 + 1e-4;
            ata[i][i] += 1e-9;
        }
        let mut a: Vec<Vec<f64>> = ata[..np].iter().map(|row| row[..np].to_vec()).collect();
        let delta = solve_linear(&mut a, &mut atb[..np])?;
        Some((
            delta,
            StepStats {
                mean_residual: resid_sum / n as f64,
                inlier_fraction: n as f64 / considered.max(1) as f64,
            },
        ))
    }
}

/// The backend's modelled clock as virtual nanoseconds — the shared
/// timebase of the GME track (spans inherit the backend's timing model,
/// so engine-backed runs line up with the engine's own trace windows).
pub(crate) fn modelled_ns(backend: &dyn GmeBackend) -> u64 {
    seconds_to_ns(backend.modelled_seconds())
}

/// Per-step statistics.
#[derive(Debug, Clone, Copy)]
struct StepStats {
    mean_residual: f64,
    inlier_fraction: f64,
}

impl StepStats {
    /// Mean displacement induced by a parameter delta (rough: the
    /// translation components dominate).
    fn mean_displacement(&self, delta: &[f64]) -> f64 {
        match delta.len() {
            2 => (delta[0].powi(2) + delta[1].powi(2)).sqrt(),
            6 => (delta[2].powi(2) + delta[5].powi(2)).sqrt()
                + 30.0 * (delta[0].abs() + delta[1].abs() + delta[3].abs() + delta[4].abs()),
            8 => {
                (delta[2].powi(2) + delta[5].powi(2)).sqrt()
                    + 30.0 * (delta[0].abs() + delta[1].abs() + delta[3].abs() + delta[4].abs())
                    + 900.0 * (delta[6].abs() + delta[7].abs())
            }
            _ => f64::INFINITY,
        }
    }
}

/// Marks inliers (|residual| ≤ threshold on valid warp pixels) in the
/// alpha channel of the residual image, for the majority-vote clean-up
/// call.
fn tag_inliers(mut residual: Frame, warped: &Frame, threshold: f64) -> Frame {
    for (px, w) in residual.pixels_mut().iter_mut().zip(warped.pixels()) {
        let inlier = w.alpha != 0 && f64::from(px.y) <= threshold;
        px.alpha = u16::from(inlier);
    }
    residual
}

/// Writes the Jacobian row of the chosen model at centred point `(x, y)`
/// with image gradients `(gx, gy)` sampled at the warped position.
#[allow(clippy::too_many_arguments)]
fn fill_jacobian(
    jac: &mut [f64],
    model: MotionModel,
    x: f64,
    y: f64,
    wx: f64,
    wy: f64,
    gx: f64,
    gy: f64,
    motion: &Motion,
) {
    match model {
        MotionModel::Translational => {
            jac[0] = gx;
            jac[1] = gy;
        }
        MotionModel::Affine => {
            jac[0] = gx * x;
            jac[1] = gx * y;
            jac[2] = gx;
            jac[3] = gy * x;
            jac[4] = gy * y;
            jac[5] = gy;
        }
        MotionModel::Perspective => {
            let h = &motion.h;
            let w = h[6] * x + h[7] * y + 1.0;
            let w = if w.abs() < 1e-9 { 1e-9 } else { w };
            jac[0] = gx * x / w;
            jac[1] = gx * y / w;
            jac[2] = gx / w;
            jac[3] = gy * x / w;
            jac[4] = gy * y / w;
            jac[5] = gy / w;
            jac[6] = -(gx * wx + gy * wy) * x / w;
            jac[7] = -(gx * wx + gy * wy) * y / w;
        }
    }
}

/// Applies a parameter delta to the motion (additive update).
fn apply_delta(motion: &Motion, delta: &[f64], model: MotionModel) -> Motion {
    let mut h = motion.h;
    match model {
        MotionModel::Translational => {
            h[2] += delta[0];
            h[5] += delta[1];
        }
        MotionModel::Affine => {
            h[0] += delta[0];
            h[1] += delta[1];
            h[2] += delta[2];
            h[3] += delta[3];
            h[4] += delta[4];
            h[5] += delta[5];
        }
        MotionModel::Perspective => {
            for (hi, di) in h.iter_mut().zip(delta) {
                *hi += di;
            }
        }
    }
    Motion { h }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SoftwareBackend;
    use crate::warp::warp_frame;
    use vip_core::geometry::Dims;
    use vip_core::pixel::Pixel;

    fn textured(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            let x = p.x as f64;
            let y = p.y as f64;
            let v = 110.0
                + 60.0 * ((x / 7.0).sin() * (y / 9.0).cos())
                + 40.0 * ((x / 23.0 + y / 17.0).sin());
            Pixel::from_luma(v.clamp(0.0, 255.0) as u8)
        })
    }

    /// Renders the current frame as the reference warped by `true_motion`
    /// (current = ref content moved by the motion).
    fn make_pair(dims: Dims, true_motion: &Motion) -> (Frame, Frame) {
        let reference = textured(dims);
        // current(p) = reference(inv(true)(p)): content moves BY true.
        let current = warp_frame(&reference, &true_motion.inverse().unwrap()).frame;
        (reference, current)
    }

    fn recover(dims: Dims, true_motion: &Motion, config: GmeConfig) -> (Motion, GmeResult) {
        let (reference, current) = make_pair(dims, true_motion);
        let mut backend = SoftwareBackend::new();
        let est = Estimator::new(config);
        let r = est
            .estimate(&reference, &current, Motion::identity(), &mut backend)
            .unwrap();
        (r.motion, r)
    }

    #[test]
    fn recovers_pure_translation() {
        let truth = Motion::translation(3.0, -2.0);
        let (m, r) = recover(Dims::new(96, 80), &truth, GmeConfig::translational());
        let err = m.displacement_error(&truth, 96.0, 80.0);
        assert!(err < 0.35, "error {err}, got {m}");
        assert!(r.iterations >= 2);
        assert!(r.inlier_fraction > 0.6);
    }

    #[test]
    fn recovers_affine_zoom() {
        let truth = Motion::similarity(1.03, 0.0, 1.0, 0.5);
        let (m, _) = recover(Dims::new(96, 96), &truth, GmeConfig::default());
        let err = m.displacement_error(&truth, 96.0, 96.0);
        assert!(err < 0.4, "error {err}, got {m}");
    }

    #[test]
    fn recovers_small_rotation() {
        let truth = Motion::similarity(1.0, 0.02, -1.5, 1.0);
        let (m, _) = recover(Dims::new(96, 96), &truth, GmeConfig::default());
        let err = m.displacement_error(&truth, 96.0, 96.0);
        assert!(err < 0.4, "error {err}, got {m}");
    }

    #[test]
    fn perspective_model_runs_and_recovers_affine_truth() {
        let truth = Motion::translation(2.0, 1.0);
        let cfg = GmeConfig {
            model: MotionModel::Perspective,
            ..GmeConfig::default()
        };
        let (m, _) = recover(Dims::new(96, 96), &truth, cfg);
        let err = m.displacement_error(&truth, 96.0, 96.0);
        assert!(err < 0.6, "error {err}, got {m}");
    }

    #[test]
    fn identity_pair_stays_near_identity() {
        let truth = Motion::identity();
        let (m, r) = recover(Dims::new(64, 64), &truth, GmeConfig::default());
        assert!(m.displacement_error(&truth, 64.0, 64.0) < 0.1, "{m}");
        assert!(r.residual < 2.0);
    }

    #[test]
    fn warm_start_converges_faster() {
        let truth = Motion::translation(4.0, 3.0);
        let (reference, current) = make_pair(Dims::new(96, 96), &truth);
        let est = Estimator::new(GmeConfig::translational());
        let mut b1 = SoftwareBackend::new();
        let cold = est
            .estimate(&reference, &current, Motion::identity(), &mut b1)
            .unwrap();
        let mut b2 = SoftwareBackend::new();
        let warm = est
            .estimate(&reference, &current, truth, &mut b2)
            .unwrap();
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn backend_call_pattern() {
        let truth = Motion::translation(1.0, 0.0);
        let (reference, current) = make_pair(Dims::new(64, 64), &truth);
        let mut backend = SoftwareBackend::new();
        let est = Estimator::new(GmeConfig::default());
        let _ = est
            .estimate(&reference, &current, Motion::identity(), &mut backend)
            .unwrap();
        let t = backend.tally();
        assert!(t.intra > 0, "pyramids + gradients + masks are intra calls");
        assert!(t.inter > 0, "residual evaluations are inter calls");
        // The paper's workload is intra-heavy (Table 3: ≈1.4×).
        let ratio = t.intra as f64 / t.inter as f64;
        assert!(ratio > 0.8 && ratio < 3.5, "intra:inter ratio {ratio}");
    }

    #[test]
    fn recorder_captures_pyramid_levels() {
        let truth = Motion::translation(1.0, 0.0);
        let (reference, current) = make_pair(Dims::new(64, 64), &truth);
        let session = vip_obs::Session::new();
        let mut backend = SoftwareBackend::new();
        let est = Estimator::new(GmeConfig::default()).with_recorder(session.recorder());
        est.estimate(&reference, &current, Motion::identity(), &mut backend)
            .unwrap();
        let recording = session.finish();
        let gme = recording.on_track(Track::Gme);
        assert!(gme.iter().any(|e| e.name == "pyramid_build"));
        assert_eq!(
            gme.iter().filter(|e| e.name == "pyramid_level").count(),
            GmeConfig::default().levels
        );
        // Spans ride the backend's modelled clock, so they nest inside it.
        let end = modelled_ns(&backend);
        assert!(gme.iter().all(|e| e.end_ns() <= end));
    }

    #[test]
    fn mismatched_dims_rejected() {
        let a = textured(Dims::new(32, 32));
        let b = textured(Dims::new(64, 32));
        let mut backend = SoftwareBackend::new();
        let est = Estimator::new(GmeConfig::default());
        assert!(matches!(
            est.estimate(&a, &b, Motion::identity(), &mut backend),
            Err(CoreError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        for cfg in [
            GmeConfig { levels: 0, ..GmeConfig::default() },
            GmeConfig { max_iterations: 0, ..GmeConfig::default() },
            GmeConfig { subsample: 0, ..GmeConfig::default() },
        ] {
            let f = textured(Dims::new(32, 32));
            let mut backend = SoftwareBackend::new();
            assert!(Estimator::new(cfg)
                .estimate(&f, &f, Motion::identity(), &mut backend)
                .is_err());
        }
    }

    #[test]
    fn subsampling_still_converges() {
        let truth = Motion::translation(2.0, -1.0);
        let cfg = GmeConfig {
            subsample: 2,
            ..GmeConfig::translational()
        };
        let (m, _) = recover(Dims::new(96, 96), &truth, cfg);
        assert!(m.displacement_error(&truth, 96.0, 96.0) < 0.5, "{m}");
    }
}
