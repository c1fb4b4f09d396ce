//! Frame warping under a global motion model, with bilinear
//! interpolation and validity masking.
//!
//! Warping is the host-side geometric step of the GME loop (the
//! coordinate arithmetic the AddressLib's structured addressing cannot
//! express); the subsequent pixel-wise comparison *is* an AddressLib
//! inter call and goes through the backend.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::pixel::Pixel;
//! use vip_gme::model::Motion;
//! use vip_gme::warp::warp_frame;
//!
//! let f = Frame::filled(Dims::new(16, 16), Pixel::from_luma(80));
//! let w = warp_frame(&f, &Motion::translation(2.0, 0.0));
//! assert_eq!(w.frame.dims(), f.dims());
//! ```

use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::pixel::Pixel;

use crate::model::Motion;

/// A warped frame plus its validity mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Warped {
    /// The warped frame; invalid pixels are black with `alpha = 0`.
    pub frame: Frame,
    /// Number of valid (in-source) pixels.
    pub valid: usize,
}

impl Warped {
    /// Fraction of the frame covered by valid pixels.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.frame.pixel_count() == 0 {
            return 0.0;
        }
        self.valid as f64 / self.frame.pixel_count() as f64
    }
}

/// Samples `frame`'s luminance at real coordinates with bilinear
/// interpolation. Returns `None` outside the frame.
#[must_use]
pub fn sample_bilinear(frame: &Frame, x: f64, y: f64) -> Option<f64> {
    let w = frame.width() as f64;
    let h = frame.height() as f64;
    if x < 0.0 || y < 0.0 || x > w - 1.0 || y > h - 1.0 {
        return None;
    }
    let x0 = x.floor();
    let y0 = y.floor();
    let tx = x - x0;
    let ty = y - y0;
    // In range, so the floors are valid indices; the +1 neighbours clamp
    // to the last column and line.
    let (xi, yi) = (x0 as usize, y0 as usize);
    let xj = (xi + 1).min(frame.width() - 1);
    let top = frame.line(yi);
    let bottom = frame.line((yi + 1).min(frame.height() - 1));
    let at = |line: &[Pixel], x: usize| f64::from(line[x].y);
    let a = at(top, xi) + (at(top, xj) - at(top, xi)) * tx;
    let b = at(bottom, xi) + (at(bottom, xj) - at(bottom, xi)) * tx;
    Some(a + (b - a) * ty)
}

/// Centre of a frame (the origin of the centred motion coordinates).
#[must_use]
pub fn centre_of(dims: Dims) -> (f64, f64) {
    (dims.width as f64 / 2.0, dims.height as f64 / 2.0)
}

/// Warps `src` by `motion`: output pixel `p` takes the value of
/// `src` at `motion(p)` (centred coordinates). Pixels mapping outside
/// the source get `alpha = 0`; valid pixels get `alpha = 1`.
#[must_use]
pub fn warp_frame(src: &Frame, motion: &Motion) -> Warped {
    warp_frame_sampled(src, motion, &mut Vec::new())
}

/// [`warp_frame`], also leaving in `samples` the unrounded bilinear
/// sample behind every output pixel in row-major order (`None` where the
/// warp is invalid). `samples` is cleared first, so one buffer serves
/// every iteration of an estimate without reallocating.
#[must_use]
pub fn warp_frame_sampled(src: &Frame, motion: &Motion, samples: &mut Vec<Option<f64>>) -> Warped {
    let dims = src.dims();
    let (cx, cy) = centre_of(dims);
    let mut frame = Frame::new(dims);
    let mut valid = 0usize;
    samples.clear();
    samples.reserve(dims.pixel_count());
    for y in 0..dims.height {
        let yc = y as f64 - cy;
        for (x, out) in frame.line_mut(y).iter_mut().enumerate() {
            let (mx, my) = motion.apply(x as f64 - cx, yc);
            let sample = sample_bilinear(src, mx + cx, my + cy);
            samples.push(sample);
            *out = match sample {
                Some(v) => {
                    valid += 1;
                    Pixel::from_luma(v.round().clamp(0.0, 255.0) as u8).with_alpha(1)
                }
                None => Pixel::BLACK.with_alpha(0),
            };
        }
    }
    Warped { frame, valid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::Point;

    fn ramp(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| Pixel::from_luma((p.x * 10) as u8))
    }

    #[test]
    fn bilinear_exact_at_integers() {
        let f = ramp(Dims::new(8, 8));
        assert_eq!(sample_bilinear(&f, 3.0, 2.0), Some(30.0));
    }

    #[test]
    fn bilinear_interpolates_halfway() {
        let f = ramp(Dims::new(8, 8));
        assert_eq!(sample_bilinear(&f, 2.5, 4.0), Some(25.0));
    }

    #[test]
    fn bilinear_outside_is_none() {
        let f = ramp(Dims::new(8, 8));
        assert_eq!(sample_bilinear(&f, -0.1, 0.0), None);
        assert_eq!(sample_bilinear(&f, 7.5, 0.0), None);
        assert_eq!(sample_bilinear(&f, 0.0, 8.0), None);
    }

    #[test]
    fn identity_warp_preserves_luma() {
        let f = ramp(Dims::new(10, 6));
        let w = warp_frame(&f, &Motion::identity());
        assert_eq!(w.valid, 60);
        assert!((w.coverage() - 1.0).abs() < 1e-12);
        for (p, px) in w.frame.enumerate() {
            assert_eq!(px.y, f.get(p).y, "at {p}");
            assert_eq!(px.alpha, 1);
        }
    }

    #[test]
    fn translation_warp_shifts_content() {
        let f = ramp(Dims::new(10, 6));
        // motion maps output coords → source coords offset +2 in x.
        let w = warp_frame(&f, &Motion::translation(2.0, 0.0));
        // Output pixel (3, y) samples source (5, y) → luma 50.
        assert_eq!(w.frame.get(Point::new(3, 2)).y, 50);
        // Rightmost columns fall outside → invalid.
        assert_eq!(w.frame.get(Point::new(9, 0)).alpha, 0);
        assert!(w.coverage() < 1.0);
    }

    #[test]
    fn zoom_warp_valid_region() {
        let f = ramp(Dims::new(16, 16));
        // Zoom > 1 maps output into a larger source area → borders invalid.
        let w = warp_frame(&f, &Motion::similarity(1.5, 0.0, 0.0, 0.0));
        assert!(w.coverage() < 1.0);
        assert!(w.coverage() > 0.3);
        // Centre stays valid.
        assert_eq!(w.frame.get(Point::new(8, 8)).alpha, 1);
    }

    #[test]
    fn warp_consistency_with_inverse() {
        // Warping by m then by m⁻¹ approximately restores the interior.
        let f = Frame::from_fn(Dims::new(32, 32), |p| {
            Pixel::from_luma((((p.x * p.x + p.y * 3) / 2) % 256) as u8)
        });
        let m = Motion::translation(1.0, -2.0);
        let there = warp_frame(&f, &m);
        let back = warp_frame(&there.frame, &m.inverse().unwrap());
        let mut err = 0u64;
        let mut n = 0u64;
        for y in 6..26 {
            for x in 6..26 {
                let p = Point::new(x, y);
                if back.frame.get(p).alpha == 1 {
                    err += u64::from(back.frame.get(p).y.abs_diff(f.get(p).y));
                    n += 1;
                }
            }
        }
        assert!(n > 100);
        assert!(err / n <= 1, "mean roundtrip error {}", err as f64 / n as f64);
    }

    #[test]
    fn sampled_warp_keeps_the_samples_behind_the_frame() {
        let f = Frame::from_fn(Dims::new(12, 9), |p| {
            Pixel::from_luma(((p.x * 23 + p.y * 7) % 256) as u8)
        });
        let m = Motion::similarity(1.1, 0.05, 0.7, -0.4);
        let mut samples = vec![Some(1.0); 3];
        let w = warp_frame_sampled(&f, &m, &mut samples);
        assert_eq!(w, warp_frame(&f, &m));
        assert_eq!(samples.len(), f.pixel_count());
        let (cx, cy) = centre_of(f.dims());
        for ((p, px), sample) in w.frame.enumerate().zip(&samples) {
            let (mx, my) = m.apply(p.x as f64 - cx, p.y as f64 - cy);
            assert_eq!(*sample, sample_bilinear(&f, mx + cx, my + cy), "at {p}");
            assert_eq!(px.alpha, u16::from(sample.is_some()), "at {p}");
        }
    }

    #[test]
    fn bilinear_clamps_the_last_column_and_line() {
        let f = ramp(Dims::new(8, 8));
        assert_eq!(sample_bilinear(&f, 7.0, 7.0), Some(70.0));
        assert_eq!(sample_bilinear(&f, 6.5, 7.0), Some(65.0));
    }

    #[test]
    fn empty_coverage() {
        let w = Warped {
            frame: Frame::new(Dims::new(0, 0)),
            valid: 0,
        };
        assert_eq!(w.coverage(), 0.0);
    }
}
