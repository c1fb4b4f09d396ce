//! Inter addressing: *"a result for each pixel position is calculated
//! using data from two different frames"* (§2.1).
//!
//! # Examples
//!
//! ```
//! use vip_core::addressing::inter::run_inter;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::arith::AbsDiff;
//! use vip_core::pixel::Pixel;
//!
//! let a = Frame::filled(Dims::new(4, 4), Pixel::from_luma(100));
//! let b = Frame::filled(Dims::new(4, 4), Pixel::from_luma(90));
//! let result = run_inter(&a, &b, &AbsDiff::luma())?;
//! assert!(result.output.pixels().iter().all(|p| p.y == 10));
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use crate::accounting::{AccessCounter, CallDescriptor};
use crate::addressing::CallReport;
use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::ops::InterOp;
use crate::pixel::Pixel;

/// Result of an inter call: the output frame plus the execution report.
#[derive(Debug, Clone)]
pub struct InterResult {
    /// The produced frame. Channels outside the kernel's output set carry
    /// the corresponding values of frame A.
    pub output: Frame,
    /// Execution statistics for accounting and dispatch counting.
    pub report: CallReport,
}

/// Runs an inter-addressing call over two frames, row by row.
///
/// # Errors
///
/// Returns [`CoreError::DimsMismatch`] when the frames differ in size and
/// [`CoreError::EmptyFrame`] when they have zero area.
pub fn run_inter(a: &Frame, b: &Frame, op: &impl InterOp) -> CoreResult<InterResult> {
    let dims = a.dims();
    if dims != b.dims() {
        return Err(CoreError::DimsMismatch {
            left: dims,
            right: b.dims(),
        });
    }
    if dims.is_empty() {
        return Err(CoreError::EmptyFrame);
    }

    let descriptor = CallDescriptor::inter(op.input_channels(), op.output_channels());
    let per_pixel_reads = descriptor.software_accesses_per_pixel() - 1;

    // Row sweep: one kernel dispatch per line.
    let mut data = vec![Pixel::default(); dims.pixel_count()];
    let lines = a.pixels().chunks_exact(dims.width).zip(b.pixels().chunks_exact(dims.width));
    for (out, (la, lb)) in data.chunks_exact_mut(dims.width).zip(lines) {
        op.apply_row(la, lb, out);
    }

    // Every pixel reads both inputs and writes its result once: the
    // per-pixel ticks of a pixel-by-pixel sweep, summed.
    let applied = dims.pixel_count() as u64;
    let mut counter = AccessCounter::new();
    counter.read(applied * per_pixel_reads);
    counter.write(applied);

    Ok(InterResult {
        output: Frame::from_pixels(dims, data)?,
        report: CallReport {
            descriptor,
            dims,
            pixels_processed: applied,
            op_applies: applied,
            counter,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Dims, Point};
    use crate::ops::arith::{AbsDiff, Add, ChangeMask};
    use crate::pixel::{ChannelSet, Pixel};

    fn frames() -> (Frame, Frame) {
        let a = Frame::from_fn(Dims::new(4, 3), |p| {
            Pixel::from_yuv((p.x * 10) as u8, 100, 50).with_alpha(7)
        });
        let b = Frame::from_fn(Dims::new(4, 3), |p| {
            Pixel::from_yuv((p.y * 20) as u8, 90, 60)
        });
        (a, b)
    }

    #[test]
    fn absdiff_pointwise() {
        let (a, b) = frames();
        let r = run_inter(&a, &b, &AbsDiff::luma()).unwrap();
        for (p, px) in r.output.enumerate() {
            let expect = ((p.x * 10) as u8).abs_diff((p.y * 20) as u8);
            assert_eq!(px.y, expect, "at {p}");
            // Non-output channels come from frame A.
            assert_eq!(px.u, 100);
            assert_eq!(px.alpha, 7);
        }
    }

    #[test]
    fn report_matches_table2_model() {
        let (a, b) = frames();
        let r = run_inter(&a, &b, &AbsDiff::luma()).unwrap();
        let model = r.report.access_model();
        // Empirical counter equals the analytic software model.
        assert_eq!(r.report.counter.total(), model.software_accesses);
        assert_eq!(r.report.pixels_processed, 12);
        assert_eq!(r.report.counter.total(), 12 * 3);
    }

    #[test]
    fn yuv_kernel_counts_more_accesses() {
        let (a, b) = frames();
        let y = run_inter(&a, &b, &AbsDiff::luma()).unwrap();
        let yuv = run_inter(&a, &b, &AbsDiff::yuv()).unwrap();
        assert!(yuv.report.counter.total() > y.report.counter.total());
        // YUV inter: 2 frames × 3 channels + 1 write = 7/pixel.
        assert_eq!(yuv.report.counter.total(), 12 * 7);
    }

    #[test]
    fn dims_mismatch_rejected() {
        let a = Frame::new(Dims::new(2, 2));
        let b = Frame::new(Dims::new(2, 3));
        assert!(matches!(
            run_inter(&a, &b, &Add::luma()),
            Err(CoreError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn empty_frames_rejected() {
        let a = Frame::new(Dims::new(0, 0));
        assert!(matches!(
            run_inter(&a, &a, &Add::luma()),
            Err(CoreError::EmptyFrame)
        ));
    }

    #[test]
    fn change_mask_merges_alpha_output() {
        let (a, b) = frames();
        let r = run_inter(&a, &b, &ChangeMask::new(15)).unwrap();
        let px = r.output.get(Point::new(3, 0)); // |30 - 0| = 30 > 15
        assert_eq!(px.alpha, 1);
        let px2 = r.output.get(Point::new(0, 0)); // |0 - 0| = 0
        assert_eq!(px2.alpha, 0);
        assert_eq!(
            r.report.descriptor.output_channels,
            ChannelSet::Y.union(ChannelSet::ALPHA)
        );
    }

    #[test]
    fn descriptor_mode_is_inter() {
        let (a, b) = frames();
        let r = run_inter(&a, &b, &Add::luma()).unwrap();
        assert_eq!(
            r.report.descriptor.mode,
            crate::accounting::AddressingMode::Inter
        );
    }
}
