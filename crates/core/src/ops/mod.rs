//! Pixel operations: the sub-functions executed in stage 3 of the Process
//! Unit.
//!
//! §2.2 of the paper: *"Pixel-level operations may be separated into basic
//! sub-functions, such as add, sub, mult, grad, in order to achieve
//! efficiency and flexibility. These sub-functions can be combined to form
//! more complex operations."*
//!
//! Two kernel families exist, mirroring the two hardware-supported
//! addressing modes:
//!
//! * [`InterOp`] — combines one pixel from each of two frames
//!   (difference pictures, SAD terms, blending, …).
//! * [`IntraOp`] — maps a neighbourhood [`Window`] of one frame to an
//!   output pixel (filters, gradients, morphology, …).
//!
//! Reductions (SAD totals, histograms) are provided in [`reduce`]
//! as accumulators layered over the same kernels.

pub mod arith;
pub mod compose;
pub mod filter;
pub mod lut;
pub mod morph;
pub mod rank;
pub mod reduce;
pub mod segment_ops;

use crate::border::BorderPolicy;
use crate::frame::Frame;
use crate::geometry::Point;
use crate::neighborhood::{Connectivity, Window};
use crate::pixel::{ChannelSet, Pixel};

/// A kernel for inter addressing: one output pixel from a pair of input
/// pixels at the same position of two frames.
///
/// Implementors should be cheap to call; the executors invoke
/// [`InterOp::apply_row`] once per line, which calls [`InterOp::apply`]
/// once per pixel. The kernel reports which channels it reads and writes
/// so the memory-access accounting (Table 2) can attribute traffic
/// exactly.
pub trait InterOp {
    /// Short stable kernel name (used in reports and traces).
    fn name(&self) -> &'static str;

    /// Channels read from *each* input pixel.
    fn input_channels(&self) -> ChannelSet;

    /// Channels written to the output pixel. Unwritten channels are taken
    /// from the first input frame.
    fn output_channels(&self) -> ChannelSet;

    /// Combines one pixel from frame A and one from frame B.
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel;

    /// Computes one output line: `out[i]` is `a[i]` with the output
    /// channels of `apply(a[i], b[i])` merged in. Stops at the shortest
    /// of the three slices.
    ///
    /// Kernels do not override this: the default is compiled for each
    /// implementing type, so a call through `&dyn InterOp` dispatches
    /// once per line and `apply` inlines into the loop.
    fn apply_row(&self, a: &[Pixel], b: &[Pixel], out: &mut [Pixel]) {
        let channels = self.output_channels();
        for ((slot, &pa), &pb) in out.iter_mut().zip(a).zip(b) {
            let mut px = pa;
            px.merge_channels(self.apply(pa, pb), channels);
            *slot = px;
        }
    }
}

/// A kernel for intra addressing: one output pixel from the neighbourhood
/// window around the corresponding input position.
pub trait IntraOp {
    /// Short stable kernel name (used in reports and traces).
    fn name(&self) -> &'static str;

    /// The neighbourhood shape this kernel needs.
    fn shape(&self) -> Connectivity;

    /// Channels read from each input sample.
    fn input_channels(&self) -> ChannelSet;

    /// Channels written to the output pixel. Unwritten channels are taken
    /// from the window centre.
    fn output_channels(&self) -> ChannelSet;

    /// Maps a gathered window to the output pixel.
    fn apply(&self, window: &Window) -> Pixel;

    /// Computes line `y` of the output: `out[x]` is the input pixel at
    /// `(x, y)` with the output channels of `apply` merged in, the window
    /// gathered around `(x, y)` under `border`. `window` is scratch space
    /// reused across lines; one of another shape is rebuilt first. Stops
    /// at the shorter of `out` and the line.
    ///
    /// Kernels do not override this: the default is compiled for each
    /// implementing type, so a call through `&dyn IntraOp` dispatches
    /// once per line and `apply` inlines into the loop.
    ///
    /// # Panics
    ///
    /// Panics when `y` is not a line of `frame`.
    fn apply_row(
        &self,
        frame: &Frame,
        y: usize,
        border: BorderPolicy,
        window: &mut Window,
        out: &mut [Pixel],
    ) {
        let shape = self.shape();
        if window.shape() != shape {
            *window = Window::from_samples(Point::ORIGIN, shape, std::iter::empty());
        }
        let channels = self.output_channels();
        for (x, (slot, &centre)) in out.iter_mut().zip(frame.line(y)).enumerate() {
            window.regather(frame, Point::new(x as i32, y as i32), border);
            let mut px = centre;
            px.merge_channels(self.apply(window), channels);
            *slot = px;
        }
    }
}

impl<T: InterOp + ?Sized> InterOp for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn input_channels(&self) -> ChannelSet {
        (**self).input_channels()
    }
    fn output_channels(&self) -> ChannelSet {
        (**self).output_channels()
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        (**self).apply(a, b)
    }
    fn apply_row(&self, a: &[Pixel], b: &[Pixel], out: &mut [Pixel]) {
        (**self).apply_row(a, b, out);
    }
}

impl<T: IntraOp + ?Sized> IntraOp for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn shape(&self) -> Connectivity {
        (**self).shape()
    }
    fn input_channels(&self) -> ChannelSet {
        (**self).input_channels()
    }
    fn output_channels(&self) -> ChannelSet {
        (**self).output_channels()
    }
    fn apply(&self, window: &Window) -> Pixel {
        (**self).apply(window)
    }
    fn apply_row(
        &self,
        frame: &Frame,
        y: usize,
        border: BorderPolicy,
        window: &mut Window,
        out: &mut [Pixel],
    ) {
        (**self).apply_row(frame, y, border, window, out);
    }
}

#[cfg(test)]
mod tests {
    use super::arith::AbsDiff;
    use super::filter::BoxBlur;
    use super::*;

    #[test]
    fn trait_objects_work() {
        let op: &dyn InterOp = &AbsDiff::luma();
        assert_eq!(op.name(), "absdiff");
        let i: &dyn IntraOp = &BoxBlur::con8();
        assert_eq!(i.shape(), Connectivity::Con8);
    }

    #[test]
    fn reference_forwarding() {
        let op = AbsDiff::luma();
        fn takes_generic<O: InterOp>(o: O) -> &'static str {
            o.name()
        }
        assert_eq!(takes_generic(op), "absdiff");
    }

    #[test]
    fn apply_row_through_dyn_matches_the_executor_lines() {
        let f = Frame::from_fn(crate::geometry::Dims::new(5, 4), |p| {
            Pixel::from_luma((p.x * 40 + p.y * 7) as u8).with_aux(9)
        });
        let blurred = crate::addressing::intra::run_intra(&f, &BoxBlur::con8()).unwrap().output;
        let op: &dyn IntraOp = &BoxBlur::con8();
        // A window of another shape is rebuilt before use.
        let mut window = Window::from_samples(Point::ORIGIN, Connectivity::Con0, std::iter::empty());
        let mut out = [Pixel::default(); 5];
        for y in 0..4 {
            op.apply_row(&f, y, BorderPolicy::Clamp, &mut window, &mut out);
            assert_eq!(out[..], *blurred.line(y), "line {y}");
        }
        assert_eq!(window.shape(), Connectivity::Con8);

        let g = Frame::filled(f.dims(), Pixel::from_luma(100));
        let diff: &dyn InterOp = &AbsDiff::luma();
        diff.apply_row(f.line(1), g.line(1), &mut out);
        for (o, a) in out.iter().zip(f.line(1)) {
            assert_eq!(*o, a.with_luma(a.y.abs_diff(100)));
        }
    }
}
