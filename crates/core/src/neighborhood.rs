//! Neighbourhood shapes and windows.
//!
//! Intra addressing computes each output pixel from the pixel's original
//! value *and the values of its neighbours within the same image* (§2.1).
//! Table 2 of the paper names two concrete shapes: `CON_0` (the pixel
//! itself) and `CON_8` (the squared 8-pixel neighbourhood of fig. 4). The
//! transfer-strip size of 16 lines is derived from the *maximum* input
//! range of nine lines, so shapes up to 9×9 are representable.
//!
//! # Examples
//!
//! ```
//! use vip_core::neighborhood::Connectivity;
//!
//! assert_eq!(Connectivity::Con8.offsets().len(), 9); // centre + 8 neighbours
//! assert_eq!(Connectivity::Con0.offsets().len(), 1);
//! ```

use core::fmt;

use crate::border::BorderPolicy;
use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::geometry::Point;
use crate::pixel::Pixel;

/// Maximum neighbourhood extent supported by the transfer scheme: nine
/// lines (§3.1), i.e. a radius of four around the centre pixel.
pub const MAX_RADIUS: usize = 4;

/// Maximum number of lines a neighbourhood may span (9, per §3.1).
pub const MAX_LINES: usize = 2 * MAX_RADIUS + 1;

/// Named neighbourhood shapes of the AddressLib.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum Connectivity {
    /// The pixel itself only (`CON_0` in Table 2).
    Con0,
    /// The 4-connected cross (centre + N, S, E, W).
    Con4,
    /// The squared 8-pixel neighbourhood (`CON_8` in Table 2 / fig. 4):
    /// centre + its 8 surrounding pixels, a 3×3 window.
    #[default]
    Con8,
    /// A full square window of the given radius (1 ⇒ identical to
    /// [`Connectivity::Con8`]). Radius is validated to [`MAX_RADIUS`] by
    /// [`Connectivity::try_square`].
    Square(u8),
}

impl Connectivity {
    /// Creates a square window of radius `radius`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `radius > MAX_RADIUS`
    /// (the strip scheme of §3.1 only guarantees nine lines).
    pub fn try_square(radius: usize) -> CoreResult<Self> {
        if radius > MAX_RADIUS {
            return Err(CoreError::InvalidParameter {
                name: "radius",
                reason: "neighbourhood may span at most nine lines (radius 4)",
            });
        }
        Ok(Connectivity::Square(radius as u8))
    }

    /// Window radius: the largest |offset| in either axis.
    #[must_use]
    pub const fn radius(self) -> usize {
        match self {
            Connectivity::Con0 => 0,
            Connectivity::Con4 | Connectivity::Con8 => 1,
            Connectivity::Square(r) => r as usize,
        }
    }

    /// Number of image lines the window spans (`2·radius + 1`).
    #[must_use]
    pub const fn lines(self) -> usize {
        2 * self.radius() + 1
    }

    /// The offsets of the window relative to the centre, in row-major
    /// order. The centre `(0,0)` is always included.
    ///
    /// Allocates; the hot paths (window gathers, IIM fetches) use the
    /// allocation-free [`Connectivity::offsets_iter`] instead.
    #[must_use]
    pub fn offsets(self) -> Vec<Point> {
        self.offsets_iter().collect()
    }

    /// Iterates the window offsets in the same row-major order as
    /// [`Connectivity::offsets`], without allocating.
    #[must_use]
    pub fn offsets_iter(self) -> Offsets {
        Offsets {
            shape: self,
            idx: 0,
            len: self.offset_count(),
        }
    }

    /// Number of offsets in the window.
    #[must_use]
    pub const fn offset_count(self) -> usize {
        match self {
            Connectivity::Con0 => 1,
            Connectivity::Con4 => 5,
            Connectivity::Con8 | Connectivity::Square(_) => {
                let side = 2 * self.radius() + 1;
                side * side
            }
        }
    }

    /// Whether `off` is one of the window's offsets — O(1), the hot-path
    /// replacement for `offsets().contains(&off)`.
    #[must_use]
    pub const fn contains_offset(self, off: Point) -> bool {
        match self {
            Connectivity::Con0 => off.x == 0 && off.y == 0,
            Connectivity::Con4 => off.x.abs() + off.y.abs() <= 1,
            Connectivity::Con8 | Connectivity::Square(_) => {
                let r = self.radius() as i32;
                off.x.abs() <= r && off.y.abs() <= r
            }
        }
    }

    /// Position of `off` in [`Connectivity::offsets_iter`], or `None`
    /// when it is not one of the window's offsets — O(1).
    #[must_use]
    pub const fn offset_index(self, off: Point) -> Option<usize> {
        if !self.contains_offset(off) {
            return None;
        }
        Some(match self {
            Connectivity::Con0 => 0,
            // Row-major cross: N, W, centre, E, S.
            Connectivity::Con4 => (2 + 2 * off.y + off.x) as usize,
            Connectivity::Con8 | Connectivity::Square(_) => {
                let r = self.radius() as i32;
                ((off.y + r) * (2 * r + 1) + off.x + r) as usize
            }
        })
    }

    /// The *expansion* offsets used by segment addressing: the neighbours
    /// (centre excluded) that are tested against the neighbourhood
    /// criterion.
    #[must_use]
    pub fn expansion_offsets(self) -> Vec<Point> {
        self.offsets_iter().filter(|p| *p != Point::ORIGIN).collect()
    }

    /// Number of *new* pixels that enter a sliding window per unit step in
    /// the scan direction; e.g. 3 for `CON_8` moving horizontally.
    ///
    /// This is the quantity the software memory-access model of Table 2 is
    /// built on: a software sweep re-loads exactly these pixels per step,
    /// while the AddressEngine loads them all in parallel in one IIM cycle.
    #[must_use]
    pub fn new_pixels_per_step(self) -> usize {
        match self {
            Connectivity::Con0 => 1,
            Connectivity::Con4 => 3, // leading cross arm: E plus N/S become loadable
            Connectivity::Con8 => 3,
            Connectivity::Square(r) => 2 * r as usize + 1,
        }
    }
}

/// Allocation-free iterator over a window's offsets, in row-major order
/// (see [`Connectivity::offsets_iter`]).
#[derive(Debug, Clone)]
pub struct Offsets {
    shape: Connectivity,
    idx: usize,
    len: usize,
}

/// `CON_4` offsets in row-major order.
const CON4_OFFSETS: [Point; 5] = [
    Point::new(0, -1),
    Point::new(-1, 0),
    Point::ORIGIN,
    Point::new(1, 0),
    Point::new(0, 1),
];

impl Iterator for Offsets {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.idx >= self.len {
            return None;
        }
        let i = self.idx;
        self.idx += 1;
        Some(match self.shape {
            Connectivity::Con0 => Point::ORIGIN,
            Connectivity::Con4 => CON4_OFFSETS[i],
            Connectivity::Con8 | Connectivity::Square(_) => {
                let r = self.shape.radius() as i32;
                let side = 2 * self.shape.radius() + 1;
                Point::new((i % side) as i32 - r, (i / side) as i32 - r)
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Offsets {}

impl fmt::Display for Connectivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Connectivity::Con0 => f.write_str("CON_0"),
            Connectivity::Con4 => f.write_str("CON_4"),
            Connectivity::Con8 => f.write_str("CON_8"),
            Connectivity::Square(r) => write!(f, "SQ_{r}"),
        }
    }
}

/// A materialised neighbourhood: the window of pixels around one centre
/// position, as delivered to a pixel operation.
///
/// In the coprocessor this is the content of the *matrix register* filled
/// by stage 2 of the Process Unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    centre: Point,
    shape: Connectivity,
    /// `(offset, pixel)` pairs; offsets as in [`Connectivity::offsets`],
    /// minus any skipped border accesses.
    samples: Vec<(Point, Pixel)>,
    /// Whether `samples` holds exactly the offsets of `shape`, each once,
    /// in [`Connectivity::offsets_iter`] order. A full window looks a
    /// sample up by index and refills in place.
    full: bool,
}

impl Window {
    /// Gathers the window around `centre` from `frame` under `policy`.
    ///
    /// With [`BorderPolicy::Skip`], out-of-frame samples are omitted; all
    /// other policies always deliver the full window.
    #[must_use]
    pub fn gather(
        frame: &Frame,
        centre: Point,
        shape: Connectivity,
        policy: BorderPolicy,
    ) -> Window {
        let mut window = Window {
            centre,
            shape,
            samples: Vec::with_capacity(shape.offset_count()),
            full: false,
        };
        window.regather(frame, centre, policy);
        window
    }

    /// Re-gathers the window in place around a new `centre`, reusing the
    /// sample buffer — the allocation-free path sweep loops drive.
    /// Produces exactly the samples of
    /// [`Window::gather`]`(frame, centre, self.shape(), policy)`.
    pub fn regather(&mut self, frame: &Frame, centre: Point, policy: BorderPolicy) {
        self.centre = centre;
        let dims = frame.dims();
        let r = self.shape.radius() as i32;
        let interior = centre.x >= r
            && centre.y >= r
            && centre.x + r < dims.width as i32
            && centre.y + r < dims.height as i32;
        if !interior {
            self.samples.clear();
            self.samples.extend(
                self.shape
                    .offsets_iter()
                    .filter_map(|off| policy.resolve(frame, centre + off).map(|px| (off, px))),
            );
            // A subsequence of `offsets_iter`: full count means the whole
            // shape.
            self.full = self.samples.len() == self.shape.offset_count();
            return;
        }
        // Interior: every offset is in bounds, so no border resolution.
        // Lay the offsets out once; later interior gathers overwrite only
        // the pixel halves.
        if !self.full {
            self.samples.clear();
            self.samples
                .extend(self.shape.offsets_iter().map(|off| (off, Pixel::default())));
            self.full = true;
        }
        let side = (2 * r + 1) as usize;
        if self.samples.len() == side * side {
            // Full square: copy row slices, no per-sample index arithmetic.
            let x0 = (centre.x - r) as usize;
            for (row, dy) in self.samples.chunks_exact_mut(side).zip(-r..=r) {
                let line = &frame.line((centre.y + dy) as usize)[x0..x0 + side];
                for (slot, px) in row.iter_mut().zip(line) {
                    slot.1 = *px;
                }
            }
        } else {
            for (off, px) in &mut self.samples {
                *px = frame.line((centre.y + off.y) as usize)[(centre.x + off.x) as usize];
            }
        }
    }

    /// Builds a window from externally gathered `(offset, pixel)` samples
    /// — the path hardware models use when the neighbourhood comes out of
    /// an intermediate memory instead of a [`Frame`].
    ///
    /// Samples whose offsets are not part of `shape` are discarded, so a
    /// full-square fetch can back any sub-shape (the matrix register holds
    /// the full square; the operation reads its subset).
    #[must_use]
    pub fn from_samples(
        centre: Point,
        shape: Connectivity,
        samples: impl IntoIterator<Item = (Point, Pixel)>,
    ) -> Window {
        let mut collected: Vec<(Point, Pixel)> = samples
            .into_iter()
            .filter(|(off, _)| shape.contains_offset(*off))
            .collect();
        collected.sort_by_key(|(off, _)| (off.y, off.x));
        // Sorted row-major, distinct in-shape offsets of full count are
        // exactly `offsets_iter`; a duplicate leaves the window partial.
        let full = collected.len() == shape.offset_count()
            && collected.windows(2).all(|w| w[0].0 != w[1].0);
        Window {
            centre,
            shape,
            samples: collected,
            full,
        }
    }

    /// The centre position in the source frame.
    #[must_use]
    pub const fn centre(&self) -> Point {
        self.centre
    }

    /// The shape this window was gathered with.
    #[must_use]
    pub const fn shape(&self) -> Connectivity {
        self.shape
    }

    /// The pixel at the centre offset.
    ///
    /// # Panics
    ///
    /// Panics if the centre sample was skipped, which cannot happen for
    /// windows gathered at in-bounds centres.
    #[must_use]
    pub fn centre_pixel(&self) -> Pixel {
        self.sample(Point::ORIGIN)
            .expect("window gathered at an in-bounds centre always contains its centre")
    }

    /// The pixel at relative offset `off`, if present: an index into a
    /// full window, a search of a partial one.
    #[must_use]
    pub fn sample(&self, off: Point) -> Option<Pixel> {
        if self.full {
            return self.shape.offset_index(off).map(|i| self.samples[i].1);
        }
        self.samples
            .iter()
            .find(|(o, _)| *o == off)
            .map(|(_, p)| *p)
    }

    /// Number of delivered samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were delivered (only possible under
    /// [`BorderPolicy::Skip`] with an out-of-bounds centre).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(offset, pixel)` samples in row-major offset order.
    pub fn iter(&self) -> impl Iterator<Item = (Point, Pixel)> + '_ {
        self.samples.iter().copied()
    }

    /// Iterates over the sample pixels only.
    pub fn pixels(&self) -> impl Iterator<Item = Pixel> + '_ {
        self.samples.iter().map(|(_, p)| *p)
    }

    /// Minimum and maximum luminance over the window, or `None` if empty.
    #[must_use]
    pub fn luma_min_max(&self) -> Option<(u8, u8)> {
        let mut it = self.pixels();
        let first = it.next()?.y;
        let (mut lo, mut hi) = (first, first);
        for p in it {
            lo = lo.min(p.y);
            hi = hi.max(p.y);
        }
        Some((lo, hi))
    }
}

impl<'a> IntoIterator for &'a Window {
    type Item = (Point, Pixel);
    type IntoIter = core::iter::Copied<core::slice::Iter<'a, (Point, Pixel)>>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;

    fn ramp() -> Frame {
        Frame::from_fn(Dims::new(5, 5), |p| {
            Pixel::from_luma((p.y * 5 + p.x) as u8)
        })
    }

    #[test]
    fn offset_counts() {
        assert_eq!(Connectivity::Con0.offsets().len(), 1);
        assert_eq!(Connectivity::Con4.offsets().len(), 5);
        assert_eq!(Connectivity::Con8.offsets().len(), 9);
        assert_eq!(Connectivity::Square(2).offsets().len(), 25);
        assert_eq!(Connectivity::Square(4).offsets().len(), 81);
    }

    #[test]
    fn centre_always_included() {
        for c in [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(3),
        ] {
            assert!(c.offsets().contains(&Point::ORIGIN), "{c}");
            assert!(!c.expansion_offsets().contains(&Point::ORIGIN), "{c}");
        }
    }

    #[test]
    fn regather_matches_gather_everywhere() {
        // The in-place refill must be sample-for-sample identical to a
        // fresh gather at every position (interior fast path, sparse
        // shapes, and all border policies), for any previous centre.
        let f = ramp();
        let policies = [
            BorderPolicy::Clamp,
            BorderPolicy::Mirror,
            BorderPolicy::Wrap,
            BorderPolicy::Constant(Pixel::from_luma(7)),
            BorderPolicy::Skip,
        ];
        for shape in [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(2),
        ] {
            for policy in policies {
                let mut reused = Window::from_samples(Point::ORIGIN, shape, std::iter::empty());
                for y in 0..5 {
                    for x in 0..5 {
                        let p = Point::new(x, y);
                        reused.regather(&f, p, policy);
                        let fresh = Window::gather(&f, p, shape, policy);
                        assert_eq!(reused.centre(), fresh.centre(), "{shape} {policy} {p}");
                        assert_eq!(
                            reused.iter().collect::<Vec<_>>(),
                            fresh.iter().collect::<Vec<_>>(),
                            "{shape} {policy} {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn offsets_iter_matches_offsets_everywhere() {
        for c in [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(2),
            Connectivity::Square(4),
        ] {
            let vec = c.offsets();
            let iter: Vec<Point> = c.offsets_iter().collect();
            assert_eq!(iter, vec, "{c}");
            assert_eq!(c.offsets_iter().len(), c.offset_count(), "{c}");
            // O(1) membership and index agree with the list on a superset
            // of points.
            for y in -5..=5 {
                for x in -5..=5 {
                    let p = Point::new(x, y);
                    assert_eq!(c.contains_offset(p), vec.contains(&p), "{c} at {p}");
                    let position = vec.iter().position(|o| *o == p);
                    assert_eq!(c.offset_index(p), position, "{c} at {p}");
                }
            }
        }
    }

    #[test]
    fn radius_and_lines_match_paper_limit() {
        assert_eq!(Connectivity::Con8.lines(), 3);
        assert_eq!(Connectivity::Square(4).lines(), MAX_LINES);
        assert_eq!(MAX_LINES, 9); // §3.1: nine lines max
        assert!(Connectivity::try_square(4).is_ok());
        assert!(Connectivity::try_square(5).is_err());
    }

    #[test]
    fn new_pixels_per_step_for_table2_model() {
        // CON_8 sliding horizontally loads one new 3-pixel column per step.
        assert_eq!(Connectivity::Con8.new_pixels_per_step(), 3);
        assert_eq!(Connectivity::Con0.new_pixels_per_step(), 1);
        assert_eq!(Connectivity::Square(2).new_pixels_per_step(), 5);
    }

    #[test]
    fn gather_interior_full_window() {
        let f = ramp();
        let w = Window::gather(&f, Point::new(2, 2), Connectivity::Con8, BorderPolicy::Clamp);
        assert_eq!(w.len(), 9);
        assert_eq!(w.centre_pixel().y, 12);
        assert_eq!(w.sample(Point::new(-1, -1)).unwrap().y, 6);
        assert_eq!(w.sample(Point::new(1, 1)).unwrap().y, 18);
        assert_eq!(w.sample(Point::new(2, 2)), None); // outside shape
    }

    #[test]
    fn gather_corner_clamps() {
        let f = ramp();
        let w = Window::gather(&f, Point::ORIGIN, Connectivity::Con8, BorderPolicy::Clamp);
        assert_eq!(w.len(), 9);
        // North-west neighbour clamps to (0,0).
        assert_eq!(w.sample(Point::new(-1, -1)).unwrap().y, 0);
    }

    #[test]
    fn gather_corner_skip_shrinks() {
        let f = ramp();
        let w = Window::gather(&f, Point::ORIGIN, Connectivity::Con8, BorderPolicy::Skip);
        assert_eq!(w.len(), 4); // 2x2 in-frame quadrant
        assert!(!w.is_empty());
    }

    #[test]
    fn gather_constant_fills_outside() {
        let f = ramp();
        let pol = BorderPolicy::Constant(Pixel::from_luma(77));
        let w = Window::gather(&f, Point::ORIGIN, Connectivity::Con8, pol);
        assert_eq!(w.sample(Point::new(-1, -1)).unwrap().y, 77);
        assert_eq!(w.sample(Point::new(1, 1)).unwrap().y, 6);
    }

    #[test]
    fn luma_min_max() {
        let f = ramp();
        let w = Window::gather(&f, Point::new(2, 2), Connectivity::Con8, BorderPolicy::Clamp);
        assert_eq!(w.luma_min_max(), Some((6, 18)));
        let empty = Window {
            centre: Point::ORIGIN,
            shape: Connectivity::Con0,
            samples: vec![],
            full: false,
        };
        assert_eq!(empty.luma_min_max(), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn window_iteration() {
        let f = ramp();
        let w = Window::gather(&f, Point::new(1, 1), Connectivity::Con4, BorderPolicy::Clamp);
        assert_eq!(w.iter().count(), 5);
        assert_eq!((&w).into_iter().count(), 5);
        assert_eq!(w.pixels().count(), 5);
        assert_eq!(w.shape(), Connectivity::Con4);
        assert_eq!(w.centre(), Point::new(1, 1));
    }

    #[test]
    fn from_samples_matches_gather() {
        let f = ramp();
        let centre = Point::new(2, 2);
        let direct = Window::gather(&f, centre, Connectivity::Con8, BorderPolicy::Clamp);
        let rebuilt = Window::from_samples(centre, Connectivity::Con8, direct.iter());
        assert_eq!(rebuilt, direct);
    }

    #[test]
    fn from_samples_with_duplicates_is_not_full() {
        // A duplicated offset in a full-count sample list must not be
        // indexed as if every offset were present: lookups fall back to
        // the first match, and missing offsets stay missing.
        let f = ramp();
        let centre = Point::new(2, 2);
        let mut samples: Vec<(Point, Pixel)> =
            Window::gather(&f, centre, Connectivity::Con4, BorderPolicy::Clamp)
                .iter()
                .collect();
        samples[4] = (Point::new(1, 0), Pixel::from_luma(99));
        let w = Window::from_samples(centre, Connectivity::Con4, samples);
        assert_eq!(w.len(), 5);
        assert_eq!(w.sample(Point::new(0, 1)), None);
        assert_eq!(w.sample(Point::new(1, 0)).unwrap().y, 13);
        assert_eq!(w.centre_pixel().y, 12);
    }

    #[test]
    fn from_samples_filters_to_shape() {
        let f = ramp();
        let centre = Point::new(2, 2);
        // Gather the full square, rebuild as CON_4: extra corners dropped.
        let square = Window::gather(&f, centre, Connectivity::Con8, BorderPolicy::Clamp);
        let cross = Window::from_samples(centre, Connectivity::Con4, square.iter());
        assert_eq!(cross.len(), 5);
        let direct = Window::gather(&f, centre, Connectivity::Con4, BorderPolicy::Clamp);
        for off in Connectivity::Con4.offsets() {
            assert_eq!(cross.sample(off), direct.sample(off), "offset {off}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Connectivity::Con0.to_string(), "CON_0");
        assert_eq!(Connectivity::Con8.to_string(), "CON_8");
        assert_eq!(Connectivity::Square(3).to_string(), "SQ_3");
    }
}
