//! Scan orders: the way an AddressLib call sweeps an image.
//!
//! The paper transfers frames in *strips* whose orientation depends on "the
//! way of scanning the image" (§3.1) and calls out the worst case of a
//! neighbourhood perpendicular to the scan direction (fig. 4). This module
//! provides the scan orders and the strip decomposition used by both the
//! software library and the coprocessor simulator.
//!
//! # Examples
//!
//! ```
//! use vip_core::geometry::Dims;
//! use vip_core::scan::{ScanOrder, scan_points};
//!
//! let pts: Vec<_> = scan_points(Dims::new(2, 2), ScanOrder::RowMajor).collect();
//! assert_eq!(pts.len(), 4);
//! assert_eq!((pts[1].x, pts[1].y), (1, 0));
//! ```

use core::fmt;

use crate::geometry::{Dims, Point};

/// Direction in which an image is swept pixel by pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum ScanOrder {
    /// Left-to-right within a line, lines top-to-bottom (the common case;
    /// horizontal strips).
    #[default]
    RowMajor,
    /// Top-to-bottom within a column, columns left-to-right (vertical
    /// strips; the fig. 4 worst case for a horizontal neighbourhood).
    ColumnMajor,
    /// Right-to-left within a line, lines bottom-to-top.
    ReverseRowMajor,
    /// Boustrophedon: alternate line directions, lines top-to-bottom.
    /// Maximises window reuse at line turns.
    Serpentine,
}

impl ScanOrder {
    /// All scan orders.
    pub const ALL: [ScanOrder; 4] = [
        ScanOrder::RowMajor,
        ScanOrder::ColumnMajor,
        ScanOrder::ReverseRowMajor,
        ScanOrder::Serpentine,
    ];

    /// Whether strips for this order are horizontal (bands of lines) rather
    /// than vertical (bands of columns).
    #[must_use]
    pub const fn horizontal_strips(self) -> bool {
        !matches!(self, ScanOrder::ColumnMajor)
    }

    /// The primary step between consecutively visited pixels (ignoring
    /// line/column wrap and serpentine turns).
    #[must_use]
    pub const fn primary_step(self) -> Point {
        match self {
            ScanOrder::RowMajor | ScanOrder::Serpentine => Point::new(1, 0),
            ScanOrder::ColumnMajor => Point::new(0, 1),
            ScanOrder::ReverseRowMajor => Point::new(-1, 0),
        }
    }
}

impl fmt::Display for ScanOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScanOrder::RowMajor => "row-major",
            ScanOrder::ColumnMajor => "column-major",
            ScanOrder::ReverseRowMajor => "reverse-row-major",
            ScanOrder::Serpentine => "serpentine",
        };
        f.write_str(s)
    }
}

/// Iterator over the pixel positions of a frame in a given scan order.
///
/// Produced by [`scan_points`].
#[derive(Debug, Clone)]
pub struct ScanPoints {
    dims: Dims,
    order: ScanOrder,
    next: usize,
    total: usize,
}

impl Iterator for ScanPoints {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.next >= self.total {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let w = self.dims.width;
        let h = self.dims.height;
        Some(match self.order {
            ScanOrder::RowMajor => Point::new((i % w) as i32, (i / w) as i32),
            ScanOrder::ColumnMajor => Point::new((i / h) as i32, (i % h) as i32),
            ScanOrder::ReverseRowMajor => {
                let j = self.total - 1 - i;
                Point::new((j % w) as i32, (j / w) as i32)
            }
            ScanOrder::Serpentine => {
                let line = i / w;
                let col = i % w;
                let x = if line.is_multiple_of(2) { col } else { w - 1 - col };
                Point::new(x as i32, line as i32)
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ScanPoints {}

/// Returns an iterator over every pixel position of a `dims`-sized frame in
/// the given scan order.
///
/// # Examples
///
/// ```
/// use vip_core::geometry::Dims;
/// use vip_core::scan::{scan_points, ScanOrder};
///
/// let serp: Vec<_> = scan_points(Dims::new(3, 2), ScanOrder::Serpentine).collect();
/// assert_eq!((serp[3].x, serp[3].y), (2, 1)); // second line starts at the right
/// ```
#[must_use]
pub fn scan_points(dims: Dims, order: ScanOrder) -> ScanPoints {
    ScanPoints {
        dims,
        order,
        next: 0,
        total: dims.pixel_count(),
    }
}

/// A strip: the transfer unit between host memory and the ZBT banks.
///
/// The paper fixes the strip size to sixteen lines: *"The selected strip size
/// is sixteen lines, as the maximum range of input data required to process
/// one pixel is nine lines"* (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Strip {
    /// Index of the strip within the frame (0-based).
    pub index: usize,
    /// First line (or column, for vertical strips) covered.
    pub start: usize,
    /// Number of lines (or columns) covered; the last strip may be shorter.
    pub len: usize,
    /// Whether the strip is a band of lines (`true`) or columns (`false`).
    pub horizontal: bool,
}

impl Strip {
    /// Number of pixels in the strip for a frame of `dims`.
    #[must_use]
    pub const fn pixel_count(&self, dims: Dims) -> usize {
        if self.horizontal {
            self.len * dims.width
        } else {
            self.len * dims.height
        }
    }

    /// Number of bytes the strip occupies at 8 bytes/pixel.
    #[must_use]
    pub const fn bytes(&self, dims: Dims) -> usize {
        self.pixel_count(dims) * 8
    }
}

impl fmt::Display for Strip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "strip#{} [{}, {}) {}",
            self.index,
            self.start,
            self.start + self.len,
            if self.horizontal { "lines" } else { "columns" }
        )
    }
}

/// Decomposes a frame into transfer strips of `strip_len` lines (or columns
/// for a column-major scan), matching the DMA scheme of §3.1.
///
/// The final strip is truncated when the frame size is not a multiple of
/// `strip_len` (never the case for QCIF/CIF with the paper's 16).
///
/// # Panics
///
/// Panics if `strip_len` is zero.
///
/// # Examples
///
/// ```
/// use vip_core::geometry::{Dims, ImageFormat};
/// use vip_core::scan::{strips, ScanOrder};
///
/// let s = strips(ImageFormat::Cif.dims(), ScanOrder::RowMajor, 16);
/// assert_eq!(s.len(), 288 / 16);
/// assert!(s.iter().all(|st| st.len == 16));
/// ```
#[must_use]
pub fn strips(dims: Dims, order: ScanOrder, strip_len: usize) -> Vec<Strip> {
    assert!(strip_len > 0, "strip length must be positive");
    let horizontal = order.horizontal_strips();
    let extent = if horizontal { dims.height } else { dims.width };
    (0..extent.div_ceil(strip_len))
        .map(|index| {
            let start = index * strip_len;
            Strip {
                index,
                start,
                len: strip_len.min(extent - start),
                horizontal,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ImageFormat;
    use std::collections::HashSet;

    #[test]
    fn every_order_visits_every_pixel_once() {
        let dims = Dims::new(7, 5);
        for order in ScanOrder::ALL {
            let pts: Vec<_> = scan_points(dims, order).collect();
            assert_eq!(pts.len(), 35, "{order}");
            let set: HashSet<_> = pts.iter().copied().collect();
            assert_eq!(set.len(), 35, "{order} revisits pixels");
            assert!(pts.iter().all(|p| dims.contains(*p)), "{order}");
        }
    }

    #[test]
    fn row_major_order() {
        let pts: Vec<_> = scan_points(Dims::new(3, 2), ScanOrder::RowMajor).collect();
        assert_eq!(pts[0], Point::new(0, 0));
        assert_eq!(pts[2], Point::new(2, 0));
        assert_eq!(pts[3], Point::new(0, 1));
    }

    #[test]
    fn column_major_order() {
        let pts: Vec<_> = scan_points(Dims::new(3, 2), ScanOrder::ColumnMajor).collect();
        assert_eq!(pts[0], Point::new(0, 0));
        assert_eq!(pts[1], Point::new(0, 1));
        assert_eq!(pts[2], Point::new(1, 0));
    }

    #[test]
    fn reverse_row_major_starts_at_end() {
        let pts: Vec<_> = scan_points(Dims::new(2, 2), ScanOrder::ReverseRowMajor).collect();
        assert_eq!(pts[0], Point::new(1, 1));
        assert_eq!(pts[3], Point::new(0, 0));
    }

    #[test]
    fn serpentine_alternates() {
        let pts: Vec<_> = scan_points(Dims::new(3, 3), ScanOrder::Serpentine).collect();
        assert_eq!(pts[2], Point::new(2, 0));
        assert_eq!(pts[3], Point::new(2, 1)); // turn without horizontal jump
        assert_eq!(pts[5], Point::new(0, 1));
        assert_eq!(pts[6], Point::new(0, 2));
    }

    #[test]
    fn exact_size_iterator() {
        let mut it = scan_points(Dims::new(4, 4), ScanOrder::RowMajor);
        assert_eq!(it.len(), 16);
        it.next();
        assert_eq!(it.len(), 15);
    }

    #[test]
    fn strips_of_cif_are_eighteen_times_sixteen_lines() {
        // §3.1: "Sixteen is also divisor of the image size".
        let s = strips(ImageFormat::Cif.dims(), ScanOrder::RowMajor, 16);
        assert_eq!(s.len(), 18);
        assert!(s.iter().all(|st| st.len == 16 && st.horizontal));
        assert_eq!(s[17].start, 272);
        // Strip bytes: 16 lines × 352 pixels × 8 B = 45056.
        assert_eq!(s[0].bytes(ImageFormat::Cif.dims()), 45_056);
    }

    #[test]
    fn vertical_strips_for_column_major() {
        let s = strips(Dims::new(40, 32), ScanOrder::ColumnMajor, 16);
        assert_eq!(s.len(), 3);
        assert!(!s[0].horizontal);
        assert_eq!(s[2].len, 8); // 40 = 16+16+8
        assert_eq!(s[2].pixel_count(Dims::new(40, 32)), 8 * 32);
    }

    #[test]
    fn strips_cover_frame_exactly() {
        for (w, h) in [(33, 17), (16, 16), (1, 1), (100, 50)] {
            let dims = Dims::new(w, h);
            for order in [ScanOrder::RowMajor, ScanOrder::ColumnMajor] {
                let ss = strips(dims, order, 16);
                let covered: usize = ss.iter().map(|s| s.len).sum();
                let extent = if order.horizontal_strips() { h } else { w };
                assert_eq!(covered, extent);
                // Pixel counts sum to the frame size.
                let px: usize = ss.iter().map(|s| s.pixel_count(dims)).sum();
                assert_eq!(px, dims.pixel_count());
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_strip_len_panics() {
        let _ = strips(Dims::new(4, 4), ScanOrder::RowMajor, 0);
    }

    #[test]
    fn primary_steps() {
        assert_eq!(ScanOrder::RowMajor.primary_step(), Point::new(1, 0));
        assert_eq!(ScanOrder::ColumnMajor.primary_step(), Point::new(0, 1));
        assert_eq!(ScanOrder::ReverseRowMajor.primary_step(), Point::new(-1, 0));
    }

    #[test]
    fn display_names() {
        assert_eq!(ScanOrder::Serpentine.to_string(), "serpentine");
        let st = Strip {
            index: 1,
            start: 16,
            len: 16,
            horizontal: true,
        };
        assert_eq!(st.to_string(), "strip#1 [16, 32) lines");
    }
}
