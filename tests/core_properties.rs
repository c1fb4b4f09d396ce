//! Seeded property sweeps of the AddressLib core invariants.
//!
//! Each property runs [`CASES`] cases drawn from its own
//! [`XorShift64`] seed, over frames of 1..24 × 1..24 pixels with every
//! channel random. A failure names the property's seed and the case
//! index, which reproduce the failing input exactly.

use std::collections::HashSet;

use vip::core::accounting::CallDescriptor;
use vip::core::addressing::inter::run_inter;
use vip::core::addressing::intra::run_intra;
use vip::core::addressing::labeling::label_all_segments;
use vip::core::addressing::segment::{run_segment, SegmentOptions};
use vip::core::border::BorderPolicy;
use vip::core::frame::Frame;
use vip::core::geometry::{Dims, Point};
use vip::core::neighborhood::Connectivity;
use vip::core::ops::arith::{AbsDiff, Add, Blend, Sub};
use vip::core::ops::compose::ZipWith;
use vip::core::ops::filter::{BoxBlur, Identity};
use vip::core::ops::lut::LumaLut;
use vip::core::ops::morph::{Dilate, Erode};
use vip::core::ops::rank::Median;
use vip::core::ops::reduce::{sad, ssd, Histogram, LumaStats};
use vip::core::ops::segment_ops::HomogeneityCriterion;
use vip::core::ops::InterOp;
use vip::core::pixel::{Channel, ChannelSet, Pixel};
use vip::core::scan::{scan_points, strips, ScanOrder};
use vip::core::AccessModel;
use vip::video::rng::XorShift64;

/// Cases per property.
const CASES: usize = 256;

/// Input generator for one property.
struct Gen(XorShift64);

impl Gen {
    /// Uniform integer in `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.0.next_u64() % (hi - lo) as u64) as i64
    }

    fn below(&mut self, hi: usize) -> usize {
        self.range(0, hi as i64) as usize
    }

    fn pixel(&mut self) -> Pixel {
        let r = self.0.next_u64();
        Pixel::new(
            r as u8,
            (r >> 8) as u8,
            (r >> 16) as u8,
            (r >> 24) as u16,
            (r >> 40) as u16,
        )
    }

    fn dims(&mut self) -> Dims {
        Dims::new(self.range(1, 24) as usize, self.range(1, 24) as usize)
    }

    fn frame_of(&mut self, dims: Dims) -> Frame {
        let pixels = (0..dims.pixel_count()).map(|_| self.pixel()).collect();
        Frame::from_pixels(dims, pixels).expect("length matches")
    }

    fn frame(&mut self) -> Frame {
        let dims = self.dims();
        self.frame_of(dims)
    }

    fn frame_pair(&mut self) -> (Frame, Frame) {
        let dims = self.dims();
        (self.frame_of(dims), self.frame_of(dims))
    }
}

/// Runs `property` on [`CASES`] generated cases; `seed` picks the stream.
fn check(seed: u64, mut property: impl FnMut(&mut Gen, &str)) {
    let mut gen = Gen(XorShift64::new(seed));
    for case in 0..CASES {
        property(&mut gen, &format!("seed {seed} case {case}"));
    }
}

#[test]
fn pixel_word_roundtrip() {
    check(1, |g, ctx| {
        let p = g.pixel();
        let (lo, hi) = p.to_words();
        assert_eq!(Pixel::from_words(lo, hi), p, "{ctx}");
        assert_eq!(Pixel::from_bits(p.to_bits()), p, "{ctx}");
        // Padding byte always zero.
        assert_eq!(lo >> 24, 0, "{ctx}");
    });
}

#[test]
fn scan_orders_are_permutations() {
    check(2, |g, ctx| {
        let dims = g.dims();
        for order in ScanOrder::ALL {
            let mut seen = vec![false; dims.pixel_count()];
            for p in scan_points(dims, order) {
                assert!(dims.contains(p), "{ctx}: {order} leaves the frame at {p}");
                let idx = dims.index_of(p);
                assert!(!seen[idx], "{ctx}: {order} revisits {p}");
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&s| s), "{ctx}: {order} misses a pixel");
        }
    });
}

#[test]
fn strips_partition_frame() {
    check(3, |g, ctx| {
        let dims = g.dims();
        let strip_len = g.range(1, 20) as usize;
        for order in [ScanOrder::RowMajor, ScanOrder::ColumnMajor] {
            let ss = strips(dims, order, strip_len);
            let total: usize = ss.iter().map(|s| s.pixel_count(dims)).sum();
            assert_eq!(total, dims.pixel_count(), "{ctx}");
            // Contiguous, non-overlapping.
            let mut expected_start = 0;
            for s in &ss {
                assert_eq!(s.start, expected_start, "{ctx}");
                expected_start += s.len;
            }
        }
    });
}

#[test]
fn border_policies_map_in_bounds() {
    check(4, |g, ctx| {
        let dims = g.dims();
        let p = Point::new(g.range(-50, 50) as i32, g.range(-50, 50) as i32);
        for pol in [
            BorderPolicy::Clamp,
            BorderPolicy::Mirror,
            BorderPolicy::Wrap,
        ] {
            let q = pol.map_point(dims, p).expect("non-empty frame");
            assert!(dims.contains(q), "{ctx}: {pol} mapped {p} to {q}");
        }
    });
}

#[test]
fn absdiff_symmetry_and_triangle() {
    check(5, |g, ctx| {
        let (a, b, c) = (g.pixel(), g.pixel(), g.pixel());
        let op = AbsDiff::yuv();
        let ab = op.apply(a, b);
        let ba = op.apply(b, a);
        assert_eq!((ab.y, ab.u, ab.v), (ba.y, ba.u, ba.v), "{ctx}");
        // Triangle inequality on luminance.
        let ac = op.apply(a, c);
        let cb = op.apply(c, b);
        assert!(
            u16::from(ab.y) <= u16::from(ac.y) + u16::from(cb.y),
            "{ctx}"
        );
    });
}

#[test]
fn add_sub_are_monotone_saturating() {
    check(6, |g, ctx| {
        let (a, b) = (g.pixel(), g.pixel());
        let sum = Add::yuv().apply(a, b);
        assert!(sum.y >= a.y.min(255 - b.y), "{ctx}");
        let diff = Sub::yuv().apply(a, b);
        assert!(diff.y <= a.y, "{ctx}");
    });
}

#[test]
fn blend_bounded_by_operands() {
    check(7, |g, ctx| {
        let (a, b) = (g.pixel(), g.pixel());
        let w = g.range(0, 257) as u16;
        let out = Blend::new(w).apply(a, b);
        let lo = a.y.min(b.y);
        let hi = a.y.max(b.y);
        assert!(
            out.y >= lo.saturating_sub(1) && out.y <= hi.saturating_add(1),
            "{ctx}: blend {} outside [{lo}, {hi}]",
            out.y
        );
    });
}

#[test]
fn inter_output_nonop_channels_from_a() {
    check(8, |g, ctx| {
        let (a, b) = g.frame_pair();
        let r = run_inter(&a, &b, &AbsDiff::luma()).expect("valid frames");
        for (p, px) in r.output.enumerate() {
            let pa = a.get(p);
            assert_eq!(
                (px.u, px.v, px.alpha, px.aux),
                (pa.u, pa.v, pa.alpha, pa.aux),
                "{ctx} at {p}"
            );
            assert_eq!(px.y, pa.y.abs_diff(b.get(p).y), "{ctx} at {p}");
        }
    });
}

#[test]
fn intra_identity_is_noop() {
    check(9, |g, ctx| {
        let f = g.frame();
        let r = run_intra(&f, &Identity::yuv()).expect("valid frame");
        // YUV identical; side channels preserved by merge semantics.
        assert_eq!(r.output, f, "{ctx}");
    });
}

#[test]
fn erode_le_dilate_everywhere() {
    check(10, |g, ctx| {
        let f = g.frame();
        let e = run_intra(&f, &Erode::con8()).expect("valid").output;
        let d = run_intra(&f, &Dilate::con8()).expect("valid").output;
        for (p, ep) in e.enumerate() {
            let orig = f.get(p).y;
            assert!(ep.y <= orig && orig <= d.get(p).y, "{ctx} at {p}");
        }
    });
}

#[test]
fn erode_dilate_idempotent_on_extremes() {
    check(11, |g, ctx| {
        // erode(erode(f)) <= erode(f).
        let f = g.frame();
        let e1 = run_intra(&f, &Erode::con8()).expect("valid").output;
        let e2 = run_intra(&e1, &Erode::con8()).expect("valid").output;
        for (p, px) in e2.enumerate() {
            assert!(px.y <= e1.get(p).y, "{ctx} at {p}");
        }
    });
}

#[test]
fn box_blur_preserves_mean_bounds() {
    check(12, |g, ctx| {
        let f = g.frame();
        let stats_in = LumaStats::of(&f).expect("non-empty");
        let blurred = run_intra(&f, &BoxBlur::con8()).expect("valid").output;
        let stats_out = LumaStats::of(&blurred).expect("non-empty");
        assert!(stats_out.min >= stats_in.min, "{ctx}");
        assert!(stats_out.max <= stats_in.max, "{ctx}");
        // Smoothing never increases variance beyond input (allow rounding).
        assert!(stats_out.variance <= stats_in.variance + 1.0, "{ctx}");
    });
}

#[test]
fn sad_is_a_metric() {
    check(14, |g, ctx| {
        let (a, b) = g.frame_pair();
        assert_eq!(sad(&a, &a).expect("same dims"), 0, "{ctx}");
        let s = sad(&a, &b).expect("same dims");
        assert_eq!(s, sad(&b, &a).expect("same dims"), "{ctx}");
        // SAD and SSD vanish together.
        let q = ssd(&a, &b).expect("same dims");
        assert_eq!(s == 0, q == 0, "{ctx}");
    });
}

#[test]
fn histogram_total_equals_pixels() {
    check(15, |g, ctx| {
        let f = g.frame();
        let h = Histogram::of(&f, Channel::Y);
        assert_eq!(h.total(), f.pixel_count() as u64, "{ctx}");
        let sum: u64 = h.iter().map(|(_, c)| c).sum();
        assert_eq!(sum, h.total(), "{ctx}");
        // Quantiles are monotone.
        assert!(h.quantile(0.1) <= h.quantile(0.9), "{ctx}");
    });
}

#[test]
fn segment_stays_within_frame_and_unique() {
    check(16, |g, ctx| {
        let f = g.frame();
        let tol = g.range(0, 40) as u8;
        let seed = Point::new((f.width() / 2) as i32, (f.height() / 2) as i32);
        let grow = |tol: u8| {
            run_segment(
                &f,
                &[seed],
                &HomogeneityCriterion::luma(tol),
                SegmentOptions::default(),
            )
            .expect("valid")
        };
        let r = grow(tol);
        let mut seen = HashSet::new();
        for s in &r.segment {
            assert!(f.dims().contains(s.point), "{ctx}");
            assert!(seen.insert(s.point), "{ctx}: duplicate {}", s.point);
        }
        // Distances non-decreasing (geodesic order).
        assert!(
            r.segment.windows(2).all(|w| w[0].distance <= w[1].distance),
            "{ctx}"
        );
        // Larger tolerance never yields a smaller segment.
        if tol < 39 {
            assert!(grow(tol + 1).segment.len() >= r.segment.len(), "{ctx}");
        }
    });
}

#[test]
fn access_model_hw_never_exceeds_sw() {
    check(17, |g, ctx| {
        let shape = [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(2),
        ][g.below(4)];
        let in_ch = g.range(1, 4);
        let dims = g.dims();
        let mut channels = ChannelSet::Y;
        if in_ch >= 2 {
            channels.insert(Channel::U);
        }
        if in_ch >= 3 {
            channels.insert(Channel::V);
        }
        let call = CallDescriptor::intra(shape, channels, channels);
        let m = AccessModel::for_call(&call, dims);
        assert!(m.hardware_accesses <= m.software_accesses, "{ctx}");
        assert_eq!(m.hardware_accesses, 2 * dims.pixel_count() as u64, "{ctx}");
    });
}

#[test]
fn empirical_counter_matches_model_intra() {
    check(18, |g, ctx| {
        let f = g.frame();
        let r = run_intra(&f, &BoxBlur::con8()).expect("valid");
        assert_eq!(
            r.report.counter.total(),
            r.report.access_model().software_accesses,
            "{ctx}"
        );
        assert_eq!(r.report.counter.writes(), f.pixel_count() as u64, "{ctx}");
    });
}

#[test]
fn empirical_counter_matches_model_inter() {
    check(19, |g, ctx| {
        let (a, b) = g.frame_pair();
        let r = run_inter(&a, &b, &AbsDiff::yuv()).expect("valid");
        assert_eq!(
            r.report.counter.total(),
            r.report.access_model().software_accesses,
            "{ctx}"
        );
        assert_eq!(r.report.counter.writes(), a.pixel_count() as u64, "{ctx}");
    });
}

/// Whole-frame labelling is a partition: every pixel gets exactly one
/// label, segments are disjoint and labels are dense from 1.
#[test]
fn labelling_is_a_partition() {
    check(20, |g, ctx| {
        let f = g.frame();
        let tol = g.range(0, 60) as u8;
        let label = |tol: u8| {
            label_all_segments(
                &f,
                &HomogeneityCriterion::luma(tol),
                SegmentOptions::default(),
            )
            .expect("non-empty frame")
        };
        let l = label(tol);
        // Coverage.
        assert!(l.output.pixels().iter().all(|p| p.alpha > 0), "{ctx}");
        // Disjoint + complete.
        let total: usize = l.segments.iter().map(Vec::len).sum();
        assert_eq!(total, f.pixel_count(), "{ctx}");
        // Dense labels: max label == segment count.
        let max_label = l.output.pixels().iter().map(|p| p.alpha).max().unwrap();
        assert_eq!(usize::from(max_label), l.segment_count(), "{ctx}");
        // Monotonicity: larger tolerance never yields more segments.
        if tol < 59 {
            assert!(label(tol + 1).segment_count() <= l.segment_count(), "{ctx}");
        }
    });
}

/// The ZipWith combinator agrees with running its parts as separate
/// whole-frame calls fused pointwise.
#[test]
fn zip_with_equals_two_pass() {
    check(21, |g, ctx| {
        let f = g.frame();
        let z = ZipWith::new("mg", Dilate::con8(), Erode::con8(), Sub::luma());
        let one_pass = run_intra(&f, &z).expect("valid").output;
        let d = run_intra(&f, &Dilate::con8()).expect("valid").output;
        let e = run_intra(&f, &Erode::con8()).expect("valid").output;
        let two_pass = run_inter(&d, &e, &Sub::luma()).expect("same dims").output;
        assert_eq!(one_pass.luma_plane(), two_pass.luma_plane(), "{ctx}");
    });
}

/// Median is always bracketed by erosion and dilation.
#[test]
fn median_bracketed() {
    check(22, |g, ctx| {
        let f = g.frame();
        let m = run_intra(&f, &Median::con8()).expect("valid").output;
        let lo = run_intra(&f, &Erode::con8()).expect("valid").output;
        let hi = run_intra(&f, &Dilate::con8()).expect("valid").output;
        for (p, px) in m.enumerate() {
            assert!(lo.get(p).y <= px.y && px.y <= hi.get(p).y, "{ctx} at {p}");
        }
    });
}

/// Point LUT ops never touch chroma or side channels.
#[test]
fn lut_ops_preserve_non_luma() {
    check(23, |g, ctx| {
        let f = g.frame();
        let gamma_tenths = g.range(3, 30);
        let lut = LumaLut::gamma(gamma_tenths as f64 / 10.0);
        let out = run_intra(&f, &lut).expect("valid").output;
        for (p, px) in out.enumerate() {
            let orig = f.get(p);
            assert_eq!(
                (px.u, px.v, px.alpha, px.aux),
                (orig.u, orig.v, orig.alpha, orig.aux),
                "{ctx} at {p}"
            );
        }
    });
}
