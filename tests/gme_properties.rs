//! Seeded property sweeps of the motion-model algebra and the
//! warp/estimate consistency invariants.
//!
//! Each property runs [`CASES`] cases drawn from its own
//! [`XorShift64`] seed. A failure names the property's seed and the case
//! index, which reproduce the failing input exactly.

use vip::core::frame::Frame;
use vip::core::geometry::Dims;
use vip::core::pixel::Pixel;
use vip::gme::model::{solve_linear, Motion};
use vip::gme::warp::{sample_bilinear, warp_frame};
use vip::video::rng::XorShift64;

/// Cases per property.
const CASES: usize = 64;

/// Input generator for one property.
struct Gen(XorShift64);

impl Gen {
    /// Uniform float in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.0.uniform(lo, hi)
    }

    /// Uniform seed byte in `0..255`.
    fn seed(&mut self) -> i32 {
        (self.0.next_u64() % 255) as i32
    }

    /// A well-conditioned similarity motion (invertible by construction).
    fn motion(&mut self) -> Motion {
        Motion::similarity(
            self.uniform(0.8, 1.25),
            self.uniform(-0.3, 0.3),
            self.uniform(-8.0, 8.0),
            self.uniform(-8.0, 8.0),
        )
    }

    fn point(&mut self) -> (f64, f64) {
        (self.uniform(-60.0, 60.0), self.uniform(-60.0, 60.0))
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
fn compose_is_associative() {
    check(201, |g, ctx| {
        let (a, b, c) = (g.motion(), g.motion(), g.motion());
        let (x, y) = g.point();
        let (lx, ly) = a.compose(&b).compose(&c).apply(x, y);
        let (rx, ry) = a.compose(&b.compose(&c)).apply(x, y);
        assert!((lx - rx).abs() < 1e-6, "{ctx}: {lx} vs {rx}");
        assert!((ly - ry).abs() < 1e-6, "{ctx}: {ly} vs {ry}");
    });
}

#[test]
fn identity_is_neutral() {
    check(202, |g, ctx| {
        let m = g.motion();
        let (x, y) = g.point();
        let id = Motion::identity();
        for composed in [m.compose(&id), id.compose(&m)] {
            let (ax, ay) = composed.apply(x, y);
            let (bx, by) = m.apply(x, y);
            assert!((ax - bx).abs() < 1e-9, "{ctx}");
            assert!((ay - by).abs() < 1e-9, "{ctx}");
        }
    });
}

#[test]
fn inverse_undoes() {
    check(203, |g, ctx| {
        let m = g.motion();
        let (x, y) = g.point();
        let inv = m.inverse().expect("similarities are invertible");
        let (fx, fy) = m.apply(x, y);
        let (bx, by) = inv.apply(fx, fy);
        assert!((bx - x).abs() < 1e-6, "{ctx}: {bx} vs {x}");
        assert!((by - y).abs() < 1e-6, "{ctx}: {by} vs {y}");
        // And the composition is the identity in displacement terms.
        let round = inv.compose(&m);
        assert!(
            round.displacement_error(&Motion::identity(), 100.0, 100.0) < 1e-6,
            "{ctx}"
        );
    });
}

#[test]
fn pyramid_scaling_commutes_with_apply() {
    check(204, |g, ctx| {
        let m = g.motion();
        let (x, y) = g.point();
        let factor = g.uniform(1.5, 4.0);
        let down = m.scaled_down(factor);
        let (fx, fy) = m.apply(x, y);
        let (dx, dy) = down.apply(x / factor, y / factor);
        assert!((fx / factor - dx).abs() < 1e-9, "{ctx}");
        assert!((fy / factor - dy).abs() < 1e-9, "{ctx}");
    });
}

#[test]
fn displacement_error_is_a_metric_ish() {
    check(205, |g, ctx| {
        let (a, b) = (g.motion(), g.motion());
        let (w, h) = (80.0, 60.0);
        assert!(a.displacement_error(&a, w, h) < 1e-9, "{ctx}");
        let ab = a.displacement_error(&b, w, h);
        let ba = b.displacement_error(&a, w, h);
        assert!((ab - ba).abs() < 1e-9, "{ctx}: symmetry");
        assert!(ab >= 0.0, "{ctx}");
    });
}

#[test]
fn solve_linear_recovers_solution() {
    check(206, |g, ctx| {
        // A diagonally dominant 3×3 system (always solvable).
        let mut a: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..3)
                    .map(|j| g.uniform(-3.0, 3.0) + if i == j { 10.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let x: Vec<f64> = (0..3).map(|_| g.uniform(-5.0, 5.0)).collect();
        let mut b: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&x).map(|(aij, xj)| aij * xj).sum())
            .collect();
        let solved = solve_linear(&mut a, &mut b).expect("diagonally dominant");
        for (s, e) in solved.iter().zip(&x) {
            assert!((s - e).abs() < 1e-6, "{ctx}: {s} vs {e}");
        }
    });
}

#[test]
fn bilinear_interpolation_is_bounded() {
    check(207, |g, ctx| {
        let seed = g.seed();
        let (x, y) = (g.uniform(0.0, 15.0), g.uniform(0.0, 15.0));
        let f = Frame::from_fn(Dims::new(16, 16), |p| {
            Pixel::from_luma(((p.x * 31 + p.y * 17 + seed) % 256) as u8)
        });
        if let Some(v) = sample_bilinear(&f, x, y) {
            assert!((0.0..=255.0).contains(&v), "{ctx}: {v}");
        }
    });
}

#[test]
fn warp_identity_is_exact() {
    check(208, |g, ctx| {
        let seed = g.seed();
        let f = Frame::from_fn(Dims::new(20, 14), |p| {
            Pixel::from_luma(((p.x * 13 + p.y * 7 + seed) % 256) as u8)
        });
        let w = warp_frame(&f, &Motion::identity());
        assert_eq!(w.valid, 280, "{ctx}");
        for (p, px) in w.frame.enumerate() {
            assert_eq!(px.y, f.get(p).y, "{ctx}: {p}");
        }
    });
}

#[test]
fn warp_coverage_decreases_with_translation() {
    check(209, |g, ctx| {
        let mag = g.uniform(0.0, 10.0);
        let f = Frame::from_fn(Dims::new(32, 32), |p| Pixel::from_luma(p.x as u8));
        let near = warp_frame(&f, &Motion::translation(mag, 0.0));
        let far = warp_frame(&f, &Motion::translation(mag + 5.0, 0.0));
        assert!(far.valid <= near.valid, "{ctx}: {mag}");
    });
}
