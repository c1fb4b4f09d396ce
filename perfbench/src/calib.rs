//! Host-speed calibration.
//!
//! The benchmark shares a few cores of a host with other work, and the
//! speed it gets drifts by up to 2× over tens of seconds to minutes:
//! longer than one run, so no statistic taken inside a run removes it.
//! A fixed reference pass, owned by the benchmark and independent of
//! the program under test, is therefore timed between the timed parts.
//! Each timed part (a set-up, a GME window, a frame pair of engine
//! calls, a recording's export) is scaled by `REFERENCE_S` over the reference time around it,
//! to the host on which the pass takes exactly `REFERENCE_S`. A change to
//! the program moves the repetition and not the pass; a slow stretch of
//! the host moves both.
//!
//! The pass is compute-bound, as the host's slow stretches are: the
//! workloads slowed with it while a walk over main memory barely slowed.
//! It spends about a third of its time on each of an integer 3×3 filter
//! over a CIF frame (the vip-core kernels and the cycle simulator's
//! integer work), allocation with number formatting (recording and JSON
//! export) and floating-point accumulation (the estimator). How much
//! each workload slows with each part changes from one slow stretch to
//! the next, so no part is weighted above the others.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one reference pass on the nominal host: the median
/// on a 2-core Xeon VM.
pub const REFERENCE_S: f64 = 0.014;

/// Frame size of the filter part: CIF.
const WIDTH: usize = 352;
const HEIGHT: usize = 288;

/// Filter sweeps, formatted events and accumulation sweeps in a pass:
/// about 5 ms each on the nominal host.
const FILTER_SWEEPS: usize = 7;
const EVENTS: u64 = 30_000;
const FLOAT_SWEEPS: usize = 15;

/// Reference state, built once and reused by every pass.
#[derive(Debug)]
pub struct Reference {
    frame: Vec<u8>,
    out: Vec<u8>,
    /// Seconds of the pass that ended the last timed part, which also
    /// starts the next one.
    last: Option<f64>,
}

impl Reference {
    /// Builds the pass's input frame.
    #[must_use]
    pub fn new() -> Self {
        let mut x: u32 = 0x9e37_79b9;
        let frame = (0..WIDTH * HEIGHT)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        Reference {
            frame,
            out: vec![0; WIDTH * HEIGHT],
            last: None,
        }
    }

    /// Runs one reference pass and returns its host seconds.
    fn seconds(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.pass());
        t.elapsed().as_secs_f64()
    }

    /// Starts a timed part: returns the seconds of the pass before it.
    /// The pass that ended the previous part is reused when there is one.
    pub fn start(&mut self) -> f64 {
        match self.last.take() {
            Some(s) => s,
            None => self.seconds(),
        }
    }

    /// Ends the timed part that [`Reference::start`] returned `before`
    /// for. Returns the host-speed scale of the part: `REFERENCE_S` over
    /// the mean time of the passes on either side of it.
    pub fn scale(&mut self, before: f64) -> f64 {
        let after = self.seconds();
        self.last = Some(after);
        2.0 * REFERENCE_S / (before + after)
    }

    /// The fixed work of one pass; returns a checksum.
    fn pass(&mut self) -> u64 {
        let mut sum = 0u64;
        // Integer 3×3 binomial filter.
        for _ in 0..FILTER_SWEEPS {
            let f = black_box(&self.frame);
            for y in 1..HEIGHT - 1 {
                for x in 1..WIDTH - 1 {
                    let at = |dx: usize, dy: usize| u32::from(f[(y + dy - 1) * WIDTH + x + dx - 1]);
                    let v = at(0, 0)
                        + 2 * at(1, 0)
                        + at(2, 0)
                        + 2 * (at(0, 1) + 2 * at(1, 1) + at(2, 1))
                        + at(0, 2)
                        + 2 * at(1, 2)
                        + at(2, 2);
                    self.out[y * WIDTH + x] = (v / 16) as u8;
                }
            }
            sum += self.out.iter().map(|&v| u64::from(v)).sum::<u64>();
        }
        // Allocation and formatting.
        let events: Vec<String> = (0..EVENTS)
            .map(|k| format!("{{\"ts\":{},\"v\":{}}}", k * 3, sum ^ k))
            .collect();
        let mut json = String::new();
        for e in &events {
            let _ = write!(json, "{e},");
        }
        sum = sum.wrapping_add(json.len() as u64);
        // Floating-point accumulation.
        let mut acc = [0.0f64; 4];
        for _ in 0..FLOAT_SWEEPS {
            for (k, &px) in black_box(&self.frame).iter().enumerate() {
                let g = f64::from(px) - 127.5;
                let w = (k % WIDTH) as f64;
                acc[0] += g * g;
                acc[1] += g * w;
                acc[2] += w * w;
                acc[3] += g;
            }
        }
        sum.wrapping_add(acc.iter().sum::<f64>() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_deterministic_and_takes_time() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.pass(), b.pass());
        assert!(a.seconds() > 0.0);
    }
}
