//! Workload inputs: windows of consecutive frames from each of the four
//! Table 3 clips, placed by the seed and rendered with
//! `TestSequence::render_frame`. The program under test only ever sees
//! the rendered frames.

use std::time::Instant;

use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_video::rng::XorShift64;
use vip_video::TestSequence;

/// Consecutive rendered frames of one clip.
#[derive(Debug, Clone)]
pub struct Window {
    /// The clip the frames come from.
    pub seq: TestSequence,
    /// Script index of the first frame.
    pub start: usize,
    /// Frames `start .. start + len`.
    pub frames: Vec<Frame>,
}

impl Window {
    /// Consecutive frame pairs in the window.
    pub fn pairs(&self) -> impl Iterator<Item = (&Frame, &Frame)> {
        self.frames.iter().zip(self.frames.iter().skip(1))
    }
}

/// Renders `per_clip` windows of `len` consecutive frames from every
/// Table 3 clip at `dims`. The clip's start positions are cut into
/// `per_clip` equal strata, and the seed places one window in each, so
/// every seed samples the start, middle and end of a script alike.
/// Returns the windows (clip by clip) and the seconds spent rendering.
#[must_use]
pub fn render(seed: u64, dims: Dims, per_clip: usize, len: usize) -> (Vec<Window>, f64) {
    let mut picks: Vec<(TestSequence, usize)> = Vec::new();
    for (i, seq) in TestSequence::table3().into_iter().enumerate() {
        // `scaled` keeps every pose of the script and only resizes.
        let seq = seq.scaled(dims.width, dims.height, seq.frame_count());
        let mut rng = XorShift64::new(seed.wrapping_mul(4).wrapping_add(i as u64 + 1));
        let stratum = (seq.frame_count() - len + 1) / per_clip;
        for j in 0..per_clip {
            let start = j * stratum + (rng.next_u64() % stratum as u64) as usize;
            picks.push((seq.clone(), start));
        }
    }
    let t = Instant::now();
    let windows = picks
        .into_iter()
        .map(|(seq, start)| {
            let frames = (start..start + len).map(|f| seq.render_frame(f)).collect();
            Window { seq, start, frames }
        })
        .collect();
    (windows, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames_other_seed_other_starts() {
        let dims = Dims::new(24, 16);
        let (a, _) = render(7, dims, 2, 3);
        let (b, _) = render(7, dims, 2, 3);
        let (c, _) = render(8, dims, 2, 3);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.start, &x.frames), (y.start, &y.frames));
            assert_eq!(x.frames.len(), 3);
            assert_eq!(x.pairs().count(), 2);
            assert!(x.start + 3 <= x.seq.frame_count());
        }
        let starts = |w: &[Window]| w.iter().map(|w| w.start).collect::<Vec<_>>();
        assert_ne!(starts(&a), starts(&c));
    }
}
