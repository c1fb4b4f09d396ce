//! The start-pipeline: overlapping execution of pixel bundles.
//!
//! §3.2: *"the startpipeline deals with the correct order of the execution
//! of the instructions allowing us also to have instructions of different
//! pixel-cycles in the different stages of the Process Unit being not
//! needed to wait till one pixel-cycle is finished to start with the next
//! one."*
//!
//! This is an in-order 4-slot shift register of in-flight [`PixelBundle`]s.
//! Each simulator cycle it advances every bundle one stage (unless the
//! pipeline is stalled) and reports stage occupancy for the fig. 5 trace.

use crate::plc::instructions::{PixelBundle, Stage};

/// Occupancy of the four stages in one cycle, for pipeline traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSnapshot {
    /// The pixel index occupying each stage (`None` = bubble).
    pub slots: [Option<usize>; 4],
}

impl StageSnapshot {
    /// Number of occupied stages.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// The 4-slot in-order start-pipeline.
#[derive(Debug, Clone, Default)]
pub struct StartPipeline {
    /// `slots[i]` = bundle currently in stage `i`.
    slots: [Option<PixelBundle>; 4],
    advanced: u64,
    stalled: u64,
    retired: u64,
}

impl StartPipeline {
    /// Creates an empty pipeline.
    #[must_use]
    pub fn new() -> Self {
        StartPipeline::default()
    }

    /// Whether the first stage can accept a new bundle this cycle.
    #[must_use]
    pub fn can_issue(&self) -> bool {
        self.slots[0].is_none()
    }

    /// Whether the pipeline holds no bundles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// The bundle currently in `stage`.
    #[must_use]
    pub fn at(&self, stage: Stage) -> Option<PixelBundle> {
        self.slots[stage.index()]
    }

    /// Issues a bundle into stage 1.
    ///
    /// # Panics
    ///
    /// Panics when stage 1 is occupied (callers must check
    /// [`StartPipeline::can_issue`]).
    pub fn issue(&mut self, bundle: PixelBundle) {
        assert!(self.can_issue(), "stage 1 occupied");
        self.slots[0] = Some(bundle);
    }

    /// Advances every bundle one stage, retiring the bundle leaving stage
    /// 4. Returns the retired bundle, if any.
    ///
    /// In-order semantics: the shift is atomic, so a bundle can enter a
    /// stage in the same cycle its predecessor leaves it — that is the
    /// overlap §3.2 describes.
    pub fn advance(&mut self) -> Option<PixelBundle> {
        let retired = self.slots[3].take();
        for i in (1..4).rev() {
            self.slots[i] = self.slots[i - 1].take();
        }
        self.advanced += 1;
        if retired.is_some() {
            self.retired += 1;
        }
        retired
    }

    /// Records a stalled cycle (no advance; e.g. IIM miss or OIM full —
    /// the image-level controller *"will disable the pixel level
    /// controller"*, §3.3).
    pub fn stall(&mut self) {
        self.stalled += 1;
    }

    /// Stage occupancy snapshot for traces.
    #[must_use]
    pub fn snapshot(&self) -> StageSnapshot {
        let mut s = StageSnapshot::default();
        for (i, slot) in self.slots.iter().enumerate() {
            s.slots[i] = slot.map(|b| b.pixel_index);
        }
        s
    }

    /// Cycles advanced.
    #[must_use]
    pub const fn advanced(&self) -> u64 {
        self.advanced
    }

    /// Cycles stalled.
    #[must_use]
    pub const fn stalled(&self) -> u64 {
        self.stalled
    }

    /// Bundles retired (pixels completed).
    #[must_use]
    pub const fn retired(&self) -> u64 {
        self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plc::instructions::FetchKind;

    fn bundle(i: usize) -> PixelBundle {
        PixelBundle::new(i, FetchKind::Shift)
    }

    #[test]
    fn fills_and_retires_in_order() {
        let mut p = StartPipeline::new();
        let mut retired = Vec::new();
        for i in 0..6 {
            if p.can_issue() {
                p.issue(bundle(i));
            }
            if let Some(b) = p.advance() {
                retired.push(b.pixel_index);
            }
        }
        // First retirement after the pipeline fills (4 stages).
        assert_eq!(retired, vec![0, 1, 2]);
        assert_eq!(p.retired(), 3);
    }

    #[test]
    fn overlap_all_stages_occupied() {
        let mut p = StartPipeline::new();
        for i in 0..4 {
            p.issue(bundle(i));
            if i < 3 {
                p.advance();
            }
        }
        let snap = p.snapshot();
        assert_eq!(snap.occupancy(), 4, "four pixel-cycles in flight: {snap:?}");
        // Stage 4 holds the oldest pixel.
        assert_eq!(p.at(Stage::Store).unwrap().pixel_index, 0);
        assert_eq!(p.at(Stage::Scan).unwrap().pixel_index, 3);
    }

    #[test]
    fn drain_empties_pipeline() {
        let mut p = StartPipeline::new();
        p.issue(bundle(0));
        for _ in 0..4 {
            p.advance();
        }
        assert!(p.is_empty());
        assert_eq!(p.retired(), 1);
    }

    #[test]
    fn stall_counts_without_moving() {
        let mut p = StartPipeline::new();
        p.issue(bundle(0));
        p.stall();
        assert_eq!(p.at(Stage::Scan).unwrap().pixel_index, 0, "no movement");
        assert_eq!(p.stalled(), 1);
        assert_eq!(p.advanced(), 0);
    }

    #[test]
    #[should_panic(expected = "stage 1 occupied")]
    fn double_issue_panics() {
        let mut p = StartPipeline::new();
        p.issue(bundle(0));
        p.issue(bundle(1));
    }

    #[test]
    fn issue_then_advance_same_cycle_order() {
        // Issue new bundle, then advance: new bundle moves to stage 2.
        let mut p = StartPipeline::new();
        p.issue(bundle(7));
        p.advance();
        assert_eq!(p.at(Stage::Fetch).unwrap().pixel_index, 7);
        assert!(p.can_issue());
    }
}
