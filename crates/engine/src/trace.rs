//! Call traces: the schedule of one engine call as a typed, ordered
//! event list — the machine-readable form of the image-level
//! controller's timeline, for debugging, visualisation and export.
//!
//! # Examples
//!
//! ```
//! use vip_core::geometry::Dims;
//! use vip_engine::timing::intra_timeline;
//! use vip_engine::trace::trace_of;
//! use vip_engine::EngineConfig;
//!
//! let timeline = intra_timeline(Dims::new(64, 48), 1, &EngineConfig::prototype());
//! let events = trace_of(&timeline);
//! assert!(events.len() >= 4);
//! assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
//! ```

use core::fmt;

use vip_obs::{Recorder, Track};

use crate::timing::CallTimeline;

/// What happened at one point of a call's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// Host issued the call (interrupt/DMA setup begins).
    CallIssued,
    /// Inbound DMA started moving the first strip.
    InputDmaStarted,
    /// The last input pixel is resident in the ZBT.
    InputDmaCompleted,
    /// The last result pixel was drained into the result banks.
    ProcessingCompleted,
    /// Outbound DMA started.
    OutputDmaStarted,
    /// Outbound DMA delivered the last word; completion interrupt next.
    OutputDmaCompleted,
    /// The call completed (completion interrupt served).
    CallCompleted,
}

impl TraceKind {
    /// Stable machine-readable name, used as the event name on the
    /// observability bus.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::CallIssued => "call_issued",
            TraceKind::InputDmaStarted => "input_dma_started",
            TraceKind::InputDmaCompleted => "input_dma_completed",
            TraceKind::ProcessingCompleted => "processing_completed",
            TraceKind::OutputDmaStarted => "output_dma_started",
            TraceKind::OutputDmaCompleted => "output_dma_completed",
            TraceKind::CallCompleted => "call_completed",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::CallIssued => "call issued",
            TraceKind::InputDmaStarted => "input DMA started",
            TraceKind::InputDmaCompleted => "input DMA completed",
            TraceKind::ProcessingCompleted => "processing completed",
            TraceKind::OutputDmaStarted => "output DMA started",
            TraceKind::OutputDmaCompleted => "output DMA completed",
            TraceKind::CallCompleted => "call completed",
        };
        f.write_str(s)
    }
}

/// One schedule event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Seconds from call issue.
    pub at: f64,
    /// Event kind.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>10.3} ms  {}", self.at * 1e3, self.kind)
    }
}

/// Derives the ordered event list of a call from its timeline.
#[must_use]
pub fn trace_of(timeline: &CallTimeline) -> Vec<TraceEvent> {
    let irq = timeline.interrupt_overhead / 2.0;
    let mut events = vec![
        TraceEvent {
            at: 0.0,
            kind: TraceKind::CallIssued,
        },
        TraceEvent {
            at: irq,
            kind: TraceKind::InputDmaStarted,
        },
        TraceEvent {
            at: timeline.input_end,
            kind: TraceKind::InputDmaCompleted,
        },
        TraceEvent {
            at: timeline.drain_end,
            kind: TraceKind::ProcessingCompleted,
        },
        TraceEvent {
            at: timeline.output_start,
            kind: TraceKind::OutputDmaStarted,
        },
        TraceEvent {
            at: timeline.total - irq,
            kind: TraceKind::OutputDmaCompleted,
        },
        TraceEvent {
            at: timeline.total,
            kind: TraceKind::CallCompleted,
        },
    ];
    events.sort_by(|a, b| {
        a.at.partial_cmp(&b.at)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then_with(|| (a.kind as u8).cmp(&(b.kind as u8)))
    });
    events
}

/// Publishes a call's schedule events onto the observability bus as
/// instants on the engine track, `t0_ns` being the call-issue time on
/// the session's virtual clock. This is how [`TraceKind`] milestones and
/// the subsystem spans (DMA, ZBT, PU) end up in one Perfetto timeline.
pub fn emit_trace(recorder: &Recorder, t0_ns: u64, events: &[TraceEvent]) {
    if !recorder.is_enabled() {
        return;
    }
    for e in events {
        let ts = t0_ns + seconds_to_ns(e.at);
        recorder.instant(Track::Engine, e.kind.name(), ts, &[]);
    }
}

/// Converts schedule seconds to virtual-clock nanoseconds (rounded).
#[must_use]
pub fn seconds_to_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

/// Renders a trace as a one-line-per-event table.
#[must_use]
pub fn format_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{inter_timeline, intra_timeline};
    use crate::EngineConfig;
    use vip_core::geometry::Dims;

    fn cfg() -> EngineConfig {
        EngineConfig::prototype()
    }

    #[test]
    fn events_are_time_ordered() {
        for t in [
            intra_timeline(Dims::new(352, 288), 1, &cfg()),
            inter_timeline(Dims::new(352, 288), &cfg()),
        ] {
            let events = trace_of(&t);
            assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "{events:?}");
            assert_eq!(events.first().unwrap().kind, TraceKind::CallIssued);
            assert_eq!(events.last().unwrap().kind, TraceKind::CallCompleted);
        }
    }

    #[test]
    fn bracketing_events_match_timeline() {
        let t = intra_timeline(Dims::new(352, 288), 1, &cfg());
        let events = trace_of(&t);
        let at = |k: TraceKind| events.iter().find(|e| e.kind == k).unwrap().at;
        assert_eq!(at(TraceKind::CallCompleted), t.total);
        assert_eq!(at(TraceKind::InputDmaCompleted), t.input_end);
        assert_eq!(at(TraceKind::OutputDmaStarted), t.output_start);
        assert!(at(TraceKind::InputDmaStarted) <= at(TraceKind::InputDmaCompleted));
    }

    #[test]
    fn formatting_contains_all_events() {
        let t = inter_timeline(Dims::new(64, 64), &cfg());
        let events = trace_of(&t);
        let text = format_trace(&events);
        assert_eq!(text.lines().count(), events.len());
        assert!(text.contains("output DMA started"));
        assert!(text.contains("ms"));
    }

    #[test]
    fn kind_names_are_stable_and_distinct() {
        let kinds = [
            TraceKind::CallIssued,
            TraceKind::InputDmaStarted,
            TraceKind::InputDmaCompleted,
            TraceKind::ProcessingCompleted,
            TraceKind::OutputDmaStarted,
            TraceKind::OutputDmaCompleted,
            TraceKind::CallCompleted,
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
        assert!(names.iter().all(|n| !n.contains(' ')));
    }

    #[test]
    fn emit_places_all_events_on_engine_track() {
        let t = intra_timeline(Dims::new(64, 64), 1, &cfg());
        let events = trace_of(&t);
        let session = vip_obs::Session::new();
        emit_trace(&session.recorder(), 1_000, &events);
        let recording = session.finish();
        assert_eq!(recording.len(), events.len());
        assert!(recording.events.iter().all(|e| e.track == Track::Engine));
        assert_eq!(recording.events[0].ts_ns, 1_000);
        // Disabled recorder: no-op.
        emit_trace(&Recorder::disabled(), 0, &events);
    }

    #[test]
    fn event_display() {
        let e = TraceEvent {
            at: 0.001,
            kind: TraceKind::ProcessingCompleted,
        };
        assert!(e.to_string().contains("1.000 ms"));
        assert!(e.to_string().contains("processing completed"));
    }
}
