//! Trace recording and ASCII rendering.
//!
//! The paper presents several results as execution traces (Figures 9, 10,
//! 11 and 12: gang-scheduled interleavings, pipeline bubbles, DCN
//! transfers). Simulation tasks record spans here; the experiment binaries
//! render them as ASCII timelines so the interleavings can be inspected
//! and asserted on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// One recorded span: `track` is the timeline row (e.g. a device), `label`
/// identifies what ran (e.g. a client/program id). Both are shared
/// strings: a device records one span per kernel under the same track
/// and a program's label, so recording clones two pointers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Timeline row this span belongs to (typically one per device).
    pub track: Arc<str>,
    /// What occupied the row (program id, transfer, etc.).
    pub label: Arc<str>,
    /// Span start (inclusive).
    pub start: SimTime,
    /// Span end (exclusive).
    pub end: SimTime,
}

impl TraceSpan {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// An append-only log of [`TraceSpan`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceLog {
    spans: Vec<TraceSpan>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a span.
    pub fn record(
        &mut self,
        track: impl Into<Arc<str>>,
        label: impl Into<Arc<str>>,
        start: SimTime,
        end: SimTime,
    ) {
        self.spans.push(TraceSpan {
            track: track.into(),
            label: label.into(),
            start,
            end,
        });
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns true if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans on one track, in recording order.
    pub fn track(&self, track: &str) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| &*s.track == track).collect()
    }

    /// Total busy time per label on a track (used to check
    /// proportional-share ratios in the Figure 9 reproduction).
    pub fn busy_by_label(&self, track: &str) -> BTreeMap<String, SimDuration> {
        let mut out: BTreeMap<String, SimDuration> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| &*s.track == track) {
            *out.entry(s.label.to_string()).or_default() += s.duration();
        }
        out
    }

    /// Fraction of `[start, end)` during which `track` has a span.
    ///
    /// Overlapping spans are merged, so the result is at most 1.0.
    pub fn utilization(&self, track: &str, start: SimTime, end: SimTime) -> f64 {
        let window = end.saturating_duration_since(start);
        if window.is_zero() {
            return 0.0;
        }
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| &*s.track == track && s.end > start && s.start < end)
            .map(|s| (s.start.max(start).as_nanos(), s.end.min(end).as_nanos()))
            .collect();
        intervals.sort_unstable();
        let mut busy = 0u64;
        let mut cursor = 0u64;
        for (s, e) in intervals {
            let s = s.max(cursor);
            if e > s {
                busy += e - s;
                cursor = e;
            } else {
                cursor = cursor.max(e);
            }
        }
        busy as f64 / window.as_nanos() as f64
    }

    /// Renders tracks as an ASCII timeline, one row per track, `width`
    /// characters across the given window. Each cell shows the first
    /// character of the label occupying it ('.' when idle).
    pub fn render_ascii(&self, start: SimTime, end: SimTime, width: usize) -> String {
        let mut tracks: Vec<&str> = self
            .spans
            .iter()
            .map(|s| &*s.track)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        tracks.sort();
        let window = end.saturating_duration_since(start).as_nanos().max(1);
        let name_w = tracks.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut out = String::new();
        for track in tracks {
            let mut row = vec!['.'; width];
            for s in self.spans.iter().filter(|s| &*s.track == track) {
                if s.end <= start || s.start >= end {
                    continue;
                }
                let s0 = s.start.max(start).as_nanos() - start.as_nanos();
                let s1 = s.end.min(end).as_nanos() - start.as_nanos();
                let c0 = (s0 as u128 * width as u128 / window as u128) as usize;
                let mut c1 = (s1 as u128 * width as u128 / window as u128) as usize;
                if c1 == c0 {
                    c1 = c0 + 1;
                }
                let ch = s.label.chars().next().unwrap_or('#');
                for cell in row.iter_mut().take(c1.min(width)).skip(c0) {
                    *cell = ch;
                }
            }
            let _ = writeln!(
                out,
                "{track:<name_w$} |{}|",
                row.into_iter().collect::<String>()
            );
        }
        out
    }

    /// Merges another log into this one.
    pub fn extend_from(&mut self, other: TraceLog) {
        self.spans.extend(other.spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn busy_by_label_sums_durations() {
        let mut log = TraceLog::new();
        log.record("dev0", "A", t(0), t(10));
        log.record("dev0", "B", t(10), t(15));
        log.record("dev0", "A", t(15), t(25));
        log.record("dev1", "A", t(0), t(100));
        let busy = log.busy_by_label("dev0");
        assert_eq!(busy["A"], SimDuration::from_micros(20));
        assert_eq!(busy["B"], SimDuration::from_micros(5));
    }

    #[test]
    fn utilization_merges_overlaps() {
        let mut log = TraceLog::new();
        log.record("dev0", "A", t(0), t(10));
        log.record("dev0", "B", t(5), t(15));
        // Busy [0,15) of [0,20) = 0.75 even though raw spans sum to 20us.
        let u = log.utilization("dev0", t(0), t(20));
        assert!((u - 0.75).abs() < 1e-9, "utilization was {u}");
    }

    #[test]
    fn utilization_clips_to_window() {
        let mut log = TraceLog::new();
        log.record("dev0", "A", t(0), t(100));
        let u = log.utilization("dev0", t(50), t(100));
        assert!((u - 1.0).abs() < 1e-9);
        assert_eq!(log.utilization("devX", t(0), t(10)), 0.0);
    }

    #[test]
    fn ascii_rendering_shows_interleaving() {
        let mut log = TraceLog::new();
        log.record("dev0", "A", t(0), t(5));
        log.record("dev0", "B", t(5), t(10));
        let art = log.render_ascii(t(0), t(10), 10);
        assert!(art.contains("AAAAABBBBB"), "got:\n{art}");
    }

    #[test]
    fn track_filters_spans() {
        let mut log = TraceLog::new();
        log.record("x", "A", t(0), t(1));
        log.record("y", "B", t(0), t(1));
        assert_eq!(log.track("x").len(), 1);
        assert_eq!(&*log.track("y")[0].label, "B");
        assert_eq!(log.len(), 2);
    }
}
