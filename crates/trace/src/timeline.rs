//! Per-Cpage textual timelines — the §4.2 diagnosis, from the trace.

use std::fmt::Write as _;

use crate::event::{EventKind, FaultResolution, TraceEvent};
use crate::tracer::Trace;

/// A freeze→thaw interval of one coherent page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrozenSpan {
    /// Virtual time of the freeze, ns.
    pub frozen_at: u64,
    /// Virtual time of the matching thaw, if one happened.
    pub thawed_at: Option<u64>,
    /// Remote-map fault resolutions recorded while frozen — the
    /// serial-bottleneck count (every one is a remote reference that
    /// replication would have made local).
    pub remote_maps_while_frozen: usize,
}

/// The freeze→thaw spans of `page`, in trace order.
///
/// Spans are matched by sequence number, so a thaw emitted by the
/// defrost daemon on another processor still closes the span.
pub fn frozen_spans(trace: &Trace, page: u64) -> Vec<FrozenSpan> {
    let mut spans: Vec<FrozenSpan> = Vec::new();
    let mut open: Option<FrozenSpan> = None;
    for e in trace.for_page(page) {
        match e.kind {
            EventKind::Freeze if open.is_none() => {
                open = Some(FrozenSpan {
                    frozen_at: e.vtime,
                    thawed_at: None,
                    remote_maps_while_frozen: 0,
                });
            }
            EventKind::Thaw => {
                if let Some(mut span) = open.take() {
                    span.thawed_at = Some(e.vtime);
                    spans.push(span);
                }
            }
            EventKind::FaultEnd if e.code == FaultResolution::RemoteMapped as u8 => {
                if let Some(span) = open.as_mut() {
                    span.remote_maps_while_frozen += 1;
                }
            }
            _ => {}
        }
    }
    if let Some(span) = open {
        spans.push(span);
    }
    spans
}

/// Renders every event touching `page` as an aligned text table
/// (virtual time, processor, event, detail), ordered by sequence.
pub fn page_timeline(trace: &Trace, page: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "timeline of cpage {page}");
    let _ = writeln!(
        out,
        "{:>14}  {:>4}  {:<16}  detail",
        "vtime(us)", "cpu", "event"
    );
    for e in trace.for_page(page) {
        let _ = writeln!(
            out,
            "{:>14.3}  {:>4}  {:<16}  {}",
            e.vtime as f64 / 1000.0,
            e.proc,
            e.kind.name(),
            detail(e)
        );
    }
    let spans = frozen_spans(trace, page);
    for (i, s) in spans.iter().enumerate() {
        match s.thawed_at {
            Some(t) => {
                let _ = writeln!(
                    out,
                    "frozen span {i}: {:.3}us -> {:.3}us ({:.3}us, {} remote-mapped faults while frozen)",
                    s.frozen_at as f64 / 1000.0,
                    t as f64 / 1000.0,
                    (t - s.frozen_at) as f64 / 1000.0,
                    s.remote_maps_while_frozen
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "frozen span {i}: {:.3}us -> never thawed ({} remote-mapped faults while frozen)",
                    s.frozen_at as f64 / 1000.0,
                    s.remote_maps_while_frozen
                );
            }
        }
    }
    out
}

fn detail(e: &TraceEvent) -> String {
    match e.kind {
        EventKind::FaultEnd => format!(
            "{} (took {}ns)",
            FaultResolution::from_u8(e.code)
                .map(|r| r.name())
                .unwrap_or("unknown"),
            e.vtime.saturating_sub(e.arg)
        ),
        EventKind::Freeze => format!("{}ns since last invalidation", e.arg),
        EventKind::Invalidate => format!("surviving module {}", e.arg),
        EventKind::Replicate | EventKind::Migrate => format!("from module {}", e.arg),
        EventKind::RemoteMap => format!("home module {}", e.arg),
        EventKind::ShootdownInit => format!("{} targets", e.arg),
        EventKind::Ipi => format!("-> cpu {}", e.arg),
        EventKind::LockWait => format!("waited {}ns", e.arg),
        EventKind::ReplicaEvict | EventKind::FrameFree => format!("module {}", e.arg),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn spans_match_freeze_to_thaw() {
        let t = Tracer::new();
        t.emit(0, 100, EventKind::Freeze, 0, 9, 50);
        t.emit(
            1,
            200,
            EventKind::FaultEnd,
            FaultResolution::RemoteMapped as u8,
            9,
            150,
        );
        t.emit(
            2,
            300,
            EventKind::FaultEnd,
            FaultResolution::RemoteMapped as u8,
            9,
            250,
        );
        t.emit(3, 400, EventKind::Thaw, 0, 9, 0);
        t.emit(0, 900, EventKind::Freeze, 0, 9, 70);
        // Unrelated page is not attributed to page 9.
        t.emit(
            0,
            950,
            EventKind::FaultEnd,
            FaultResolution::RemoteMapped as u8,
            8,
            940,
        );
        let trace = t.snapshot();
        let spans = frozen_spans(&trace, 9);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].frozen_at, 100);
        assert_eq!(spans[0].thawed_at, Some(400));
        assert_eq!(spans[0].remote_maps_while_frozen, 2);
        assert_eq!(spans[1].frozen_at, 900);
        assert_eq!(spans[1].thawed_at, None);
        assert_eq!(spans[1].remote_maps_while_frozen, 0);
    }

    #[test]
    fn timeline_renders_each_event() {
        let t = Tracer::new();
        t.emit(0, 1_000, EventKind::Freeze, 0, 3, 10);
        t.emit(1, 2_000, EventKind::Thaw, 0, 3, 0);
        let s = page_timeline(&t.snapshot(), 3);
        assert!(s.contains("timeline of cpage 3"));
        assert!(s.contains("freeze"));
        assert!(s.contains("thaw"));
        assert!(s.contains("frozen span 0"));
    }
}
