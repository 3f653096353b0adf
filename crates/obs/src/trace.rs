//! Request-scoped trace reconstruction.
//!
//! The serving loops tag lifecycle point events with a [`TraceId`] (see
//! [`trace_mark`](fn@crate::trace_mark) /
//! [`trace_mark_at`](crate::trace_mark_at)); after
//! [`drain`](crate::drain), [`reconstruct`] groups the tagged events back
//! into one causal [`RequestTrace`] per request. Phase boundaries are
//! defined so the three durations telescope exactly:
//!
//! ```text
//! queue-wait = first work mark − enqueue
//! compute    = last work mark − first work mark
//! egress     = terminal − last work mark
//! total      = terminal − enqueue = queue-wait + compute + egress
//! ```
//!
//! where "work marks" are `req.round` / `req.prefill.start` /
//! `req.prefill.chunk` / `req.decode.step` / `req.exec.done` and the
//! terminal mark is `req.done` or `req.shed.<reason>`. A request that never
//! left the queue has its whole lifetime attributed to queue-wait.

use crate::names;
use crate::profile::{Profile, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A per-request tag carried by trace events. The raw value 0 is reserved
/// for "untagged", so request ids map to `id + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The trace id for serving-request index `id` (offset by one so
    /// request 0 stays distinguishable from "untagged").
    pub const fn from_request(id: usize) -> TraceId {
        TraceId(id as u64 + 1)
    }

    /// A trace id from a raw nonzero tag.
    pub const fn from_raw(raw: u64) -> Option<TraceId> {
        if raw == 0 {
            None
        } else {
            Some(TraceId(raw))
        }
    }

    /// The raw tag value stored in ring slots.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The serving-request index this id was built from.
    pub const fn request_id(self) -> usize {
        (self.0 - 1) as usize
    }
}

/// Terminal outcome recovered from a request's trace timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Timeline ends in `req.done`.
    Done,
    /// Timeline ends in `req.shed.<reason>`; carries the reason label
    /// (e.g. `queue_full`, matching `ShedReason::label()`).
    Shed(String),
    /// No terminal mark drained (request still in flight, or its terminal
    /// event was lost to ring overflow).
    Open,
}

/// One request's reconstructed causal timeline.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The request tag all events share.
    pub id: TraceId,
    /// Events sorted by `(t_ns, seq)`.
    pub events: Vec<SpanEvent>,
}

/// Exact phase breakdown of one request; fields sum to `total_ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Enqueue → first work mark (or terminal, if never scheduled).
    pub queue_wait_ns: u64,
    /// First work mark → last work mark.
    pub compute_ns: u64,
    /// Last work mark → terminal (token streaming and completion).
    pub egress_ns: u64,
}

impl PhaseBreakdown {
    /// End-to-end latency: the sum of the three phases.
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns + self.compute_ns + self.egress_ns
    }
}

fn is_work_mark(name: &str) -> bool {
    matches!(
        name,
        n if n == names::REQ_ROUND
            || n == names::REQ_PREFILL_START
            || n == names::REQ_PREFILL_CHUNK
            || n == names::REQ_DECODE_STEP
            || n == names::REQ_EXEC_DONE
    )
}

fn is_terminal_mark(name: &str) -> bool {
    name == names::REQ_DONE || name.starts_with(names::REQ_SHED_PREFIX)
}

impl RequestTrace {
    /// Timestamp of the first event named `name`.
    pub fn first_ns(&self, name: &str) -> Option<u64> {
        self.events.iter().find(|e| e.name == name).map(|e| e.t_ns)
    }

    /// The enqueue timestamp (falls back to the first event if the
    /// `req.enqueue` mark was lost).
    pub fn enqueue_ns(&self) -> u64 {
        self.first_ns(names::REQ_ENQUEUE)
            .or_else(|| self.events.first().map(|e| e.t_ns))
            .unwrap_or(0)
    }

    /// The terminal event, if the timeline is closed.
    pub fn terminal(&self) -> Option<&SpanEvent> {
        self.events.iter().rev().find(|e| is_terminal_mark(&e.name))
    }

    /// The recovered outcome.
    pub fn outcome(&self) -> TraceOutcome {
        match self.terminal() {
            None => TraceOutcome::Open,
            Some(e) if e.name == names::REQ_DONE => TraceOutcome::Done,
            Some(e) => TraceOutcome::Shed(e.name[names::REQ_SHED_PREFIX.len()..].to_string()),
        }
    }

    /// End-to-end latency (terminal − enqueue); `None` while open.
    pub fn total_ns(&self) -> Option<u64> {
        self.terminal().map(|t| t.t_ns.saturating_sub(self.enqueue_ns()))
    }

    /// True when the request missed its deadline (shed while queued or
    /// cancelled after admission).
    pub fn deadline_missed(&self) -> bool {
        matches!(
            self.outcome(),
            TraceOutcome::Shed(ref r) if r == "deadline_expired" || r == "cancelled_mid_request"
        )
    }

    /// The exact phase breakdown; `None` while the timeline is open.
    pub fn phases(&self) -> Option<PhaseBreakdown> {
        let t_term = self.terminal()?.t_ns;
        let t_enq = self.enqueue_ns();
        let first_work = self.events.iter().find(|e| is_work_mark(&e.name)).map(|e| e.t_ns);
        let last_work = self.events.iter().rev().find(|e| is_work_mark(&e.name)).map(|e| e.t_ns);
        Some(match first_work {
            None => PhaseBreakdown {
                queue_wait_ns: t_term.saturating_sub(t_enq),
                compute_ns: 0,
                egress_ns: 0,
            },
            Some(fw) => {
                let lw = last_work.unwrap_or(fw).max(fw);
                PhaseBreakdown {
                    queue_wait_ns: fw.saturating_sub(t_enq),
                    compute_ns: lw - fw,
                    egress_ns: t_term.saturating_sub(lw),
                }
            }
        })
    }

    /// Renders the timeline as indented text: a summary line (outcome +
    /// phase breakdown) followed by one line per event with its offset
    /// from enqueue.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let outcome = match self.outcome() {
            TraceOutcome::Done => "done".to_string(),
            TraceOutcome::Shed(r) => format!("shed:{r}"),
            TraceOutcome::Open => "open".to_string(),
        };
        let _ = write!(out, "request #{} — {outcome}", self.id.request_id());
        if let Some(p) = self.phases() {
            let _ = write!(
                out,
                " — total {:.1} us (queue {:.1} + compute {:.1} + egress {:.1})",
                p.total_ns() as f64 / 1e3,
                p.queue_wait_ns as f64 / 1e3,
                p.compute_ns as f64 / 1e3,
                p.egress_ns as f64 / 1e3,
            );
        }
        out.push('\n');
        let t0 = self.enqueue_ns();
        for e in &self.events {
            let _ = writeln!(
                out,
                "  +{:>12.1} us  {}",
                e.t_ns.saturating_sub(t0) as f64 / 1e3,
                e.name
            );
        }
        out
    }
}

/// Groups a drained profile's tagged events into per-request timelines,
/// sorted by trace id. Untagged events are ignored.
pub fn reconstruct(profile: &Profile) -> Vec<RequestTrace> {
    let mut by_tag: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for e in &profile.events {
        if e.trace != 0 {
            by_tag.entry(e.trace).or_default().push(e.clone());
        }
    }
    by_tag
        .into_iter()
        .map(|(tag, mut events)| {
            events.sort_by_key(|e| (e.t_ns, e.seq));
            RequestTrace {
                id: TraceId::from_raw(tag).expect("zero tags filtered above"),
                events,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::EventKind;

    fn mark(name: &str, t_ns: u64, seq: u64, trace: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            kind: EventKind::Point,
            t_ns,
            seq,
            thread: 0,
            trace,
        }
    }

    fn profile_of(events: Vec<SpanEvent>) -> Profile {
        Profile {
            events,
            ..Default::default()
        }
    }

    #[test]
    fn served_request_phases_telescope_exactly() {
        let tag = TraceId::from_request(3).raw();
        let p = profile_of(vec![
            mark(names::REQ_ENQUEUE, 100, 0, tag),
            mark(names::REQ_ADMIT, 100, 1, tag),
            mark(names::REQ_ROUND, 400, 2, tag),
            mark(names::REQ_EXEC_DONE, 900, 3, tag),
            mark(names::REQ_DONE, 1000, 4, tag),
        ]);
        let traces = reconstruct(&p);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.id.request_id(), 3);
        assert_eq!(t.outcome(), TraceOutcome::Done);
        let ph = t.phases().unwrap();
        assert_eq!(ph.queue_wait_ns, 300);
        assert_eq!(ph.compute_ns, 500);
        assert_eq!(ph.egress_ns, 100);
        assert_eq!(Some(ph.total_ns()), t.total_ns());
    }

    #[test]
    fn shed_without_work_is_pure_queue_wait() {
        let tag = TraceId::from_request(0).raw();
        let p = profile_of(vec![
            mark(names::REQ_ENQUEUE, 50, 0, tag),
            mark(names::REQ_ADMIT, 50, 1, tag),
            mark(names::REQ_SHED_DEADLINE, 450, 2, tag),
        ]);
        let t = &reconstruct(&p)[0];
        assert_eq!(t.outcome(), TraceOutcome::Shed("deadline_expired".into()));
        assert!(t.deadline_missed());
        let ph = t.phases().unwrap();
        assert_eq!(
            ph,
            PhaseBreakdown {
                queue_wait_ns: 400,
                compute_ns: 0,
                egress_ns: 0
            }
        );
    }

    #[test]
    fn reconstruct_splits_interleaved_requests_and_skips_untagged() {
        let a = TraceId::from_request(1).raw();
        let b = TraceId::from_request(2).raw();
        let p = profile_of(vec![
            mark(names::REQ_ENQUEUE, 0, 0, a),
            mark(names::REQ_ENQUEUE, 1, 1, b),
            mark("gemm.grouped.cta", 2, 2, 0),
            mark(names::REQ_DONE, 10, 3, a),
            mark(names::REQ_SHED_QUEUE_FULL, 1, 4, b),
        ]);
        let traces = reconstruct(&p);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].outcome(), TraceOutcome::Done);
        assert_eq!(traces[1].outcome(), TraceOutcome::Shed("queue_full".into()));
        assert!(traces.iter().all(|t| t.events.iter().all(|e| e.trace != 0)));
    }

    #[test]
    fn open_timeline_reports_open() {
        let tag = TraceId::from_request(9).raw();
        let p = profile_of(vec![mark(names::REQ_ENQUEUE, 5, 0, tag)]);
        let t = &reconstruct(&p)[0];
        assert_eq!(t.outcome(), TraceOutcome::Open);
        assert_eq!(t.phases(), None);
        assert_eq!(t.total_ns(), None);
    }

    #[test]
    fn render_mentions_outcome_and_phases() {
        let tag = TraceId::from_request(5).raw();
        let p = profile_of(vec![
            mark(names::REQ_ENQUEUE, 0, 0, tag),
            mark(names::REQ_ROUND, 100, 1, tag),
            mark(names::REQ_DONE, 300, 2, tag),
        ]);
        let text = reconstruct(&p)[0].render();
        assert!(text.contains("request #5"));
        assert!(text.contains("done"));
        assert!(text.contains("queue"));
        assert!(text.contains(names::REQ_ROUND));
    }
}
