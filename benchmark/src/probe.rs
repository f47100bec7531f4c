//! Tracing from outside the program: spans recorded by the benchmark's
//! own code around each call into a layer, plus a recorder for the frames
//! a switch actually received (the layer ladder's input).
//!
//! Both live in a thread-local session, like `edp_telemetry`: a traced
//! run enables it, the wrappers below feed it, and the harness takes the
//! log when the run ends. Nothing here is reachable from an untraced
//! run — end-to-end numbers never pay for it.

use edp_core::CpNotification;
use edp_evsim::SimTime;
use edp_netsim::traffic::FrameFn;
use edp_netsim::SwitchHarness;
use edp_packet::Packet;
use edp_pisa::PortId;
use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

/// Span names, in trace order. The index is what a [`Span`] stores.
pub const NAMES: [&str; 8] = [
    "setup",
    "Sim::step",
    "switch.receive",
    "switch.transmit",
    "switch.fire_due_timers",
    "FrameFn",
    "PcapFile::parse",
    "run_sharded_opts",
];
/// World build before the timed region.
pub const SETUP: u8 = 0;
/// One `Sim::step` (one fired event) of the harness-driven loop.
pub const STEP: u8 = 1;
/// `SwitchHarness::receive` through [`Timed`].
pub const SW_RX: u8 = 2;
/// `SwitchHarness::transmit` through [`Timed`].
pub const SW_TX: u8 = 3;
/// `SwitchHarness::fire_due_timers` through [`Timed`].
pub const SW_TIMER: u8 = 4;
/// The workload's frame generator closure.
pub const GEN: u8 = 5;
/// `PcapFile::parse` of the replayed capture.
pub const PCAP_PARSE: u8 = 6;
/// The whole sharded run, on the calling thread.
pub const SHARDED: u8 = 7;

/// "No parent" marker for a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the session epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: u8,
    /// Index of the enclosing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// A frame as a switch received it.
#[derive(Debug, Clone)]
pub struct FrameRec {
    /// Simulated arrival time.
    pub at: SimTime,
    /// Ingress port.
    pub port: PortId,
    /// The frame bytes.
    pub bytes: Vec<u8>,
}

/// What a probe session collects.
#[derive(Debug)]
pub struct Session {
    epoch: Instant,
    /// Track id for the trace file (0 = main thread, 1.. = shard + 1).
    pub tid: u32,
    /// Closed and still-open spans, in start order.
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Frames received by switch 0, up to the session's cap.
    pub frames: Vec<FrameRec>,
    frame_cap: usize,
}

thread_local! {
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// Starts a session on this thread. `span_cap` pre-sizes the span log so
/// the traced run does not pay for its growth; `frame_cap` is how many
/// frames of switch 0 to keep (0 = none).
pub fn enable(epoch: Instant, tid: u32, span_cap: usize, frame_cap: usize) {
    SESSION.with(|s| {
        *s.borrow_mut() = Some(Session {
            epoch,
            tid,
            spans: Vec::with_capacity(span_cap),
            open: Vec::new(),
            frames: Vec::with_capacity(frame_cap),
            frame_cap,
        })
    });
}

/// Ends this thread's session and returns what it collected.
pub fn disable() -> Option<Session> {
    SESSION.with(|s| s.borrow_mut().take())
}

/// Runs `f` inside a span named `name` (a plain call when no session is
/// enabled on this thread).
pub fn span<R>(name: u8, f: impl FnOnce() -> R) -> R {
    let opened = SESSION.with(|s| {
        let mut s = s.borrow_mut();
        let Some(s) = s.as_mut() else { return false };
        let parent = s.open.last().copied().unwrap_or(NO_PARENT);
        let idx = s.spans.len() as u32;
        s.open.push(idx);
        let start_ns = s.epoch.elapsed().as_nanos() as u64;
        s.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        true
    });
    let r = f();
    if opened {
        SESSION.with(|s| {
            let mut s = s.borrow_mut();
            let s = s.as_mut().expect("session ended inside a span");
            let idx = s.open.pop().expect("span stack underflow");
            s.spans[idx as usize].end_ns = s.epoch.elapsed().as_nanos() as u64;
        });
    }
    r
}

fn record_frame(at: SimTime, port: PortId, pkt: &Packet) {
    SESSION.with(|s| {
        if let Some(s) = s.borrow_mut().as_mut() {
            if s.frames.len() < s.frame_cap {
                s.frames.push(FrameRec {
                    at,
                    port,
                    bytes: pkt.bytes().to_vec(),
                });
            }
        }
    });
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once, children
/// are clipped to the parent). Spans must be in start order, which is how
/// [`span`] logs them.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // Per parent: end of the child coverage counted so far.
    let mut frontier: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let lo = s.start_ns.max(frontier[p]);
        let hi = s.end_ns.min(spans[p].end_ns);
        if hi > lo {
            covered[p] += hi - lo;
            frontier[p] = hi;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
        .collect()
}

/// `(calls, total self ns)` per span name, indexed like [`NAMES`].
pub fn totals(sessions: &[Session]) -> [(u64, u64); NAMES.len()] {
    let mut out = [(0u64, 0u64); NAMES.len()];
    for s in sessions {
        for (span, own) in s.spans.iter().zip(self_times(&s.spans)) {
            let t = &mut out[span.name as usize];
            t.0 += 1;
            t.1 += own;
        }
    }
    out
}

/// Renders sessions as Chrome trace-event JSON (Perfetto-loadable; the
/// dialect of `edp_telemetry::prof::to_trace_json`): one thread track per
/// session, every span a complete (`"X"`) event carrying its parent's
/// index and the workload/repetition it belongs to.
pub fn to_trace_json(workload: &str, rep: u64, sessions: &[Session]) -> String {
    use std::fmt::Write as _;
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"{workload} rep {rep}\"}}}}"
    );
    for s in sessions {
        let tid = s.tid;
        for (i, sp) in s.spans.iter().enumerate() {
            let parent = if sp.parent == NO_PARENT {
                -1
            } else {
                i64::from(sp.parent)
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                NAMES[sp.name as usize],
                us(sp.start_ns),
                us(sp.end_ns - sp.start_ns),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Wraps a frame generator so each call is a [`GEN`] span.
pub fn timed_frames(mut f: impl FrameFn) -> impl FrameFn {
    move |i| span(GEN, || f(i))
}

/// A switch decorator that times `receive` / `transmit` /
/// `fire_due_timers` as spans and (for switch 0) records received frames.
/// Everything else forwards untouched, and `as_any` answers for the
/// *inner* switch so `Network::switch_as` keeps working — the decorator
/// must be invisible to the simulation (a unit test pins the digest with
/// and without it).
pub struct Timed {
    inner: Box<dyn SwitchHarness>,
    record: bool,
}

impl Timed {
    /// Wraps `inner`; `record` turns on frame recording for this switch.
    pub fn wrap(inner: Box<dyn SwitchHarness>, record: bool) -> Box<dyn SwitchHarness> {
        Box::new(Timed { inner, record })
    }
}

impl SwitchHarness for Timed {
    fn n_ports(&self) -> usize {
        self.inner.n_ports()
    }
    fn receive(&mut self, now: SimTime, port: PortId, pkt: Packet) {
        if self.record {
            record_frame(now, port, &pkt);
        }
        span(SW_RX, || self.inner.receive(now, port, pkt))
    }
    fn receive_burst(&mut self, now: SimTime, port: PortId, burst: edp_packet::Burst) {
        self.inner.receive_burst(now, port, burst)
    }
    fn transmit(&mut self, now: SimTime, port: PortId) -> Option<Packet> {
        span(SW_TX, || self.inner.transmit(now, port))
    }
    fn has_pending(&self, port: PortId) -> bool {
        self.inner.has_pending(port)
    }
    fn fire_due_timers(&mut self, now: SimTime) {
        span(SW_TIMER, || self.inner.fire_due_timers(now))
    }
    fn next_timer_due(&self) -> Option<SimTime> {
        self.inner.next_timer_due()
    }
    fn set_link_status(&mut self, now: SimTime, port: PortId, up: bool) {
        self.inner.set_link_status(now, port, up)
    }
    fn control_plane(&mut self, now: SimTime, opcode: u32, args: [u64; 4]) {
        self.inner.control_plane(now, opcode, args)
    }
    fn drain_cp(&mut self) -> Vec<CpNotification> {
        self.inner.drain_cp()
    }
    fn publish_metrics(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        self.inner.publish_metrics(reg, scope)
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: u8, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            sp(STEP, NO_PARENT, 0, 100),
            sp(SW_RX, 0, 10, 30),  // 20 covered
            sp(SW_TX, 0, 25, 50),  // overlaps the first: 20 more
            sp(GEN, 2, 30, 40),    // grandchild: charged to span 2 only
            sp(SW_TX, 0, 90, 120), // clipped to the parent: 10
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 15, 10, 30]);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        enable(Instant::now(), 0, 16, 0);
        let v = span(STEP, || span(SW_RX, || 7) + span(SW_TX, || 1));
        let s = disable().expect("session");
        assert_eq!(v, 8);
        let shape: Vec<(u8, u32)> = s.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(shape, vec![(STEP, NO_PARENT), (SW_RX, 0), (SW_TX, 0)]);
        assert!(s.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s.spans[0].end_ns >= s.spans[2].end_ns);
        // Without a session the wrapper is a plain call.
        assert_eq!(span(STEP, || 3), 3);
        assert!(disable().is_none());
    }

    #[test]
    fn trace_json_is_loadable_json() {
        enable(Instant::now(), 2, 4, 0);
        span(SETUP, || span(STEP, || ()));
        let s = disable().expect("session");
        let text = to_trace_json("w", 1, &[s]);
        let doc = crate::json::Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").expect("events").items();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("ph").and_then(|p| p.as_str()), Some("X"));
        let parents: Vec<f64> = events[1..]
            .iter()
            .filter_map(|e| e.get("args")?.get("parent")?.as_f64())
            .collect();
        assert_eq!(parents, vec![-1.0, 0.0]);
    }
}
