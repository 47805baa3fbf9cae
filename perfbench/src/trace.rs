//! The benchmark's span recorder.
//!
//! Spans are kept in memory around the benchmark's own calls into the
//! program (workload → set-up / pass → case → `try_run` / verify, and each
//! layer probe) and written out once, when the run ends, as Chrome
//! trace-event JSON. A disabled recorder records nothing: the untraced
//! passes pay one branch per boundary.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The boundary: `workload`, `setup`, `pass`, `case`, `try_run`,
    /// `verify`, `probe`, ...
    pub name: &'static str,
    /// What the boundary was applied to (a kernel, a probe, a workload).
    pub detail: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span (an index into [`Recorder::spans`]).
    pub parent: Option<usize>,
    /// The kernel run this span serves (0 outside any run): the spans of
    /// one run share it.
    pub run_id: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u64,
}

/// A span opened by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`]. `None` when the recorder was disabled at entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an opened span must be closed with Recorder::exit"]
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder that records only while enabled.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run_id: 0 }
    }

    /// Turns recording on or off for the spans entered from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans entered now are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the run id the spans entered from now on carry.
    pub fn set_run(&mut self, run_id: u64) {
        self.run_id = run_id;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, detail: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            detail,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let span = self.enter(name, detail);
        let out = f(self);
        self.exit(span);
        out
    }

    /// Every recorded span, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it its child
    /// spans cover (children never overlap: one thread records them all).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= span.end_ns - span.start_ns;
            }
        }
        self_ns
    }

    /// Total self time of the spans called `name` recorded from span index
    /// `from` on, in nanoseconds.
    pub fn self_total_ns(&self, name: &str, from: usize) -> u64 {
        let self_ns = self.self_times_ns();
        (from..self.spans.len()).filter(|&i| self.spans[i].name == name).map(|i| self_ns[i]).sum()
    }

    /// The spans as Chrome trace-event JSON ("X" complete events, times in
    /// microseconds), loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"run_id\":{},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                if span.detail.is_empty() { span.name } else { span.detail },
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.run_id,
                self_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, detail: "", start_ns, end_ns, parent, run_id: 0 }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            span("pass", 0, 100, None),
            span("case", 10, 60, Some(0)),
            span("try_run", 12, 50, Some(1)),
            span("verify", 50, 55, Some(1)),
            span("case", 60, 90, Some(0)),
        ];
        assert_eq!(rec.self_times_ns(), vec![20, 7, 38, 5, 30]);
        assert_eq!(rec.self_total_ns("case", 0), 37);
        assert_eq!(rec.self_total_ns("case", 2), 30);
    }

    #[test]
    fn nesting_parents_and_run_ids_follow_entry_order() {
        let mut rec = Recorder::new(true);
        rec.scope("pass", "", |rec| {
            rec.set_run(3);
            rec.scope("case", "jacobi", |rec| rec.scope("try_run", "jacobi", |_| ()));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(1)]
        );
        assert_eq!(spans.iter().map(|s| s.run_id).collect::<Vec<_>>(), vec![0, 3, 3]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = rec.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.scope("pass", "", |rec| rec.scope("case", "sor", |_| ()));
        assert!(rec.spans().is_empty());
        assert_eq!(rec.chrome_json(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n");
    }
}
