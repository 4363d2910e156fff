//! The span recorder behind `--trace`.
//!
//! Spans are opened only from this package's wrappers, around the calls into
//! each layer. Every closed span is folded into its layer's aggregate (count,
//! total, self time, log-bucket histogram); full spans are kept in memory for
//! every 64th request and written as JSON lines when the pass ends.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover. The engine call is the root span of a sim
//! pass, so the scheduler's self time is the call's wall time minus the
//! generator, predictor and sink spans inside it, and the self times of all
//! layers sum to the wall time by construction.
//!
//! The recorder is thread-local: the load generators are single-threaded, and
//! wrappers handed to the engines as `Box<dyn MemoryPredictor>` (which must
//! be `Send`) then need no handle to it.

use crate::stats::LogHistogram;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Full spans are kept for requests whose sequence number divides by this.
const KEEP_EVERY: u64 = 64;

/// One layer's aggregate over a traced pass.
#[derive(Clone, Default)]
pub struct LayerAgg {
    pub name: &'static str,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    /// Span durations: count, sum, max and percentiles.
    pub durations: LogHistogram,
}

impl LayerAgg {
    pub fn count(&self) -> u64 {
        self.durations.count()
    }

    pub fn busy_s(&self) -> f64 {
        self.durations.sum_ns() as f64 / 1e9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    pub fn merged(mut self, other: &LayerAgg) -> LayerAgg {
        self.self_ns += other.self_ns;
        self.durations.merge(&other.durations);
        self
    }
}

/// A kept span: `parent` is the id of the span that was open when this one
/// began, `(tenant, seq)` the request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tenant: u32,
    pub seq: u64,
}

struct Open {
    id: u64,
    start_ns: u64,
    child_ns: u64,
    tenant: u32,
    seq: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    layers: Vec<LayerAgg>,
    counters: Vec<(&'static str, u64)>,
    kept: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// What a traced pass recorded.
pub struct TraceReport {
    pub layers: Vec<LayerAgg>,
    pub counters: Vec<(&'static str, u64)>,
    pub kept: Vec<Span>,
}

impl TraceReport {
    /// The aggregate of `name`, empty when the pass opened no such span.
    pub fn layer(&self, name: &'static str) -> LayerAgg {
        self.layers
            .iter()
            .find(|l| l.name == name)
            .cloned()
            .unwrap_or(LayerAgg {
                name,
                ..LayerAgg::default()
            })
    }

    /// The total added to counter `name`, zero when nothing was.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn spans(&self) -> u64 {
        self.layers.iter().map(LayerAgg::count).sum()
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"tenant\": {}, \"seq\": {}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.tenant, s.seq
            )?;
        }
        out.flush()
    }
}

/// Starts recording on this thread. Spans opened while no recording is
/// active cost one thread-local read and record nothing.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            layers: Vec::new(),
            counters: Vec::new(),
            kept: Vec::new(),
        });
    });
}

/// Stops recording and returns what was recorded.
///
/// # Panics
/// Panics when no recording is active or a span is still open — both are
/// bugs in the calling wrapper, not conditions a run can meet.
pub fn finish() -> TraceReport {
    let recorder = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("trace::finish without trace::start");
    assert!(recorder.stack.is_empty(), "a span is still open");
    TraceReport {
        layers: recorder.layers,
        counters: recorder.counters,
        kept: recorder.kept,
    }
}

/// Opens a span for request `(tenant, seq)`. Pair with [`end`].
pub fn begin(tenant: u32, seq: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let id = rec.next_id;
            rec.next_id += 1;
            // Read the clock last, so recorder bookkeeping lands in the
            // parent's self time, not in this span.
            let start_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.stack.push(Open {
                id,
                start_ns,
                child_ns: 0,
                tenant,
                seq,
            });
        }
    });
}

/// Closes the innermost open span under `name`. The name is given at the
/// end so a wrapper can classify the call by what it did (an observe that
/// ran a full retrain against one that did not).
pub fn end(name: &'static str) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end_ns = rec.epoch.elapsed().as_nanos() as u64;
            let open = rec.stack.pop().expect("trace::end without trace::begin");
            let duration = end_ns.saturating_sub(open.start_ns);
            let parent = rec.stack.last_mut().map(|p| {
                p.child_ns += duration;
                p.id
            });
            let index = match rec.layers.iter().position(|l| l.name == name) {
                Some(i) => i,
                None => {
                    rec.layers.push(LayerAgg {
                        name,
                        ..LayerAgg::default()
                    });
                    rec.layers.len() - 1
                }
            };
            let layer = &mut rec.layers[index];
            layer.durations.record(duration);
            layer.self_ns += duration.saturating_sub(open.child_ns);
            if open.seq % KEEP_EVERY == 0 {
                rec.kept.push(Span {
                    id: open.id,
                    parent,
                    name,
                    start_ns: open.start_ns,
                    end_ns,
                    tenant: open.tenant,
                    seq: open.seq,
                });
            }
        }
    });
}

/// Adds `n` to the counter `name`: counts are recorded at the same
/// boundaries as spans, so ratios are measured where the work happens.
pub fn add(name: &'static str, n: u64) {
    if n == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            match rec.counters.iter_mut().find(|(c, _)| *c == name) {
                Some((_, total)) => *total += n,
                None => rec.counters.push((name, n)),
            }
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, tenant: u32, seq: u64, f: impl FnOnce() -> R) -> R {
    begin(tenant, seq);
    let out = f();
    end(name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let until = Instant::now() + d;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        start();
        span("root", 0, 0, || {
            spin(Duration::from_millis(2));
            span("child", 1, 64, || {
                spin(Duration::from_millis(3));
                span("leaf", 1, 64, || spin(Duration::from_millis(1)));
            });
            span("child", 2, 7, || spin(Duration::from_millis(1)));
        });
        let report = finish();
        let (root, child, leaf) = (
            report.layer("root"),
            report.layer("child"),
            report.layer("leaf"),
        );
        assert_eq!((root.count(), child.count(), leaf.count()), (1, 2, 1));
        assert_eq!(report.spans(), 4);
        // Self times partition the root's wall time exactly.
        assert_eq!(
            root.self_ns + child.self_ns + leaf.self_ns,
            root.durations.sum_ns()
        );
        assert_eq!(leaf.self_ns, leaf.durations.sum_ns());
        assert_eq!(
            child.self_ns,
            child.durations.sum_ns() - leaf.durations.sum_ns()
        );
        assert!(root.self_s() >= 0.002 && root.self_s() < root.busy_s());
        assert!(child.self_s() >= 0.004);
        assert_eq!(report.layer("absent").count(), 0);
    }

    #[test]
    fn only_every_64th_request_keeps_its_full_spans_with_parents() {
        start();
        span("root", 0, 0, || {
            for seq in 1..=130u64 {
                span("op", 3, seq, || {});
            }
        });
        let report = finish();
        assert_eq!(report.layer("op").count(), 130);
        let kept: Vec<(&str, u64, Option<u64>)> = report
            .kept
            .iter()
            .map(|s| (s.name, s.seq, s.parent))
            .collect();
        let root_id = report.kept.last().expect("root kept").id;
        assert_eq!(
            kept,
            vec![
                ("op", 64, Some(root_id)),
                ("op", 128, Some(root_id)),
                ("root", 0, None)
            ]
        );
        assert!(report.kept.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn spans_outside_a_recording_are_ignored() {
        assert_eq!(span("idle", 0, 0, || 41 + 1), 42);
        start();
        assert_eq!(finish().spans(), 0);
    }

    #[test]
    fn the_name_given_at_the_end_classifies_the_span() {
        start();
        for (seq, slow) in [(1u64, false), (2, true), (3, false)] {
            begin(0, seq);
            end(if slow {
                "observe.retrain"
            } else {
                "observe.incremental"
            });
            add("retrains", u64::from(slow));
        }
        let report = finish();
        assert_eq!(report.counter("retrains"), 1);
        assert_eq!(report.counter("absent"), 0);
        assert_eq!(report.layer("observe.retrain").count(), 1);
        assert_eq!(report.layer("observe.incremental").count(), 2);
        let all = report
            .layer("observe.retrain")
            .merged(&report.layer("observe.incremental"));
        assert_eq!(all.count(), 3);
    }
}
