//! Spans around the benchmark's calls into each layer.
//!
//! Every job opens a root span; each layer call it makes is a child of
//! that root. Spans stay in memory and are written out once, when the
//! run ends. With tracing off only the root is timed, which the job
//! latency needs anyway.

use ndc::types::Json;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span of the same job.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one job, rooted at a span named after the job kind.
pub struct JobTrace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl JobTrace {
    /// Open the root span of job `job`. `on` records layer spans too.
    pub fn start(on: bool, epoch: Instant, job: u64, root: &'static str) -> JobTrace {
        let now = ns_since(epoch);
        JobTrace {
            on,
            epoch,
            spans: vec![Span {
                name: root,
                job,
                parent: None,
                start_ns: now,
                end_ns: now,
            }],
        }
    }

    /// Run one layer call, timed as a child of the root when tracing.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = ns_since(self.epoch);
        let r = f();
        let end_ns = ns_since(self.epoch);
        self.spans.push(Span {
            name,
            job: self.spans[0].job,
            parent: Some(0),
            start_ns,
            end_ns,
        });
        r
    }

    /// Close the root span; the root comes first in the returned list.
    pub fn finish(mut self) -> Vec<Span> {
        self.spans[0].end_ns = ns_since(self.epoch);
        self.spans
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Self time of every span of one job: its duration minus the time its
/// children cover. Children of one parent never overlap (a job runs on
/// one thread), so the subtraction is exact.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Chrome trace-event document (`chrome://tracing`, Perfetto): one
/// complete event per span on the job's lane, with its parent's index.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", s.name)
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", s.dur_ns() as f64 / 1e3)
                .with("pid", 0u64)
                .with("tid", s.job)
                .with(
                    "args",
                    Json::obj().with("job", s.job).with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                )
        })
        .collect();
    Json::obj().with("traceEvents", events)
}
