//! In-memory spans for the traced run. The harness records a span
//! around each call it makes into a layer (and turns the program's own
//! `PassStart`/`PassEnd` events into child spans); nothing is written
//! until the run ends. A layer's self time is a span's duration minus
//! the part of it its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use mmjoin_calibrate::json::escape;
use mmjoin_env::trace::{TraceEvent, TraceRecord};

/// One recorded interval, in seconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation (join rep,
    /// batch, job).
    pub op: u64,
    /// The crate the time belongs to.
    pub layer: &'static str,
    pub name: String,
    pub start: f64,
    pub end: f64,
}

/// Span recorder. Disabled (the untraced run) it still times calls but
/// keeps nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Record a finished interval; returns its id when tracing is on.
    pub fn record(
        &self,
        layer: &'static str,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("no harness thread panics holding the spans");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            op,
            layer,
            name: name.to_string(),
            start,
            end,
        });
        Some(id)
    }

    /// Run `f`, returning its result, its wall seconds and (traced) the
    /// id of the span recorded around it.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64, Option<usize>) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (
            out,
            end - start,
            self.record(layer, name, op, parent, start, end),
        )
    }

    /// Turn the program's pass events (stamped with the environment's
    /// clock, which the caller reset at tracer time `t0`) into `core`
    /// child spans of `parent`.
    pub fn record_passes(&self, records: &[TraceRecord], t0: f64, op: u64, parent: Option<usize>) {
        if !self.enabled {
            return;
        }
        let mut open: Vec<(u32, u32, u32, f64)> = Vec::new();
        for rec in records {
            match &rec.event {
                TraceEvent::PassStart {
                    proc, pass, phase, ..
                } => {
                    open.push((*proc, *pass, *phase, rec.t));
                }
                TraceEvent::PassEnd {
                    proc,
                    pass,
                    phase,
                    area,
                    ..
                } => {
                    let key = (*proc, *pass, *phase);
                    if let Some(at) = open.iter().position(|o| (o.0, o.1, o.2) == key) {
                        let (_, _, _, started) = open.swap_remove(at);
                        let name = format!("pass{pass}.{phase} rproc{proc} {area}");
                        self.record("core", &name, op, parent, t0 + started, t0 + rec.t);
                    }
                }
                _ => {}
            }
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("spans lock").clone()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span, so overlapping or
/// overhanging children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Self seconds summed per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_insert(0.0) += own;
    }
    by_layer
}

/// One JSON line per span, for `perf_trace_<workload>.jsonl`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (s, own) in spans.iter().zip(own) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start\":{:.9},\"end\":{:.9},\"self\":{own:.9}}}\n",
            s.id,
            s.op,
            s.layer,
            escape(&s.name),
            s.start,
            s.end,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer,
            name: format!("s{id}"),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_cover_of_overlapping_children_once() {
        let spans = vec![
            span(0, None, "bench", 0.0, 10.0),
            // Two overlapping children cover [1, 6]; a third overhangs
            // the parent's end and is clipped to [9, 10].
            span(1, Some(0), "core", 1.0, 4.0),
            span(2, Some(0), "core", 3.0, 6.0),
            span(3, Some(0), "mmstore", 9.0, 12.0),
            // A grandchild only reduces its own parent.
            span(4, Some(1), "mmstore", 2.0, 3.0),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 4.0).abs() < 1e-12, "10 - 5 - 1 = {}", own[0]);
        assert!((own[1] - 2.0).abs() < 1e-12);
        assert!((own[2] - 3.0).abs() < 1e-12);
        assert!((own[3] - 3.0).abs() < 1e-12);
        let by_layer = self_by_layer(&spans);
        assert!((by_layer["core"] - 5.0).abs() < 1e-12);
        assert!((by_layer["mmstore"] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let off = Tracer::new(false);
        let (v, secs, id) = off.time("core", "x", 1, None, || 7);
        assert_eq!((v, id), (7, None));
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        let (_, _, parent) = on.time("bench", "outer", 1, None, || ());
        let (_, _, child) = on.time("core", "inner", 1, parent, || ());
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[child.unwrap()].parent, parent);
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }

    #[test]
    fn pass_events_become_child_spans_on_the_tracer_clock() {
        let t = Tracer::new(true);
        let start = |proc, at| TraceRecord {
            t: at,
            event: TraceEvent::PassStart {
                proc,
                pass: 0,
                phase: 0,
                disk: proc,
                area: "R".into(),
            },
        };
        let end = |proc, at| TraceRecord {
            t: at,
            event: TraceEvent::PassEnd {
                proc,
                pass: 0,
                phase: 0,
                disk: proc,
                area: "R".into(),
                bytes: 0,
                objects: 0,
            },
        };
        let parent = t.record("core", "join", 3, None, 5.0, 6.0);
        t.record_passes(
            &[start(0, 0.1), start(1, 0.1), end(1, 0.4), end(0, 0.5)],
            5.0,
            3,
            parent,
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|s| s.parent == parent && s.op == 3));
        assert!((spans[1].start - 5.1).abs() < 1e-12 && (spans[1].end - 5.4).abs() < 1e-12);
    }
}
