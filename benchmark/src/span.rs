//! Bench-side spans: one record per call into a layer's public function,
//! taken from outside the program (the in-program collector of
//! `colorist_trace` is process-global and is not used here). Spans stay
//! in memory and are written out once, when the run ends.

use colorist_trace::escape_json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` is the span that caused it; spans of one
/// request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    /// `crate.function` of the layer boundary, e.g. `query.exec`.
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls and, when switched on, keeps a [`Span`] per call. Off, it
/// still returns every duration (the metrics need them) but stores
/// nothing — the difference between the two is the tracing overhead.
pub struct Recorder {
    epoch: Instant,
    /// High bits of every id, so recorders of several threads merge
    /// without collisions.
    id_base: u64,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`; `lane` separates
    /// the ids of concurrent recorders.
    pub fn new(epoch: Instant, lane: u32, on: bool) -> Recorder {
        Recorder { epoch, id_base: u64::from(lane) << 40, on, spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` as one span nested in the innermost open span; returns
    /// its result and its duration in nanoseconds.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, u64) {
        let slot = self.on.then(|| {
            let parent = self.open.last().map(|&i| self.spans[i].id);
            self.spans.push(Span {
                id: self.id_base + self.spans.len() as u64,
                parent,
                request,
                layer,
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (out, (end - start).as_nanos() as u64)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer: each span's duration minus the part of it its
/// direct children cover (children clipped to the parent's interval).
/// Summed over a whole tree this equals the root's duration, so the
/// layers account for all of a request's wall time and nothing twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let bounds: BTreeMap<u64, (u64, u64)> =
        spans.iter().map(|s| (s.id, (s.start_ns, s.end_ns))).collect();
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some((ps, pe)) = s.parent.and_then(|p| bounds.get(&p).copied()) {
            let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
            *covered.entry(s.parent.expect("has a parent")).or_default() += b.saturating_sub(a);
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_default() += own;
    }
    out
}

/// Wall time of the traced requests: the summed duration of the root spans.
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum()
}

/// The trace document: run identity, per-layer self times, every span.
pub fn trace_json(workload: &str, seed: u64, nproc: usize, spans: &[Span]) -> String {
    let mut j = String::with_capacity(128 + spans.len() * 120);
    j.push_str(&format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {nproc}, \"root_wall_ns\": {},\n",
        escape_json(workload),
        root_wall_ns(spans)
    ));
    let selfs: Vec<String> = self_times(spans)
        .iter()
        .map(|(layer, ns)| format!("\"{}\": {ns}", escape_json(layer)))
        .collect();
    j.push_str(&format!(" \"self_time_ns\": {{{}}},\n \"spans\": [\n", selfs.join(", ")));
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        j.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"layer\": \"{}\", \
             \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            s.id,
            s.request,
            escape_json(s.layer),
            escape_json(&s.name),
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    j.push_str(" ]}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_trace::Json;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, layer, name: format!("s{id}"), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "walk", 0, 100),
            span(1, Some(0), "query.exec", 10, 60),
            span(2, Some(1), "store.join", 20, 50), // grandchild of the root
            span(3, Some(0), "query.exec", 70, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["walk"], 100 - 50 - 20);
        assert_eq!(t["query.exec"], (50 - 30) + 20);
        assert_eq!(t["store.join"], 30);
        assert_eq!(t.values().sum::<u64>(), root_wall_ns(&spans), "self times partition the root");
    }

    #[test]
    fn self_time_clips_a_child_that_overruns_its_parent() {
        let spans = vec![span(0, None, "a", 10, 20), span(1, Some(0), "b", 15, 30)];
        assert_eq!(self_times(&spans)["a"], 5);
    }

    #[test]
    fn recorder_nests_calls_and_is_silent_when_off() {
        let mut rec = Recorder::new(Instant::now(), 2, true);
        let ((), outer) = rec.call("walk", "req", 7, |rec| {
            let (v, _) = rec.call("query.exec", "Q1", 7, |_| 41 + 1);
            assert_eq!(v, 42);
        });
        rec.set_on(false);
        let (_, dur) = rec.call("walk", "quiet", 8, |_| std::hint::black_box(3));
        assert!(dur < outer + 1_000_000_000);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2, "the switched-off call left no span");
        assert_eq!(spans[0].id, 2 << 40);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!((spans[0].request, spans[1].request), (7, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn trace_document_is_valid_json_with_escaped_names() {
        let mut spans = vec![span(0, None, "walk", 0, 10), span(1, Some(0), "query.exec", 2, 8)];
        spans[1].name = "read \"Q1\"\n".to_string();
        let doc = Json::parse(&trace_json("serve_reads", 42, 2, &spans)).expect("valid JSON");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("serve_reads"));
        assert_eq!(doc.get("root_wall_ns").and_then(Json::as_u64), Some(10));
        let arr = doc.get("spans").and_then(Json::as_arr).expect("span array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("parent"), Some(&Json::Null));
        assert_eq!(arr[1].get("name").and_then(Json::as_str), Some("read \"Q1\"\n"));
        let selfs = doc.get("self_time_ns").expect("self times");
        assert_eq!(selfs.get("walk").and_then(Json::as_u64), Some(4));
        assert_eq!(selfs.get("query.exec").and_then(Json::as_u64), Some(6));
    }
}
