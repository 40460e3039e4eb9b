//! The benchmark's own wall-clock spans, recorded around every call it
//! makes into a layer's public function during a traced run.
//!
//! Spans live in memory and are written out once, at exit.  A span's
//! *self time* is its duration minus the part of it its child spans
//! cover; summing self time per layer attributes the benchmark's wall
//! time without double counting nested calls.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.  `parent` is an index into the recorder's span
/// list (`u32::MAX` for a root); spans of one request share `req`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// A handle to an open span, closed with [`Recorder::end`].
#[must_use]
pub struct Open(Option<u32>);

pub const NO_PARENT: u32 = u32::MAX;

/// In-memory span recorder.  Disabled recorders record nothing and cost
/// one branch per call, so untraced runs pay (almost) nothing.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { layer, name, start_ns, end_ns: start_ns, parent, req });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open` (spans close in LIFO order).
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Record `f` as one span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(layer, name, req);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated span file: one header line, then one span per line.
    pub fn render(&self) -> String {
        let mut out = String::from("id\tparent\treq\tlayer\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            out.push_str(&format!(
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\n",
                s.req, s.layer, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// durations of its direct children (children nest inside their parent,
/// so their sum is exactly the covered part).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { layer, name: "x", start_ns, end_ns, parent, req: 1 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench [0,100) ⊃ guest [10,60) ⊃ inner [20,30); guest [70,90).
        let spans = vec![
            span("bench", 0, 100, NO_PARENT),
            span("guest", 10, 60, 0),
            span("inner", 20, 30, 1),
            span("guest", 70, 90, 0),
        ];
        let st = self_time_by_layer(&spans);
        assert_eq!(st["bench"], 100 - 50 - 20);
        assert_eq!(st["guest"], (50 - 10) + 20);
        assert_eq!(st["inner"], 10);
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        let outer = r.begin("bench", "op", 7);
        r.span("core.guest", "send", 7, || ());
        r.end(outer);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, 0);
        assert_eq!(r.spans()[1].req, 7);
        assert!(r.render().lines().count() == 3);

        let mut off = Recorder::new(false);
        let o = off.begin("bench", "op", 1);
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
