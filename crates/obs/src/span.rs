//! Hierarchical spans with wall-time and simulated-cycle attribution.
//!
//! A span is a named region of execution. Spans nest: entering a span
//! while another is open makes it a child, so a CSIDH group action
//! decomposes into its sample / cofactor / isogeny / normalize phases
//! exactly like the paper's cost model. Each span accumulates
//!
//! * wall-clock time (host nanoseconds),
//! * **simulated** cycles and retired instructions, attributed by the
//!   simulator-backed layers via [`add_sim_cost`] — when a field
//!   kernel runs on the Rocket pipeline model, its `RunStats` delta is
//!   charged to the innermost open span.
//!
//! Collection is per-thread (a thread-local frame stack), aggregated
//! by name: re-entering `"csidh.isogeny"` under the same parent folds
//! into one node with `count += 1`. [`take_spans`] drains the calling
//! thread's finished tree.
//!
//! Everything is gated on the global [`crate::enabled`] flag: when
//! telemetry is off (the default), [`span`] and [`add_sim_cost`] cost
//! one relaxed atomic load and touch no thread-local state.
//!
//! # Examples
//!
//! ```
//! mpise_obs::set_enabled(true);
//! {
//!     let _action = mpise_obs::span("csidh.action");
//!     {
//!         let _phase = mpise_obs::span("csidh.isogeny");
//!         mpise_obs::add_sim_cost(1200, 800);
//!     }
//! }
//! let tree = mpise_obs::take_spans();
//! let action = tree.child("csidh.action").unwrap();
//! assert_eq!(action.total_cycles(), 1200);
//! assert_eq!(action.child("csidh.isogeny").unwrap().instret, 800);
//! mpise_obs::set_enabled(false);
//! ```

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One aggregated node of a finished span tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Times a span with this name closed under this parent.
    pub count: u64,
    /// Total wall-clock nanoseconds across those closings.
    pub wall_ns: u64,
    /// Simulated cycles attributed directly to this span (children
    /// excluded; see [`SpanNode::total_cycles`]).
    pub cycles: u64,
    /// Simulated instructions retired, attributed directly.
    pub instret: u64,
    /// Child spans by name.
    pub children: BTreeMap<&'static str, SpanNode>,
}

impl SpanNode {
    /// Looks up a direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.get(name)
    }

    /// Simulated cycles of this span including all descendants.
    pub fn total_cycles(&self) -> u64 {
        self.cycles
            + self
                .children
                .values()
                .map(SpanNode::total_cycles)
                .sum::<u64>()
    }

    /// Retired simulated instructions including all descendants.
    pub fn total_instret(&self) -> u64 {
        self.instret
            + self
                .children
                .values()
                .map(SpanNode::total_instret)
                .sum::<u64>()
    }

    fn merge(&mut self, other: SpanNode) {
        self.count += other.count;
        self.wall_ns += other.wall_ns;
        self.cycles += other.cycles;
        self.instret += other.instret;
        for (name, child) in other.children {
            self.children.entry(name).or_default().merge(child);
        }
    }
}

/// A finished, per-thread span forest (the virtual root's children).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Top-level spans by name.
    pub roots: BTreeMap<&'static str, SpanNode>,
}

impl SpanTree {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Looks up a top-level span by name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.roots.get(name)
    }

    /// Simulated cycles summed over the whole forest.
    pub fn total_cycles(&self) -> u64 {
        self.roots.values().map(SpanNode::total_cycles).sum()
    }

    /// Folds another tree into this one (aggregating by name), e.g. to
    /// combine the trees of several worker threads.
    pub fn merge(&mut self, other: SpanTree) {
        for (name, node) in other.roots {
            self.roots.entry(name).or_default().merge(node);
        }
    }

    /// Renders the tree as indented text, one line per node.
    pub fn render(&self) -> String {
        fn walk(out: &mut String, name: &str, node: &SpanNode, depth: usize) {
            out.push_str(&format!(
                "{:indent$}{name}: count {}, wall {:.3} ms, cycles {} (subtree {})\n",
                "",
                node.count,
                node.wall_ns as f64 / 1e6,
                node.cycles,
                node.total_cycles(),
                indent = depth * 2,
            ));
            for (child_name, child) in &node.children {
                walk(out, child_name, child, depth + 1);
            }
        }
        let mut out = String::new();
        for (name, node) in &self.roots {
            walk(&mut out, name, node, 0);
        }
        out
    }

    /// JSON value of the forest (an object keyed by span name), as
    /// embedded in the `mpise-obs/v1` snapshot.
    pub(crate) fn to_json(&self) -> Value {
        fn forest(nodes: &BTreeMap<&'static str, SpanNode>) -> Value {
            Value::object(nodes.iter().map(|(name, node)| {
                let fields = crate::object! {
                    "count": node.count, "wall_ns": node.wall_ns, "cycles": node.cycles,
                    "instret": node.instret, "total_cycles": node.total_cycles(),
                    "children": forest(&node.children),
                };
                (*name, fields)
            }))
        }
        forest(&self.roots)
    }
}

/// One open span on a thread's stack.
struct Frame {
    name: &'static str,
    start: Instant,
    cycles: u64,
    instret: u64,
    children: BTreeMap<&'static str, SpanNode>,
}

#[derive(Default)]
struct Collector {
    stack: Vec<Frame>,
    finished: SpanTree,
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
}

/// RAII guard returned by [`span`]; closing (dropping) it records the
/// span into the thread's tree.
#[must_use = "a span is measured between its creation and its drop"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            let Some(frame) = c.stack.pop() else { return };
            let node = SpanNode {
                count: 1,
                wall_ns: frame.start.elapsed().as_nanos() as u64,
                cycles: frame.cycles,
                instret: frame.instret,
                children: frame.children,
            };
            match c.stack.last_mut() {
                Some(parent) => parent.children.entry(frame.name).or_default().merge(node),
                None => c.finished.roots.entry(frame.name).or_default().merge(node),
            }
        });
    }
}

/// Opens a span named `name` on the calling thread. Inert (and
/// near-free) while telemetry is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: false };
    }
    COLLECTOR.with(|c| {
        c.borrow_mut().stack.push(Frame {
            name,
            start: Instant::now(),
            cycles: 0,
            instret: 0,
            children: BTreeMap::new(),
        });
    });
    SpanGuard { active: true }
}

/// Charges simulated `cycles` and `instret` to the innermost open span
/// of the calling thread (no-op when telemetry is disabled or no span
/// is open). The simulator-backed field layers call this once per
/// kernel run with the run's `RunStats` delta.
pub fn add_sim_cost(cycles: u64, instret: u64) {
    if !crate::enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(frame) = c.borrow_mut().stack.last_mut() {
            frame.cycles += cycles;
            frame.instret += instret;
        }
    });
}

/// Drains and returns the calling thread's finished span tree.
/// Still-open spans stay on the stack and are not included.
pub fn take_spans() -> SpanTree {
    COLLECTOR.with(|c| std::mem::take(&mut c.borrow_mut().finished))
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Mutex;

    /// Serializes span tests: they share the process-global enabled
    /// flag and must not interleave with each other.
    static GATE: Mutex<()> = Mutex::new(());

    fn with_telemetry<T>(test: impl FnOnce() -> T) -> T {
        let _guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        crate::set_enabled(true);
        let _ = take_spans();
        let out = test();
        crate::set_enabled(false);
        out
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        crate::set_enabled(false);
        let _ = take_spans();
        {
            let _s = span("never");
            add_sim_cost(100, 10);
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn nesting_and_aggregation() {
        let tree = with_telemetry(|| {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
                add_sim_cost(10, 5);
            }
            add_sim_cost(1, 1);
            drop(_outer);
            take_spans()
        });
        let outer = tree.child("outer").expect("outer recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.cycles, 1, "direct cost only");
        let inner = outer.child("inner").expect("inner recorded");
        assert_eq!(inner.count, 3, "same-named spans aggregate");
        assert_eq!(inner.cycles, 30);
        assert_eq!(outer.total_cycles(), 31);
        assert_eq!(outer.total_instret(), 16);
        assert_eq!(tree.total_cycles(), 31);
    }

    #[test]
    fn cost_outside_any_span_is_dropped() {
        let tree = with_telemetry(|| {
            add_sim_cost(99, 99);
            {
                let _s = span("real");
                add_sim_cost(7, 7);
            }
            take_spans()
        });
        assert_eq!(tree.total_cycles(), 7);
    }

    #[test]
    fn merge_combines_worker_trees() {
        let (mut a, b) = with_telemetry(|| {
            {
                let _s = span("work");
                add_sim_cost(5, 5);
            }
            let a = take_spans();
            {
                let _s = span("work");
                add_sim_cost(6, 6);
            }
            (a, take_spans())
        });
        a.merge(b);
        let work = a.child("work").unwrap();
        assert_eq!(work.count, 2);
        assert_eq!(work.cycles, 11);
    }

    #[test]
    fn render_and_json_shapes() {
        let tree = with_telemetry(|| {
            let _a = span("a");
            {
                let _b = span("b");
                add_sim_cost(4, 2);
            }
            drop(_a);
            take_spans()
        });
        assert!(tree.render().contains("a:"));
        assert!(tree.render().contains("  b:"));
        let json = crate::json::parse(&tree.to_json().to_string()).expect("valid JSON");
        assert_eq!(json["a"]["total_cycles"], Value::from(4u64));
        assert_eq!(json["a"]["children"]["b"]["cycles"], Value::from(4u64));
    }
}
