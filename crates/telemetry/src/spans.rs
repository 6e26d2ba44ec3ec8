//! Hierarchical spans: session → run → function-call → guard-check,
//! with cycle-accurate per-category self time.
//!
//! The span recorder derives all timing from the VM's category clock
//! (the six running [`CycleCategory`] totals)
//! carried on function enter/exit and run-end events: at each
//! boundary, the clock advance since the previous boundary is self
//! time of the span on top of the stack. The cost is proportional to
//! the call count, not the instruction count, and the attribution is
//! still exact — the VM's clock is deterministic, every boundary
//! carries it, and the top of the stack only changes at boundaries.
//!
//! Aggregation lives in one structure: a **call-path trie**. Every
//! open span points at the trie node for its full stack (found or
//! created on entry by a walk of the parent's children, so a repeated
//! call allocates nothing), and each node keeps a `[u64; 6]` self-time
//! array plus its call count and inclusive time. Node 0 is the run
//! span itself: time charged while no function frame is open (VM
//! prologue, top-level dispatch) lands there and becomes the `(vm)`
//! row. Both drain-time views come from the nodes:
//!
//! * [`SpanRecorder::collapsed_lines`] — one `a;b;c <self>` line per
//!   path node, for flamegraph tooling;
//! * [`SpanRecorder::flat_profile`] — nodes folded by function id.
//!
//! Accounting invariant: the self time of all nodes sums to the
//! decicycles charged across all runs, category by category. Frames
//! still open when a run ends (a fault unwound them) are closed at the
//! fault clock, so the victim function's partial frame is attributed —
//! exactly what incident forensics wants. Like the VM's own call
//! stacks, threads share one span stack: an exit closes whatever span
//! is on top.

use crate::CycleCategory;

/// Per-function cycle attribution: decicycles of each
/// [`CycleCategory`] charged while the function was on top of the span
/// stack (its *self* time — a caller is not billed for its callees),
/// plus call and guard counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionCycles {
    /// Function name (`(vm)` for time outside every frame).
    pub name: String,
    /// Completed (or fault-unwound) activations.
    pub calls: u64,
    /// Self decicycles by category, indexed by [`CycleCategory::index`].
    pub cycles: [u64; 6],
    /// Decicycles spent in the function and everything it called.
    pub inclusive_decicycles: u64,
    /// Guard-word checks observed in this function's epilogues.
    pub guard_checks: u64,
    /// Canary checks observed in this function's epilogues.
    pub canary_checks: u64,
}

impl FunctionCycles {
    /// Self decicycles in one category.
    pub fn get(&self, cat: CycleCategory) -> u64 {
        self.cycles[cat.index()]
    }

    /// Total self decicycles attributed to this function.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// Sentinel for "no node" in the trie's child/sibling links.
const NONE: u32 = u32::MAX;

/// One distinct call path (the run span at the root).
#[derive(Debug, Clone)]
struct PathNode {
    func: u32,
    first_child: u32,
    next_sibling: u32,
    calls: u64,
    inclusive: u64,
    self_cycles: [u64; 6],
}

impl PathNode {
    fn new(func: u32, next_sibling: u32) -> PathNode {
        PathNode {
            func,
            first_child: NONE,
            next_sibling,
            calls: 0,
            inclusive: 0,
            self_cycles: [0; 6],
        }
    }
}

/// One open function-call span.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    node: u32,
    entered: u64,
}

/// The span recorder: an open-span stack over a call-path trie.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    nodes: Vec<PathNode>,
    stack: Vec<OpenSpan>,
    /// Category clock at the previous boundary.
    last: [u64; 6],
    /// Per function id: `[guard-word checks, canary checks]`.
    guards: Vec<[u64; 2]>,
    runs: u64,
}

impl Default for SpanRecorder {
    fn default() -> SpanRecorder {
        SpanRecorder {
            nodes: vec![PathNode::new(NONE, NONE)],
            stack: Vec::new(),
            last: [0; 6],
            guards: Vec::new(),
            runs: 0,
        }
    }
}

impl SpanRecorder {
    /// A recorder with no functions registered yet.
    pub fn new() -> SpanRecorder {
        SpanRecorder::default()
    }

    /// Size the per-function tables (called once per module).
    pub fn set_function_count(&mut self, n: usize) {
        if self.guards.len() < n {
            self.guards.resize(n, [0; 2]);
        }
    }

    /// Bill the clock advance since the previous boundary to the span
    /// on top of the stack (the run span when none is open). A clock
    /// that went backwards (a respawned VM starts again from zero)
    /// advances by nothing.
    #[inline]
    fn advance(&mut self, clock: &[u64; 6]) {
        let top = self.stack.last().map_or(0, |s| s.node) as usize;
        let node = &mut self.nodes[top].self_cycles;
        for ((acc, &now), last) in node.iter_mut().zip(clock).zip(&mut self.last) {
            *acc += now.saturating_sub(*last);
            *last = now;
        }
    }

    /// The child of `parent` for `func`, created on first use. A found
    /// child moves to the front of its sibling list, so the callees a
    /// loop keeps calling are found on the first probe.
    fn child(&mut self, parent: u32, func: u32) -> u32 {
        let first = self.nodes[parent as usize].first_child;
        let mut prev = NONE;
        let mut c = first;
        while c != NONE {
            let next = self.nodes[c as usize].next_sibling;
            if self.nodes[c as usize].func == func {
                if prev != NONE {
                    self.nodes[prev as usize].next_sibling = next;
                    self.nodes[c as usize].next_sibling = first;
                    self.nodes[parent as usize].first_child = c;
                }
                return c;
            }
            prev = c;
            c = next;
        }
        let id = u32::try_from(self.nodes.len()).expect("call-path count fits u32");
        self.nodes.push(PathNode::new(func, first));
        self.nodes[parent as usize].first_child = id;
        id
    }

    /// A frame for `func` was pushed at category clock `clock`.
    #[inline]
    pub fn enter(&mut self, func: u32, clock: &[u64; 6]) {
        self.advance(clock);
        let parent = self.stack.last().map_or(0, |s| s.node);
        let node = self.child(parent, func);
        self.stack.push(OpenSpan {
            node,
            entered: clock.iter().sum(),
        });
    }

    /// The top frame returned at category clock `clock`.
    #[inline]
    pub fn exit(&mut self, clock: &[u64; 6]) {
        self.advance(clock);
        if let Some(span) = self.stack.pop() {
            self.close(span, clock.iter().sum());
        }
    }

    /// A guard or canary check ran in `func`'s epilogue.
    #[inline]
    pub fn guard_check(&mut self, func: u32, canary: bool) {
        if let Some(g) = self.guards.get_mut(func as usize) {
            g[canary as usize] += 1;
        }
    }

    /// The run ended at category clock `clock`. Unwinds any frames a
    /// fault left open, then counts the run.
    pub fn run_end(&mut self, clock: &[u64; 6]) {
        self.advance(clock);
        let now = clock.iter().sum();
        while let Some(span) = self.stack.pop() {
            self.close(span, now);
        }
        self.runs += 1;
    }

    fn close(&mut self, span: OpenSpan, now: u64) {
        let node = &mut self.nodes[span.node as usize];
        node.calls += 1;
        node.inclusive += now.saturating_sub(span.entered);
    }

    /// Runs completed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The innermost open frame — the victim function when a fault
    /// just fired.
    pub fn innermost_open(&self) -> Option<u32> {
        self.stack.last().map(|s| self.nodes[s.node as usize].func)
    }

    /// Flat per-function profile, hottest first (ties by name). Only
    /// functions that were entered appear; the `(vm)` row appears only
    /// if time was charged outside every frame. `names` resolves
    /// function ids (`#<id>` when out of range).
    pub fn flat_profile(&self, names: &[String]) -> Vec<FunctionCycles> {
        let mut per_func: Vec<FunctionCycles> = vec![FunctionCycles::default(); self.guards.len()];
        for node in &self.nodes[1..] {
            let f = node.func as usize;
            if f >= per_func.len() {
                per_func.resize(f + 1, FunctionCycles::default());
            }
            let row = &mut per_func[f];
            row.calls += node.calls;
            row.inclusive_decicycles += node.inclusive;
            for (acc, c) in row.cycles.iter_mut().zip(node.self_cycles) {
                *acc += c;
            }
        }
        let mut rows: Vec<FunctionCycles> = per_func
            .into_iter()
            .enumerate()
            .filter(|(_, r)| r.calls > 0 || r.total() > 0)
            .map(|(i, mut r)| {
                r.name = func_name(names, i as u32);
                [r.guard_checks, r.canary_checks] = self.guards.get(i).copied().unwrap_or([0; 2]);
                r
            })
            .collect();
        let vm = &self.nodes[0];
        if vm.self_cycles.iter().any(|&c| c > 0) {
            rows.push(FunctionCycles {
                name: "(vm)".to_string(),
                cycles: vm.self_cycles,
                ..FunctionCycles::default()
            });
        }
        rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.name.cmp(&b.name)));
        rows
    }

    /// Collapsed-stack lines in the format flamegraph tooling consumes:
    /// `main;helper;leaf 1234`, one line per call path with nonzero
    /// self time, in lexicographic order of function-id paths, then
    /// `(vm) <n>` for time outside every frame.
    pub fn collapsed_lines(&self, names: &[String]) -> Vec<String> {
        let mut lines = Vec::new();
        let mut path: Vec<String> = Vec::new();
        self.collect_collapsed(0, names, &mut path, &mut lines);
        let vm: u64 = self.nodes[0].self_cycles.iter().sum();
        if vm > 0 {
            lines.push(format!("(vm) {vm}"));
        }
        lines
    }

    fn collect_collapsed(
        &self,
        node: u32,
        names: &[String],
        path: &mut Vec<String>,
        lines: &mut Vec<String>,
    ) {
        let mut children = Vec::new();
        let mut c = self.nodes[node as usize].first_child;
        while c != NONE {
            children.push(c);
            c = self.nodes[c as usize].next_sibling;
        }
        children.sort_unstable_by_key(|&c| self.nodes[c as usize].func);
        for c in children {
            let n = &self.nodes[c as usize];
            path.push(func_name(names, n.func));
            let self_total: u64 = n.self_cycles.iter().sum();
            if self_total > 0 {
                lines.push(format!("{} {self_total}", path.join(";")));
            }
            self.collect_collapsed(c, names, path, lines);
            path.pop();
        }
    }
}

/// Resolve a function id to its name (`#<id>` when out of range).
pub(crate) fn func_name(names: &[String], func: u32) -> String {
    names
        .get(func as usize)
        .cloned()
        .unwrap_or_else(|| format!("#{func}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A category clock with `n` decicycles of ALU work.
    fn alu(n: u64) -> [u64; 6] {
        [0, 0, n, 0, 0, 0]
    }

    fn names() -> Vec<String> {
        vec!["main".into(), "helper".into(), "leaf".into()]
    }

    fn row<'a>(flat: &'a [FunctionCycles], name: &str) -> &'a FunctionCycles {
        flat.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn self_and_child_time_split_exactly() {
        let mut sp = SpanRecorder::new();
        sp.set_function_count(2);
        // main enters at 10, calls helper [20, 50), main exits at 80.
        sp.enter(0, &alu(10));
        sp.enter(1, &alu(20));
        sp.exit(&alu(50));
        sp.exit(&alu(80));
        sp.run_end(&alu(90));

        let flat = sp.flat_profile(&names());
        let main = row(&flat, "main");
        assert_eq!(main.calls, 1);
        assert_eq!(main.inclusive_decicycles, 70);
        assert_eq!(main.total(), 40); // 70 inclusive - 30 in helper

        let helper = row(&flat, "helper");
        assert_eq!(helper.inclusive_decicycles, 30);
        assert_eq!(helper.total(), 30);

        // Run span: 20 outside any function (10 before main, 10 after).
        assert_eq!(sp.runs(), 1);
        assert_eq!(row(&flat, "(vm)").total(), 20);
        assert_eq!(flat.iter().map(|f| f.total()).sum::<u64>(), 90);
    }

    #[test]
    fn category_arrays_split_across_a_nested_call_and_a_fault_unwind() {
        let mut sp = SpanRecorder::new();
        sp.set_function_count(3);
        // main: 4 control before the call; helper: 5 mem + 2 rng, then
        // calls leaf; leaf: 7 alu, then faults with both frames open.
        let mut clock = [0u64; 6];
        clock[CycleCategory::Control.index()] = 1; // (vm) prologue
        sp.enter(0, &clock);
        clock[CycleCategory::Control.index()] += 4;
        sp.enter(1, &clock);
        clock[CycleCategory::Mem.index()] += 5;
        clock[CycleCategory::Rng.index()] += 2;
        sp.enter(2, &clock);
        clock[CycleCategory::Alu.index()] += 7;
        // Fault: no exits, run_end unwinds leaf and helper and main.
        sp.run_end(&clock);
        assert_eq!(sp.innermost_open(), None);

        let flat = sp.flat_profile(&names());
        assert_eq!(row(&flat, "main").cycles, [0, 0, 0, 4, 0, 0]);
        assert_eq!(row(&flat, "helper").cycles, [2, 5, 0, 0, 0, 0]);
        assert_eq!(row(&flat, "leaf").cycles, [0, 0, 7, 0, 0, 0]);
        assert_eq!(row(&flat, "(vm)").cycles, [0, 0, 0, 1, 0, 0]);
        // Every frame was closed at the fault clock.
        assert_eq!(row(&flat, "main").inclusive_decicycles, 18);
        assert_eq!(row(&flat, "helper").inclusive_decicycles, 14);
        assert_eq!(row(&flat, "leaf").calls, 1);
        // Per-category sums reproduce the clock exactly.
        for cat in CycleCategory::ALL {
            let sum: u64 = flat.iter().map(|f| f.get(cat)).sum();
            assert_eq!(sum, clock[cat.index()], "{cat:?}");
        }
        assert_eq!(
            sp.collapsed_lines(&names()),
            vec!["main 4", "main;helper 7", "main;helper;leaf 7", "(vm) 1"]
        );
    }

    #[test]
    fn fault_unwinds_open_frames_to_the_fault_clock() {
        let mut sp = SpanRecorder::new();
        sp.set_function_count(2);
        sp.enter(0, &alu(0));
        sp.enter(1, &alu(30));
        assert_eq!(sp.innermost_open(), Some(1));
        // Fault at 100: neither frame saw an exit.
        sp.run_end(&alu(100));
        let flat = sp.flat_profile(&names());
        assert_eq!(row(&flat, "helper").inclusive_decicycles, 70);
        assert_eq!(row(&flat, "main").inclusive_decicycles, 100);
        assert_eq!(row(&flat, "main").total(), 30);
        assert!(flat.iter().all(|f| f.name != "(vm)"));
        assert_eq!(sp.innermost_open(), None);
    }

    #[test]
    fn recursion_attributes_each_activation() {
        let mut sp = SpanRecorder::new();
        sp.set_function_count(1);
        sp.enter(0, &alu(0));
        sp.enter(0, &alu(10));
        sp.exit(&alu(20));
        sp.exit(&alu(40));
        sp.run_end(&alu(40));
        let flat = sp.flat_profile(&names());
        let f = row(&flat, "main");
        assert_eq!(f.calls, 2);
        // Outer inclusive 40 (10 of it in the inner activation), inner 10.
        assert_eq!(f.inclusive_decicycles, 50);
        assert_eq!(f.total(), 40);
        assert_eq!(
            sp.collapsed_lines(&names()),
            vec!["main 30", "main;main 10"]
        );
    }

    #[test]
    fn collapsed_paths_are_lexicographic_and_sum_to_the_clock() {
        let mut sp = SpanRecorder::new();
        sp.set_function_count(3);
        // main 5; main;helper;leaf 20; main;helper 1 — helper is
        // entered twice, and the second visit reuses its trie node.
        sp.enter(0, &alu(0));
        sp.enter(1, &alu(5));
        sp.enter(2, &alu(5));
        sp.exit(&alu(25));
        sp.exit(&alu(25));
        sp.enter(1, &alu(25));
        sp.exit(&alu(26));
        sp.exit(&alu(26));
        sp.run_end(&alu(26));

        let lines = sp.collapsed_lines(&names());
        assert_eq!(
            lines,
            vec!["main 5", "main;helper 1", "main;helper;leaf 20"]
        );
        let flat = sp.flat_profile(&names());
        assert_eq!(row(&flat, "helper").calls, 2);
        assert_eq!(flat[0].name, "leaf", "hottest first");
    }

    #[test]
    fn guard_checks_count_per_function() {
        let mut sp = SpanRecorder::new();
        sp.set_function_count(1);
        sp.enter(0, &alu(0));
        sp.guard_check(0, false);
        sp.guard_check(0, false);
        sp.guard_check(0, true);
        sp.run_end(&alu(1));
        let flat = sp.flat_profile(&names());
        assert_eq!(row(&flat, "main").guard_checks, 2);
        assert_eq!(row(&flat, "main").canary_checks, 1);
    }

    #[test]
    fn multiple_runs_accumulate_and_a_reset_clock_restarts_cleanly() {
        let mut sp = SpanRecorder::new();
        sp.set_function_count(1);
        // Each run is a respawned VM: its clock starts again at zero,
        // and (as in the VM) the entry frame opens before any charge.
        for _ in 0..3 {
            sp.enter(0, &alu(0));
            sp.exit(&alu(20));
            sp.run_end(&alu(25));
        }
        // A re-run without respawn continues the previous clock.
        sp.enter(0, &alu(25));
        sp.exit(&alu(45));
        sp.run_end(&alu(50));
        assert_eq!(sp.runs(), 4);
        let flat = sp.flat_profile(&names());
        assert_eq!(row(&flat, "main").calls, 4);
        assert_eq!(row(&flat, "main").total(), 80);
        assert_eq!(row(&flat, "main").inclusive_decicycles, 80);
        assert_eq!(row(&flat, "(vm)").total(), 20);
    }
}
