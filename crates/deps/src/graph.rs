//! The module dependency graph and its analyses.

use std::collections::BTreeSet;

/// The paper's five kinds of inter-module dependency, plus the two
/// "improper" kinds one encounters in systems designed by other
/// principles (the paper: explicit dependencies due to procedure calls
/// or awaited replies, and implicit dependencies due to direct sharing
/// of writable data, "do not fit naturally into this classification …
/// the goal is their elimination").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// M depends on the managers of the objects that are the components
    /// of the objects M defines.
    Component,
    /// M depends on the managers of the objects in which M's
    /// name-mapping tables are stored.
    Map,
    /// M's algorithms and temporary storage are contained in objects
    /// whose managers M depends on.
    Program,
    /// The address space in which M executes is an object whose manager
    /// M depends on.
    AddressSpace,
    /// M requires an interpreter (a virtual processor) to execute.
    Interpreter,
    /// Improper: an explicit procedure call (or awaited reply) into
    /// another module, outside the object-manager interface discipline.
    Call,
    /// Improper: direct sharing of writable data with another module.
    SharedData,
}

impl DepKind {
    /// All seven kinds, in declaration order.
    pub const ALL: [DepKind; 7] = [
        DepKind::Component,
        DepKind::Map,
        DepKind::Program,
        DepKind::AddressSpace,
        DepKind::Interpreter,
        DepKind::Call,
        DepKind::SharedData,
    ];

    /// True for the five kinds that fit the type-extension rationale.
    pub fn is_proper(self) -> bool {
        !matches!(self, DepKind::Call | DepKind::SharedData)
    }

    /// Short label used in renderings.
    pub fn label(self) -> &'static str {
        match self {
            DepKind::Component => "component",
            DepKind::Map => "map",
            DepKind::Program => "program",
            DepKind::AddressSpace => "addr-space",
            DepKind::Interpreter => "interpreter",
            DepKind::Call => "call",
            DepKind::SharedData => "shared-data",
        }
    }
}

/// Index of a module within a [`ModuleGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub usize);

/// One labelled dependency edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// The depending module.
    pub from: ModuleId,
    /// The module depended upon.
    pub to: ModuleId,
    /// Classification of the dependency.
    pub kind: DepKind,
    /// Why this dependency exists (shown in figures and loop reports).
    pub note: String,
}

#[derive(Debug, Clone)]
struct Module {
    name: String,
    description: String,
}

/// A directed multigraph of modules and kind-labelled dependencies.
#[derive(Debug, Clone, Default)]
pub struct ModuleGraph {
    modules: Vec<Module>,
    edges: Vec<DepEdge>,
}

impl ModuleGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a module (an object manager) and returns its id.
    pub fn add_module(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
    ) -> ModuleId {
        self.modules.push(Module {
            name: name.into(),
            description: description.into(),
        });
        ModuleId(self.modules.len() - 1)
    }

    /// Declares that `from` depends on `to`.
    ///
    /// Self-dependencies are legal to *declare* (a module participating
    /// in the implementation of its own execution environment is exactly
    /// the pathology the paper hunts), and show up as singleton loops.
    pub fn depend(&mut self, from: ModuleId, to: ModuleId, kind: DepKind, note: impl Into<String>) {
        assert!(from.0 < self.modules.len() && to.0 < self.modules.len());
        self.edges.push(DepEdge {
            from,
            to,
            kind,
            note: note.into(),
        });
    }

    /// All edges, in declaration order.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// The name of a module.
    ///
    /// # Panics
    ///
    /// Panics on an id from a different graph.
    pub fn name(&self, m: ModuleId) -> &str {
        &self.modules[m.0].name
    }

    /// The description of a module.
    ///
    /// # Panics
    ///
    /// Panics on an id from a different graph.
    pub fn description(&self, m: ModuleId) -> &str {
        &self.modules[m.0].description
    }

    /// Looks a module up by name.
    pub fn find(&self, name: &str) -> Option<ModuleId> {
        self.modules
            .iter()
            .position(|m| m.name == name)
            .map(ModuleId)
    }

    /// Iterates module ids in insertion order.
    pub fn module_ids(&self) -> impl Iterator<Item = ModuleId> {
        (0..self.modules.len()).map(ModuleId)
    }

    /// Edges leaving `m`, deduplicated by target, in target order.
    pub fn successors(&self, m: ModuleId) -> Vec<ModuleId> {
        let mut s: BTreeSet<ModuleId> = BTreeSet::new();
        for e in &self.edges {
            if e.from == m {
                s.insert(e.to);
            }
        }
        s.into_iter().collect()
    }

    /// Strongly connected components, each sorted, listed in reverse
    /// topological order of the condensation (Tarjan's algorithm).
    pub fn sccs(&self) -> Vec<Vec<ModuleId>> {
        let n = self.modules.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut result: Vec<Vec<ModuleId>> = Vec::new();

        // Iterative Tarjan to avoid recursion limits on large graphs.
        enum Frame {
            Enter(usize),
            Resume(usize, usize),
        }
        let succ: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                self.successors(ModuleId(v))
                    .into_iter()
                    .map(|m| m.0)
                    .collect()
            })
            .collect();

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut frames = vec![Frame::Enter(start)];
            while let Some(frame) = frames.pop() {
                match frame {
                    Frame::Enter(v) => {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        frames.push(Frame::Resume(v, 0));
                    }
                    Frame::Resume(v, mut i) => {
                        let mut descended = false;
                        while i < succ[v].len() {
                            let w = succ[v][i];
                            i += 1;
                            if index[w] == usize::MAX {
                                frames.push(Frame::Resume(v, i));
                                frames.push(Frame::Enter(w));
                                descended = true;
                                break;
                            } else if on_stack[w] {
                                low[v] = low[v].min(index[w]);
                            }
                        }
                        if descended {
                            continue;
                        }
                        if low[v] == index[v] {
                            let mut comp = Vec::new();
                            loop {
                                let w = stack.pop().expect("tarjan stack");
                                on_stack[w] = false;
                                comp.push(ModuleId(w));
                                if w == v {
                                    break;
                                }
                            }
                            comp.sort();
                            result.push(comp);
                        }
                        // Propagate lowlink to the parent Resume frame.
                        if let Some(Frame::Resume(p, _)) = frames.last() {
                            let p = *p;
                            low[p] = low[p].min(low[v]);
                        }
                    }
                }
            }
        }
        result
    }

    /// The SCCs containing more than one module, or a module with a
    /// self-edge — the dependency loops.
    pub fn loops(&self) -> Vec<Vec<ModuleId>> {
        self.sccs()
            .into_iter()
            .filter(|c| c.len() > 1 || self.edges.iter().any(|e| e.from == c[0] && e.to == c[0]))
            .collect()
    }

    /// True if the dependency relation generates a lattice-compatible
    /// structure: no loops at all.
    pub fn is_loop_free(&self) -> bool {
        self.loops().is_empty()
    }

    /// The edges internal to a loop, with their kinds — the explanation
    /// of *why* the modules are mutually dependent.
    pub fn loop_edges(&self, comp: &[ModuleId]) -> Vec<&DepEdge> {
        let set: BTreeSet<ModuleId> = comp.iter().copied().collect();
        self.edges
            .iter()
            .filter(|e| set.contains(&e.from) && set.contains(&e.to))
            .collect()
    }

    /// Longest-path layering of a loop-free graph: layer 0 depends on
    /// nothing; each module's layer is 1 + max layer of its dependencies.
    ///
    /// # Errors
    ///
    /// Returns the loops if the graph has any (layering is undefined).
    pub fn layers(&self) -> Result<Vec<Vec<ModuleId>>, Vec<Vec<ModuleId>>> {
        let loops = self.loops();
        if !loops.is_empty() {
            return Err(loops);
        }
        let n = self.modules.len();
        let mut layer = vec![0usize; n];
        // SCCs come out in reverse topological order: dependencies first.
        for comp in self.sccs() {
            let v = comp[0].0;
            let mut l = 0;
            for e in &self.edges {
                if e.from.0 == v {
                    l = l.max(layer[e.to.0] + 1);
                }
            }
            layer[v] = l;
        }
        let max_layer = layer.iter().copied().max().unwrap_or(0);
        let mut out = vec![Vec::new(); max_layer + 1];
        for v in 0..n {
            out[layer[v]].push(ModuleId(v));
        }
        Ok(out)
    }

    /// The set of modules whose correct operation must be assumed to
    /// establish the correct operation of `m` (transitive closure of
    /// "depends on", excluding `m` itself unless it is in a loop).
    pub fn assumed_by(&self, m: ModuleId) -> BTreeSet<ModuleId> {
        let mut seen = BTreeSet::new();
        let mut work = vec![m];
        while let Some(v) = work.pop() {
            for s in self.successors(v) {
                if seen.insert(s) {
                    work.push(s);
                }
            }
        }
        seen.remove(&m);
        let in_loop = self.successors(m).contains(&m)
            || self.loops().iter().any(|c| c.contains(&m) && c.len() > 1);
        if in_loop {
            seen.insert(m);
        }
        seen
    }

    /// The audit-cost metric: for each module, how many modules must be
    /// believed correct before it can be certified. Loop-free designs
    /// permit module-at-a-time auditing; loops force whole components to
    /// be audited together.
    pub fn audit_costs(&self) -> Vec<(ModuleId, usize)> {
        self.module_ids()
            .map(|m| (m, self.assumed_by(m).len()))
            .collect()
    }

    /// Count of improper edges ([`DepKind::Call`]/[`DepKind::SharedData`]).
    pub fn improper_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.kind.is_proper()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (ModuleGraph, Vec<ModuleId>) {
        let mut g = ModuleGraph::new();
        let ids: Vec<_> = (0..4).map(|i| g.add_module(format!("m{i}"), "")).collect();
        for w in ids.windows(2) {
            g.depend(w[0], w[1], DepKind::Component, "chain");
        }
        (g, ids)
    }

    #[test]
    fn a_chain_is_loop_free_with_one_module_per_layer() {
        let (g, ids) = chain();
        assert!(g.is_loop_free());
        let layers = g.layers().unwrap();
        assert_eq!(layers.len(), 4);
        assert_eq!(layers[0], vec![ids[3]], "the bottom depends on nothing");
        assert_eq!(layers[3], vec![ids[0]]);
    }

    #[test]
    fn a_cycle_is_detected_as_one_scc() {
        let (mut g, ids) = chain();
        g.depend(ids[3], ids[0], DepKind::Interpreter, "back edge");
        assert!(!g.is_loop_free());
        let loops = g.loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0], ids);
        assert!(g.layers().is_err());
    }

    #[test]
    fn self_dependency_is_a_loop() {
        let mut g = ModuleGraph::new();
        let a = g.add_module("a", "");
        g.depend(a, a, DepKind::Map, "stores its own map");
        assert!(!g.is_loop_free());
        assert_eq!(g.loops(), vec![vec![a]]);
    }

    #[test]
    fn two_independent_cycles_are_separate_loops() {
        let mut g = ModuleGraph::new();
        let a = g.add_module("a", "");
        let b = g.add_module("b", "");
        let c = g.add_module("c", "");
        let d = g.add_module("d", "");
        g.depend(a, b, DepKind::Call, "");
        g.depend(b, a, DepKind::Call, "");
        g.depend(c, d, DepKind::Map, "");
        g.depend(d, c, DepKind::Program, "");
        let loops = g.loops();
        assert_eq!(loops.len(), 2);
        assert!(loops.contains(&vec![a, b]));
        assert!(loops.contains(&vec![c, d]));
    }

    #[test]
    fn loop_edges_explain_the_component() {
        let mut g = ModuleGraph::new();
        let pc = g.add_module("page-control", "");
        let proc = g.add_module("process-control", "");
        g.depend(pc, proc, DepKind::Call, "give processor away on page fault");
        g.depend(
            proc,
            pc,
            DepKind::Component,
            "process states live in segments/pages",
        );
        let loops = g.loops();
        let edges = g.loop_edges(&loops[0]);
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().any(|e| e.note.contains("page fault")));
    }

    #[test]
    fn assumed_by_is_the_transitive_closure() {
        let (g, ids) = chain();
        assert_eq!(g.assumed_by(ids[0]).len(), 3);
        assert_eq!(g.assumed_by(ids[3]).len(), 0);
    }

    #[test]
    fn loop_members_assume_themselves() {
        let mut g = ModuleGraph::new();
        let a = g.add_module("a", "");
        let b = g.add_module("b", "");
        g.depend(a, b, DepKind::Call, "");
        g.depend(b, a, DepKind::Call, "");
        assert!(
            g.assumed_by(a).contains(&a),
            "a's correctness rests on a itself"
        );
        assert_eq!(g.assumed_by(a).len(), 2);
    }

    #[test]
    fn audit_cost_grows_with_depth() {
        let (g, ids) = chain();
        let costs = g.audit_costs();
        assert_eq!(costs[ids[0].0].1, 3);
        assert_eq!(costs[ids[3].0].1, 0);
    }

    #[test]
    fn improper_edges_counted() {
        let mut g = ModuleGraph::new();
        let a = g.add_module("a", "");
        let b = g.add_module("b", "");
        g.depend(a, b, DepKind::Call, "");
        g.depend(a, b, DepKind::Component, "");
        assert_eq!(g.improper_edge_count(), 1);
    }

    #[test]
    fn diamond_layers_take_longest_path() {
        let mut g = ModuleGraph::new();
        let top = g.add_module("top", "");
        let mid = g.add_module("mid", "");
        let bot = g.add_module("bot", "");
        g.depend(top, mid, DepKind::Component, "");
        g.depend(mid, bot, DepKind::Component, "");
        g.depend(top, bot, DepKind::Map, "");
        let layers = g.layers().unwrap();
        assert_eq!(layers[0], vec![bot]);
        assert_eq!(layers[1], vec![mid]);
        assert_eq!(layers[2], vec![top]);
    }

    #[test]
    fn find_by_name() {
        let (g, ids) = chain();
        assert_eq!(g.find("m2"), Some(ids[2]));
        assert_eq!(g.find("nope"), None);
    }
}
