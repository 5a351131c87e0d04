//! Rendering module graphs as ASCII reports and DOT.
//!
//! These renderings are what the `repro` binary prints for Figures 2, 3
//! and 4: the module list, each dependency with its kind, the loops with
//! their explanatory notes, and (for loop-free graphs) the layering.

use crate::graph::ModuleGraph;

/// Renders the graph as a human-readable ASCII report.
pub fn render_ascii(g: &ModuleGraph) -> String {
    let mut out = String::new();
    match g.layers() {
        Ok(layers) => {
            out.push_str("structure: LOOP-FREE (a dependency lattice)\n");
            for (i, layer) in layers.iter().enumerate().rev() {
                let names: Vec<&str> = layer.iter().map(|m| g.name(*m)).collect();
                out.push_str(&format!("  layer {i}: {}\n", names.join(", ")));
            }
        }
        Err(loops) => {
            out.push_str(&format!("structure: {} DEPENDENCY LOOP(S)\n", loops.len()));
            for (i, comp) in loops.iter().enumerate() {
                let names: Vec<&str> = comp.iter().map(|m| g.name(*m)).collect();
                out.push_str(&format!("  loop {}: {{{}}}\n", i + 1, names.join(", ")));
                for e in g.loop_edges(comp) {
                    out.push_str(&format!(
                        "    {} -> {} [{}] {}\n",
                        g.name(e.from),
                        g.name(e.to),
                        e.kind.label(),
                        e.note
                    ));
                }
            }
        }
    }
    out.push_str("dependencies:\n");
    for e in g.edges() {
        out.push_str(&format!(
            "  {} -> {} [{}] {}\n",
            g.name(e.from),
            g.name(e.to),
            e.kind.label(),
            e.note
        ));
    }
    out
}

/// Renders the graph in Graphviz DOT syntax; improper edges are dashed.
pub fn render_dot(g: &ModuleGraph) -> String {
    let mut out = String::from("digraph deps {\n  rankdir=BT;\n");
    for m in g.module_ids() {
        out.push_str(&format!("  \"{}\" [label=\"{}\"];\n", g.name(m), g.name(m)));
    }
    for e in g.edges() {
        let style = if e.kind.is_proper() {
            "solid"
        } else {
            "dashed"
        };
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\", style={}];\n",
            g.name(e.from),
            g.name(e.to),
            e.kind.label(),
            style
        ));
    }
    out.push_str("}\n");
    out
}

/// Renders a one-line-per-module audit-cost table.
pub fn render_audit_costs(g: &ModuleGraph) -> String {
    let mut out = String::from("module                        modules assumed correct\n");
    for (m, cost) in g.audit_costs() {
        out.push_str(&format!("{:<30}{}\n", g.name(m), cost));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepKind;

    fn looped() -> ModuleGraph {
        let mut g = ModuleGraph::new();
        let a = g.add_module("page-control", "");
        let b = g.add_module("process-control", "");
        g.depend(a, b, DepKind::Call, "waits on missing page");
        g.depend(b, a, DepKind::Component, "process states paged");
        g
    }

    #[test]
    fn ascii_reports_loops_with_notes() {
        let s = render_ascii(&looped());
        assert!(s.contains("1 DEPENDENCY LOOP"));
        assert!(s.contains("waits on missing page"));
        assert!(s.contains("[component]"));
    }

    #[test]
    fn ascii_reports_layers_when_loop_free() {
        let mut g = ModuleGraph::new();
        let a = g.add_module("top", "");
        let b = g.add_module("bottom", "");
        g.depend(a, b, DepKind::Component, "");
        let s = render_ascii(&g);
        assert!(s.contains("LOOP-FREE"));
        assert!(s.contains("layer 0: bottom"));
        assert!(s.contains("layer 1: top"));
    }

    #[test]
    fn dot_marks_improper_edges_dashed() {
        let s = render_dot(&looped());
        assert!(s.contains("style=dashed"));
        assert!(s.contains("style=solid"));
        assert!(s.starts_with("digraph"));
    }

    #[test]
    fn audit_cost_table_lists_every_module() {
        let s = render_audit_costs(&looped());
        assert!(s.contains("page-control"));
        assert!(s.contains("process-control"));
    }
}
