//! Graphviz DOT export of one function's Hoare Graph, for visual
//! inspection of the recovered control flow (weird edges included).

use crate::json::write_json_string;
use hgl_core::lift::LiftResult;
use hgl_core::VertexId;
use std::fmt::Write;

/// Serialise one function's Hoare Graph to Graphviz DOT.
pub fn export_dot(result: &LiftResult, entry: u64) -> Option<String> {
    let f = result.functions.get(&entry)?;
    let mut o = String::new();
    let _ = writeln!(o, "digraph hg_{entry:x} {{");
    let _ = writeln!(o, "  node [shape=box, fontname=\"monospace\"];");
    // DOT quoted strings escape `"` and `\` as JSON does, and its `\n`
    // is a line break in the label, so labels are JSON string literals.
    for (id, v) in &f.graph.vertices {
        let label = match id {
            VertexId::At(a, _) => format!("{a:#x}\n{}", truncate(&v.state.pred.to_string(), 60)),
            VertexId::Exit => "exit".to_string(),
        };
        let _ = write!(o, "  {} [label=", node_name(*id));
        write_json_string(&label, &mut o);
        o.push_str("];\n");
    }
    for e in &f.graph.edges {
        let _ = write!(o, "  {} -> {} [label=", node_name(e.from), node_name(e.to));
        write_json_string(&e.instr.to_string(), &mut o);
        o.push_str("];\n");
    }
    let _ = writeln!(o, "}}");
    Some(o)
}

fn node_name(v: VertexId) -> String {
    match v {
        VertexId::At(a, n) => format!("n{a:x}_{n}"),
        VertexId::Exit => "exit".to_string(),
    }
}

fn truncate(s: &str, n: usize) -> String {
    match s.char_indices().nth(n) {
        Some((cut, _)) => format!("{}…", s.get(..cut).unwrap_or_default()),
        None => s.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_core::Lifter;

    #[test]
    fn dot_structure() {
        let mut asm = hgl_asm::Asm::new();
        asm.label("main");
        asm.push(hgl_x86::Reg::Rbp);
        asm.pop(hgl_x86::Reg::Rbp);
        asm.ret();
        let bin = asm.entry("main").assemble().expect("assembles");
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        let dot = export_dot(&result, bin.entry).expect("dot");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.contains("exit"));
        assert_eq!(export_dot(&result, 0xdead), None);
    }
}
