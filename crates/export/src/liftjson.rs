//! Machine-readable export of lifted results (`hgl lift --json`).
//!
//! Emits a self-contained JSON document per lift: functions, vertices
//! with their invariants (registers, memory facts, clauses, memory
//! model), edges with disassembled instructions, annotations, proof
//! obligations and assumptions — the same information the Isabelle
//! export encodes, in a form downstream tools (decompilers, patchers,
//! CFG consumers; §7 of the paper) can ingest directly.
//!
//! The document is streamed through [`JsonWriter`]; invariants and
//! instructions are escaped while they are formatted.

use crate::envelope::{document, write_document, LIFT_SCHEMA};
use crate::json::JsonWriter;
use crate::json::Style::{Block, Inline};
use hgl_core::lift::LiftResult;
use std::fmt::Display;

/// Serialise a [`LiftResult`] to the `hgl-lift-v1` document.
pub fn export_json(result: &LiftResult) -> String {
    document(LIFT_SCHEMA, |w| fields(w, result))
}

/// Write the `hgl-lift-v1` document into `w` as one value (the daemon
/// embeds it in a response line).
pub fn write_lift_json(w: &mut JsonWriter, result: &LiftResult) {
    write_document(w, LIFT_SCHEMA, |w| fields(w, result));
}

fn fields(w: &mut JsonWriter, result: &LiftResult) {
    let (resolved, jumps, calls) = result.indirection_counts();
    w.key("instruction_count").raw(result.instruction_count());
    w.key("state_count").raw(result.state_count());
    w.key("indirections").object(Inline).key("resolved").raw(resolved);
    w.key("unresolved_jumps").raw(jumps).key("unresolved_calls").raw(calls).end();
    w.key("lifted").raw(result.is_lifted()).key("reject_reason");
    match result.reject_reason() {
        Some(r) => w.display(r),
        None => w.null(),
    };
    w.key("functions").array(Block);
    for (entry, f) in &result.functions {
        w.object(Block).key("entry").display(format_args!("{entry:#x}"));
        w.key("returns").raw(f.returns).key("vertices").array(Block);
        for (id, v) in &f.graph.vertices {
            w.object(Inline).key("id").display(id).key("invariant").display(&v.state.pred);
            w.key("memory_model").display(&*v.state.model).end();
        }
        w.end().key("edges").array(Block);
        for e in &f.graph.edges {
            w.object(Inline).key("from").display(e.from).key("to").display(e.to);
            w.key("address").display(format_args!("{:#x}", e.instr.addr));
            w.key("instruction").display(&e.instr).end();
        }
        w.end();
        list(w.key("annotations"), &f.annotations);
        list(w.key("obligations"), &f.obligations);
        list(w.key("assumptions"), &f.assumptions);
        w.end();
    }
    w.end();
}

/// An inline array of `Display` strings.
fn list(w: &mut JsonWriter, items: &[impl Display]) {
    w.array(Inline);
    for item in items {
        w.display(item);
    }
    w.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use hgl_core::Lifter;

    #[test]
    fn json_structure() {
        let mut asm = hgl_asm::Asm::new();
        asm.label("main");
        asm.push(hgl_x86::Reg::Rbp);
        asm.pop(hgl_x86::Reg::Rbp);
        asm.ret();
        let bin = asm.entry("main").assemble().expect("assembles");
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        let j = export_json(&result);
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\"lifted\": true"), "{j}");
        assert!(j.contains("\"entry\": \"0x401000\""), "{j}");
        assert!(j.contains("push rbp"), "{j}");
        assert!(j.contains("\"reject_reason\": null"), "{j}");
        let doc = Json::parse(&j).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(LIFT_SCHEMA));

        // The one-line form is the same document with each line break
        // and its indentation collapsed to one space.
        let mut w = JsonWriter::one_line();
        write_lift_json(&mut w, &result);
        let flat: Vec<&str> = j.lines().map(str::trim).collect();
        assert_eq!(w.finish(), flat.join(" ").trim_end());
    }
}
