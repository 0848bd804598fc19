//! JSON export of a static-analysis report (`hgl lint --json`).
//!
//! The document is fully deterministic — functions, writes and
//! diagnostics are emitted in their already-sorted order — so it is
//! golden-snapshot tested byte-for-byte.

use crate::envelope::{document, write_document, LINT_SCHEMA};
use crate::json::JsonWriter;
use crate::json::Style::{Block, Inline};
use hgl_analysis::{AnalysisReport, ClassifiedWrite};

/// Serialise an [`AnalysisReport`] to the `hgl-lint-v1` document.
pub fn export_lint_json(report: &AnalysisReport) -> String {
    document(LINT_SCHEMA, |w| fields(w, report))
}

/// Write the `hgl-lint-v1` document into `w` as one value (the daemon
/// embeds it in a response line).
pub fn write_lint_json(w: &mut JsonWriter, report: &AnalysisReport) {
    write_document(w, LINT_SCHEMA, |w| fields(w, report));
}

fn fields(w: &mut JsonWriter, report: &AnalysisReport) {
    let t = &report.totals;
    w.key("write_totals").object(Inline).key("total").raw(t.total());
    w.key("stack_local").raw(t.stack_local).key("global").raw(t.global);
    w.key("heap_symbol").raw(t.heap_symbol).key("unresolved").raw(t.unresolved);
    w.key("resolved_fraction").raw(format_args!("{:.4}", t.resolved_fraction())).end();

    w.key("functions").array(Block);
    for f in report.functions.values() {
        w.object(Inline).key("entry").display(format_args!("{:#x}", f.entry));
        w.key("states").raw(f.states).key("reachable_states").raw(f.reachable_states);
        w.key("exit_reaching_states").raw(f.exit_reaching_states).key("max_stack_depth");
        match f.max_stack_depth {
            Some(d) => w.raw(d),
            None => w.null(),
        };
        w.key("writes").array(Inline);
        for x in &f.writes {
            write_one(w, x);
        }
        w.end().end();
    }
    if report.functions.is_empty() {
        w.blank_line();
    }
    w.end();

    w.key("diags").array(Block);
    for d in &report.diags {
        w.object(Inline).key("severity").display(d.severity).key("rule").display(d.rule);
        w.key("function").display(format_args!("{:#x}", d.function)).key("node");
        match d.node {
            Some(n) => w.display(n),
            None => w.null(),
        };
        w.key("edge");
        match d.edge {
            Some((a, b)) => w.array(Inline).display(a).display(b).end(),
            None => w.null(),
        };
        w.key("detail").str(&d.detail).end();
    }
    if report.diags.is_empty() {
        w.blank_line();
    }
    w.end();
}

fn write_one(w: &mut JsonWriter, x: &ClassifiedWrite) {
    w.object(Inline).key("addr").display(format_args!("{:#x}", x.addr)).key("size").raw(x.size);
    w.key("family").display(x.family()).key("resolved").raw(x.resolved());
    w.key("classes").array(Inline);
    for c in &x.classes {
        w.display(c);
    }
    w.end().end();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_valid_shape() {
        let json = export_lint_json(&AnalysisReport::default());
        assert!(json.contains("\"schema\": \"hgl-lint-v1\""));
        assert!(json.contains("\"resolved_fraction\": 1.0000"));
        assert!(json.contains("\"functions\": [\n\n  ],\n  \"diags\": [\n\n  ]\n}"), "{json}");
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
    }
}
