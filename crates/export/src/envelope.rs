//! The shared versioned envelope of every JSON document the CLI and
//! the bench binaries write.
//!
//! `hgl lift --json`, `hgl lint --json` and `hgl lift --metrics` all
//! open with the same two fields,
//!
//! ```json
//! {
//!   "schema": "hgl-lift-v1",
//!   "version": 1,
//! ```
//!
//! so a consumer can dispatch on `schema` and reject documents whose
//! `version` it does not understand without knowing anything else
//! about the payload. The schema name carries the major revision
//! (`-v1`); `version` is the minor, bumped when fields are *added*
//! compatibly. Structural (breaking) changes rename the schema.
//! The envelopes are golden-pinned in `tests/golden/`.

use crate::json::{JsonWriter, Style};

/// Schema identifier of the lift-result document (`hgl lift --json`).
pub const LIFT_SCHEMA: &str = "hgl-lift-v1";

/// Schema identifier of the lint-report document (`hgl lint --json`).
pub const LINT_SCHEMA: &str = "hgl-lint-v1";

/// Schema identifier of the metrics document (`hgl lift --metrics`).
pub const METRICS_SCHEMA: &str = "hgl-metrics-v1";

/// Minor version shared by all current documents.
pub const ENVELOPE_VERSION: u64 = 1;

/// Write a document into `w`: a block object holding `schema`,
/// `version`, then the fields `fields` writes.
pub fn write_document(w: &mut JsonWriter, schema: &str, fields: impl FnOnce(&mut JsonWriter)) {
    w.object(Style::Block).key("schema").str(schema);
    w.key("version").raw(ENVELOPE_VERSION);
    fields(w);
    w.end();
}

/// A whole document as the CLI prints it: [`write_document`] into a
/// fresh [`JsonWriter`], then a final newline.
pub fn document(schema: &str, fields: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    write_document(&mut w, schema, fields);
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shape() {
        let doc = document(LIFT_SCHEMA, |w| {
            w.key("x").raw(1);
        });
        assert_eq!(doc, "{\n  \"schema\": \"hgl-lift-v1\",\n  \"version\": 1,\n  \"x\": 1\n}\n");
    }
}
