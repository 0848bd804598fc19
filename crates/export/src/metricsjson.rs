//! JSON export of a frozen metrics snapshot (`hgl lift --metrics`).
//!
//! The `hgl-metrics-v1` document freezes one engine run: per-phase
//! wall time and invocation counts, binary-level gauges, the solver
//! cache's hit/miss/eviction counters, and the worker count. It is
//! fully deterministic apart from the timing values themselves, and
//! its shape is pinned byte for byte by the tests below.

use crate::envelope::{document, METRICS_SCHEMA};
use crate::json::Style::{Block, Inline};
use hgl_core::MetricsSnapshot;

/// Serialise a [`MetricsSnapshot`] to the `hgl-metrics-v1` document.
pub fn export_metrics_json(m: &MetricsSnapshot) -> String {
    document(METRICS_SCHEMA, |w| {
        w.key("workers").raw(m.workers).key("elapsed_ns").raw(m.elapsed_nanos);
        w.key("rounds").raw(m.rounds).key("phases").array(Block);
        for p in &m.phases {
            w.object(Inline).key("phase").str(p.phase.name());
            w.key("nanos").raw(p.nanos).key("count").raw(p.count).end();
        }
        w.end().key("gauges").object(Inline).key("states").raw(m.states);
        w.key("instructions").raw(m.instructions).key("functions_lifted").raw(m.functions_lifted);
        w.key("functions_rejected").raw(m.functions_rejected).end();
        // Decode-failure telemetry: present only when a fetch actually
        // failed to decode, so reject-free documents keep the shape (and
        // bytes) the pre-telemetry goldens pin.
        if !m.decode_rejects.is_empty() {
            w.key("decode_rejects").object(Inline);
            for (key, count) in &m.decode_rejects {
                w.key(key).raw(count);
            }
            w.end();
        }
        let c = &m.cache;
        w.key("solver_cache").object(Inline).key("hits").raw(c.hits).key("misses").raw(c.misses);
        w.key("evictions").raw(c.evictions).key("entries").raw(c.entries);
        w.key("hit_rate").raw(format_args!("{:.4}", c.hit_rate()));
        w.key("query_ns").raw(c.query_nanos).end();
        // The artifact-store block appears only when the run had a store
        // attached, so store-less documents are byte-identical to
        // pre-store emitters.
        if let Some(s) = &m.store {
            w.key("store").object(Inline).key("hits").raw(s.hits).key("misses").raw(s.misses);
            w.key("invalidations").raw(s.invalidations).key("evictions").raw(s.evictions);
            w.key("inserts").raw(s.inserts).key("tmp_swept").raw(s.tmp_swept);
            w.key("write_retries").raw(s.write_retries).key("write_failures").raw(s.write_failures);
            w.key("hit_rate").raw(format_args!("{:.4}", s.hit_rate())).end();
        }
        // The rewrite block appears only for `hgl rewrite --metrics`
        // runs, so lift documents keep their pre-rewrite bytes.
        if let Some(r) = &m.rewrite {
            w.key("rewrite").object(Inline).key("functions").raw(r.functions);
            w.key("instructions_reencoded").raw(r.instructions_reencoded);
            w.key("bytes_delta").raw(r.bytes_delta).key("guards_inserted").raw(r.guards_inserted);
            w.key("verify_relift_ok").raw(opt_bool(r.verify_relift_ok));
            w.key("verify_traces_ok").raw(opt_bool(r.verify_traces_ok)).end();
        }
    })
}

fn opt_bool(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_core::Metrics;
    use std::time::Duration;

    #[test]
    fn document_shape() {
        let m = Metrics::new();
        m.record(hgl_core::Phase::Tau, Duration::from_nanos(40));
        let snap = m.snapshot(None, 4, Duration::from_nanos(1000));
        let j = export_metrics_json(&snap);
        assert!(j.contains("\"schema\": \"hgl-metrics-v1\""), "{j}");
        assert!(j.contains("\"version\": 1"), "{j}");
        assert!(j.contains("\"workers\": 4"), "{j}");
        assert!(j.contains("{ \"phase\": \"tau\", \"nanos\": 40, \"count\": 1 }"), "{j}");
        assert!(j.contains("\"hit_rate\": 0.0000"), "{j}");
        assert!(!j.contains("\"store\""), "store-less document has no store block: {j}");
        assert!(!j.contains("\"rewrite\""), "lift document has no rewrite block: {j}");
        assert!(
            !j.contains("\"decode_rejects\""),
            "reject-free document has no decode_rejects block: {j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    /// Golden-pinned shape of the decode-failure telemetry: buckets
    /// sorted by key, inline object, pinned byte-for-byte.
    #[test]
    fn decode_reject_histogram_shape() {
        let m = Metrics::new();
        m.count_decode_reject("opcode:0f05".to_string());
        m.count_decode_reject("opcode:0f05".to_string());
        m.count_decode_reject("prefix:67".to_string());
        m.count_decode_reject("ext:ff/7".to_string());
        let snap = m.snapshot(None, 1, Duration::from_nanos(10));
        let j = export_metrics_json(&snap);
        assert!(
            j.contains(
                "  \"decode_rejects\": { \"ext:ff/7\": 1, \"opcode:0f05\": 2, \"prefix:67\": 1 },\n"
            ),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn store_block_present_when_attached() {
        let m = Metrics::new();
        let mut snap = m.snapshot(None, 1, Duration::from_nanos(10));
        snap.store = Some(hgl_core::StoreStats {
            hits: 3,
            misses: 1,
            invalidations: 2,
            evictions: 0,
            inserts: 4,
            tmp_swept: 1,
            write_retries: 2,
            write_failures: 0,
        });
        let j = export_metrics_json(&snap);
        assert!(
            j.contains(
                "\"store\": { \"hits\": 3, \"misses\": 1, \"invalidations\": 2, \
                 \"evictions\": 0, \"inserts\": 4, \"tmp_swept\": 1, \"write_retries\": 2, \
                 \"write_failures\": 0, \"hit_rate\": 0.5000 }"
            ),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn rewrite_block_present_when_attached() {
        let m = Metrics::new();
        let mut snap = m.snapshot(None, 1, Duration::from_nanos(10));
        snap.rewrite = Some(hgl_core::RewriteStats {
            functions: 5,
            instructions_reencoded: 321,
            bytes_delta: -8,
            guards_inserted: 2,
            verify_relift_ok: Some(true),
            verify_traces_ok: None,
        });
        let j = export_metrics_json(&snap);
        assert!(
            j.contains(
                "\"rewrite\": { \"functions\": 5, \"instructions_reencoded\": 321, \
                 \"bytes_delta\": -8, \"guards_inserted\": 2, \"verify_relift_ok\": true, \
                 \"verify_traces_ok\": null }"
            ),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn store_and_rewrite_blocks_compose() {
        let m = Metrics::new();
        let mut snap = m.snapshot(None, 1, Duration::from_nanos(10));
        snap.store = Some(hgl_core::StoreStats::default());
        snap.rewrite = Some(hgl_core::RewriteStats::default());
        let j = export_metrics_json(&snap);
        assert!(j.contains("\"store\": {"), "{j}");
        assert!(j.contains("\"rewrite\": {"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
