//! # hgl-export: Step 2 — formal verification of the extracted Hoare Graph
//!
//! The paper's second step exports the Hoare Graph to Isabelle/HOL,
//! where every edge becomes an independently provable theorem: a Hoare
//! triple whose precondition is the source vertex's invariant and whose
//! postcondition is the disjunction of the destination invariants,
//! discharged by symbolically executing formal instruction semantics
//! (§5.2). This removes the Step-1 implementation from the trusted
//! base.
//!
//! Isabelle cannot run in this environment, so this crate provides the
//! two halves separately (see `DESIGN.md`, *Substitutions*):
//!
//! - [`isabelle`]: generation of the Isabelle/HOL theory text — state
//!   record, one definition per vertex invariant, one lemma per edge
//!   with a proof script invocation, and explicit statements of every
//!   assumption/proof obligation the lifter generated;
//! - [`validate`]: an *executable* check of the same triples — each
//!   edge is tested on randomized concrete states drawn to satisfy the
//!   source invariant, stepped with the independent `hgl-emu`
//!   semantics, and checked against the destination invariants. Call
//!   edges (whose effect is axiomatized by the System V assumption in
//!   the paper as well) are reported as *assumed* rather than checked.
//!
//! The machine-readable surfaces (`hgl lift/lint --json`, `--metrics`,
//! the `hgl serve` wire protocol, the bench documents) all read and
//! write JSON through [`json`], the workspace's one JSON layer.
//!
//! ```
//! use hgl_asm::Asm;
//! use hgl_core::Lifter;
//! use hgl_export::{export_theory, validate_lift, ValidateConfig};
//!
//! let mut asm = Asm::new();
//! asm.label("main");
//! asm.push(hgl_x86::Reg::Rbp);
//! asm.pop(hgl_x86::Reg::Rbp);
//! asm.ret();
//! let bin = asm.entry("main").assemble()?;
//! let lifted = Lifter::new(&bin).lift_entry(bin.entry);
//!
//! let thy = export_theory(&lifted, "main_binary");
//! assert!(thy.contains("theory main_binary"));
//!
//! let report = validate_lift(&bin, &lifted, &ValidateConfig::default());
//! assert_eq!(report.failed.len(), 0);
//! assert!(report.checked > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod correspond;
pub mod dot;
pub mod envelope;
pub mod isabelle;
pub mod json;
pub mod liftjson;
pub mod lintjson;
pub mod metricsjson;
pub mod validate;

pub use checker::{bind_fresh, build_machine, draw_env, post_holds, Env};
pub use correspond::{graphs_correspond, CorrespondReport};
pub use envelope::{ENVELOPE_VERSION, LIFT_SCHEMA, LINT_SCHEMA, METRICS_SCHEMA};
pub use isabelle::export_theory;
pub use dot::export_dot;
pub use liftjson::{export_json, write_lift_json};
pub use lintjson::{export_lint_json, write_lint_json};
pub use metricsjson::export_metrics_json;
pub use validate::{validate_lift, EdgeFailure, ValidateConfig, ValidationReport};
