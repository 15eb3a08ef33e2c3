//! Cross-file analysis passes.
//!
//! Unlike the per-line lexical rules in [`crate::rules`], a pass sees a
//! whole [`Workspace`](crate::model::Workspace) (or the repository
//! manifests) at once and returns file-attributed
//! [`Finding`](crate::findings::Finding)s:
//!
//! * [`event_schema`] — every telemetry construction site agrees with
//!   the [`grefar_obs::schema::EVENTS`] registry;
//! * [`hot_path_alloc`] — no heap allocation in the per-slot call tree;
//! * [`deps_audit`] — duplicate crate versions in `Cargo.lock` and
//!   declared-but-unused dependencies in crate manifests.

pub mod deps_audit;
pub mod event_schema;
pub mod hot_path_alloc;
