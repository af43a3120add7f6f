//! # wap-rules — versioned rule packs for the wap pipeline
//!
//! The paper's pitch is extending detection "without programming":
//! analysts declare weapons instead of writing code. This crate turns
//! that into a distributable ecosystem — rules ship as **packs**:
//! named, versioned, schema-checked bundles of `RuleSpec`s (the unified
//! rule schema from `wap-cfg`) that install under a rules directory and
//! plug into every front-end (`wap --rules`, serve `?rules=`).
//!
//! * [`RulePack`] — parse/validate a JSON manifest, serialize it
//!   canonically, and compute a deterministic [`RulePack::fingerprint`]
//!   that joins the `cfg` cache-entry key, so installing or upgrading a
//!   pack invalidates exactly the cached lint results and nothing else
//!   ([`pack`]).
//! * [`Store`] — `install` / `update` / `list` / `remove` over
//!   `<rules_dir>/<name>/<version>/pack.json`, accepting manifest files,
//!   directories, or uncompressed tarballs ([`store`], [`tar`]).
//! * [`cli_main`] — the `wap rules` subcommand ([`cli`]).
//! * [`RulePack::wordpress`] — the builtin starter pack (unprepared
//!   `$wpdb` queries via call-with-argument matching).
//!
//! Like the rest of the analysis core, this crate depends only on
//! workspace crates (`wap-cfg`, `wap-php`, `wap-json`): the JSON and tar
//! codecs are hand-rolled std-only subsets.
//!
//! ## Quick start
//!
//! ```
//! use wap_rules::{RulePack, Store};
//!
//! let dir = std::env::temp_dir().join(format!("wap-rules-doc-{}", std::process::id()));
//! let store = Store::new(&dir);
//! store.install_pack(&RulePack::wordpress())?;
//! let pack = store.resolve("wordpress")?;
//! assert_eq!(pack.rules.len(), 3);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod pack;
pub mod store;
pub mod tar;

pub use cli::{cli_main, RULES_USAGE};
pub use pack::{version_key, RulePack, PACK_SCHEMA_VERSION};
pub use store::{default_rules_dir, InstalledPack, Store, MANIFEST_NAME};
