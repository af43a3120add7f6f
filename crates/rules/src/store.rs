//! The on-disk pack store: `<rules_dir>/<name>/<version>/pack.json`,
//! always written canonically so a pack's fingerprint can be recomputed
//! from the store bytes alone. Installation accepts a JSON manifest file,
//! a directory containing one, or an uncompressed tarball; inside
//! directories and tarballs the manifest is named `pack.json`.

use crate::pack::{version_key, RulePack};
use crate::tar;
use std::fs;
use std::path::{Path, PathBuf};

/// The manifest file name inside directories and tarballs.
pub const MANIFEST_NAME: &str = "pack.json";

/// The rules directory: `WAP_RULES_DIR` or `.wap-rules` under the
/// current directory.
pub fn default_rules_dir() -> PathBuf {
    std::env::var_os("WAP_RULES_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".wap-rules"))
}

/// One installed pack, as listed by [`Store::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstalledPack {
    /// Pack name.
    pub name: String,
    /// Pack version.
    pub version: String,
    /// Deterministic pack fingerprint.
    pub fingerprint: String,
    /// Number of rules the pack declares.
    pub rules: usize,
}

/// A pack store rooted at a rules directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (without creating) a store at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Store {
        Store { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Installs a pack from a manifest file, a directory containing one,
    /// or an uncompressed tarball. Re-installing an existing
    /// name@version overwrites it (that is also `update`).
    ///
    /// # Errors
    ///
    /// Returns a message when the source cannot be read, contains no
    /// manifest, or fails validation.
    pub fn install(&self, source: &Path) -> Result<InstalledPack, String> {
        let manifest = read_manifest(source)?;
        let pack = RulePack::parse(&manifest).map_err(|e| format!("{}: {e}", source.display()))?;
        self.install_pack(&pack)
    }

    /// Installs an in-memory pack (used for builtin starter packs).
    ///
    /// # Errors
    ///
    /// Returns a message when the store directory cannot be written.
    pub fn install_pack(&self, pack: &RulePack) -> Result<InstalledPack, String> {
        let dir = self.root.join(&pack.name).join(&pack.version);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join("pack.json");
        let tmp = dir.join(".pack.json.tmp");
        fs::write(&tmp, pack.to_canonical_json())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
        Ok(InstalledPack {
            name: pack.name.clone(),
            version: pack.version.clone(),
            fingerprint: pack.fingerprint(),
            rules: pack.rules.len(),
        })
    }

    /// Lists installed packs, sorted by name then descending version.
    ///
    /// # Errors
    ///
    /// Returns a message when a stored manifest is unreadable or corrupt.
    pub fn list(&self) -> Result<Vec<InstalledPack>, String> {
        let mut out = Vec::new();
        let Ok(names) = fs::read_dir(&self.root) else {
            return Ok(out); // no store yet: nothing installed
        };
        let mut name_dirs: Vec<PathBuf> = names
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        name_dirs.sort();
        for name_dir in name_dirs {
            let mut versions: Vec<PathBuf> = fs::read_dir(&name_dir)
                .map_err(|e| format!("read {}: {e}", name_dir.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir() && p.join("pack.json").is_file())
                .collect();
            versions.sort_by_key(|p| {
                version_key(&p.file_name().unwrap_or_default().to_string_lossy())
                    .unwrap_or_default()
            });
            versions.reverse();
            for vdir in versions {
                let pack = load_dir(&vdir)?;
                out.push(InstalledPack {
                    fingerprint: pack.fingerprint(),
                    name: pack.name,
                    version: pack.version,
                    rules: pack.rules.len(),
                });
            }
        }
        Ok(out)
    }

    /// Resolves a `name` or `name@version` reference to a loaded pack;
    /// a bare name picks the highest installed version.
    ///
    /// # Errors
    ///
    /// Returns a message when the pack (or version) is not installed.
    pub fn resolve(&self, reference: &str) -> Result<RulePack, String> {
        let (name, version) = match reference.split_once('@') {
            Some((n, v)) => (n, Some(v)),
            None => (reference, None),
        };
        let name_dir = self.root.join(name);
        match version {
            Some(v) => {
                let dir = name_dir.join(v);
                if !dir.join("pack.json").is_file() {
                    return Err(format!("rule pack '{name}@{v}' is not installed"));
                }
                load_dir(&dir)
            }
            None => {
                let mut versions: Vec<(Vec<u64>, PathBuf)> = fs::read_dir(&name_dir)
                    .ok()
                    .into_iter()
                    .flatten()
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.join("pack.json").is_file())
                    .filter_map(|p| {
                        let v = p.file_name()?.to_string_lossy().to_string();
                        Some((version_key(&v)?, p))
                    })
                    .collect();
                versions.sort();
                let Some((_, dir)) = versions.pop() else {
                    return Err(format!("rule pack '{name}' is not installed"));
                };
                load_dir(&dir)
            }
        }
    }

    /// Removes a pack (`name` removes every version; `name@version` one).
    /// Returns how many versions were removed.
    ///
    /// # Errors
    ///
    /// Returns a message when nothing matched or removal failed.
    pub fn remove(&self, reference: &str) -> Result<usize, String> {
        let (name, version) = match reference.split_once('@') {
            Some((n, v)) => (n, Some(v)),
            None => (reference, None),
        };
        let name_dir = self.root.join(name);
        if !name_dir.is_dir() {
            return Err(format!("rule pack '{name}' is not installed"));
        }
        let removed = match version {
            Some(v) => {
                let dir = name_dir.join(v);
                if !dir.is_dir() {
                    return Err(format!("rule pack '{name}@{v}' is not installed"));
                }
                fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
                1
            }
            None => {
                let count = fs::read_dir(&name_dir)
                    .map_err(|e| format!("read {}: {e}", name_dir.display()))?
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().join("pack.json").is_file())
                    .count();
                fs::remove_dir_all(&name_dir)
                    .map_err(|e| format!("remove {}: {e}", name_dir.display()))?;
                count.max(1)
            }
        };
        // drop the now-empty name dir so list() stays clean
        if version.is_some() {
            let empty = fs::read_dir(&name_dir)
                .map(|mut d| d.next().is_none())
                .unwrap_or(false);
            if empty {
                let _ = fs::remove_dir(&name_dir);
            }
        }
        Ok(removed)
    }
}

fn load_dir(dir: &Path) -> Result<RulePack, String> {
    let path = dir.join("pack.json");
    let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    RulePack::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads the manifest text out of a file, directory, or tarball source.
fn read_manifest(source: &Path) -> Result<String, String> {
    if source.is_dir() {
        let candidate = source.join(MANIFEST_NAME);
        if candidate.is_file() {
            return fs::read_to_string(&candidate)
                .map_err(|e| format!("read {}: {e}", candidate.display()));
        }
        return Err(format!(
            "{}: no manifest found (expected {MANIFEST_NAME})",
            source.display()
        ));
    }
    let bytes = fs::read(source).map_err(|e| format!("read {}: {e}", source.display()))?;
    let name = source
        .file_name()
        .map(|n| n.to_string_lossy().to_string())
        .unwrap_or_default();
    if name.ends_with(".json") {
        return String::from_utf8(bytes).map_err(|_| format!("{name}: not UTF-8"));
    }
    // otherwise: a tarball — pick the shallowest manifest entry
    let not_a_pack =
        || format!("{name}: neither a JSON manifest nor a tarball holding {MANIFEST_NAME}");
    let entries = tar::entries(&bytes).map_err(|e| format!("{} ({e})", not_a_pack()))?;
    let mut candidates: Vec<&tar::Entry> = entries
        .iter()
        .filter(|e| e.path.rsplit('/').next() == Some(MANIFEST_NAME))
        .collect();
    candidates.sort_by_key(|e| (e.path.matches('/').count(), e.path.clone()));
    let Some(entry) = candidates.first() else {
        return Err(not_a_pack());
    };
    String::from_utf8(entry.data.clone()).map_err(|_| format!("{}: not UTF-8", entry.path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("wap-rules-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::new(dir)
    }

    #[test]
    fn install_list_resolve_remove_round_trip() {
        let store = temp_store("roundtrip");
        let installed = store.install_pack(&RulePack::wordpress()).unwrap();
        assert_eq!(installed.name, "wordpress");
        assert_eq!(installed.rules, 3);
        assert_eq!(installed.fingerprint, RulePack::wordpress().fingerprint());

        let listed = store.list().unwrap();
        assert_eq!(listed, vec![installed]);

        let resolved = store.resolve("wordpress").unwrap();
        assert_eq!(resolved, RulePack::wordpress());
        assert!(store.resolve("wordpress@9.9.9").is_err());
        assert!(store.resolve("nope").is_err());

        assert_eq!(store.remove("wordpress").unwrap(), 1);
        assert!(store.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn bare_name_resolves_highest_version() {
        let store = temp_store("versions");
        let mut v1 = RulePack::wordpress();
        v1.version = "1.2.0".to_string();
        let mut v2 = RulePack::wordpress();
        v2.version = "1.10.0".to_string();
        store.install_pack(&v1).unwrap();
        store.install_pack(&v2).unwrap();
        assert_eq!(store.resolve("wordpress").unwrap().version, "1.10.0");
        assert_eq!(store.resolve("wordpress@1.2.0").unwrap().version, "1.2.0");
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].version, "1.10.0", "descending version order");
        assert_eq!(store.remove("wordpress@1.2.0").unwrap(), 1);
        assert_eq!(store.list().unwrap().len(), 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn installs_from_dir_file_and_tarball() {
        let store = temp_store("sources");
        let scratch = store.root().join("src");
        fs::create_dir_all(&scratch).unwrap();
        let manifest = RulePack::wordpress().to_canonical_json();

        // directory source
        let dir = scratch.join("pack-dir");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("pack.json"), &manifest).unwrap();
        assert_eq!(store.install(&dir).unwrap().name, "wordpress");

        // bare manifest file
        let file = scratch.join("other.json");
        fs::write(&file, manifest.replace("wordpress", "othername")).unwrap();
        assert_eq!(store.install(&file).unwrap().name, "othername");

        // tarball with the manifest nested one level down
        let tarball = scratch.join("pack.tar");
        fs::write(
            &tarball,
            tar::build(&[("wordpress/pack.json", manifest.as_bytes())]),
        )
        .unwrap();
        assert_eq!(store.install(&tarball).unwrap().name, "wordpress");

        assert!(store
            .install(&scratch.join("missing.tar"))
            .unwrap_err()
            .contains("read"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn yaml_manifests_are_rejected_naming_the_json_manifest() {
        let store = temp_store("yaml");
        let scratch = store.root().join("src");
        let dir = scratch.join("pack-dir");
        fs::create_dir_all(&dir).unwrap();
        // a valid pack in the former YAML-lite syntax, short and past one tar block
        let yaml = |rules: usize| {
            let mut text = "schema: 1\nname: demo\nversion: \"0.2.0\"\nrules:\n".to_string();
            for i in 0..rules {
                text.push_str(&format!(
                    "  - id: no-eval-{i}\n    kind: forbid_call\n    function: eval\n    \
                     severity: error\n    message: eval is banned\n"
                ));
            }
            text
        };
        for text in [yaml(1), yaml(8)] {
            for name in ["pack.yaml", "pack.yml"] {
                let file = scratch.join(name);
                fs::write(&file, &text).unwrap();
                let err = store.install(&file).unwrap_err();
                assert!(
                    err.contains("JSON manifest") && err.contains("pack.json"),
                    "{err}"
                );
                fs::write(dir.join(name), &text).unwrap();
                let err = store.install(&dir).unwrap_err();
                assert!(err.contains("expected pack.json"), "{err}");
            }
        }
        assert!(store.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_stored_manifest_is_reported() {
        let store = temp_store("corrupt");
        store.install_pack(&RulePack::wordpress()).unwrap();
        let path = store.root().join("wordpress/1.0.0/pack.json");
        fs::write(&path, "{not json").unwrap();
        assert!(store.resolve("wordpress").is_err());
        assert!(store.list().is_err());
        let _ = fs::remove_dir_all(store.root());
    }
}
