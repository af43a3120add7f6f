//! In-memory source overlays: unsaved editor buffers as first-class
//! scan input.
//!
//! The pipeline already analyzes `(name, contents)` pairs, so nothing in
//! `WapTool` cares whether bytes came from disk. What an LSP front-end
//! needs on top is the *merge*: scan a directory tree while some files'
//! contents come from open editor buffers instead of disk (and some
//! buffers name files that do not exist on disk yet).
//! [`collect_sources_with_overlay`] produces exactly the source list a
//! cold CLI scan would see if every buffer were saved — same walk, same
//! ordering, same display names — so live diagnostics converge
//! byte-identically to a batch scan once buffer and disk agree.
//!
//! Cache keying needs no changes: incremental-cache keys hash file
//! *content* (plus the config fingerprint), never paths or mtimes, so an
//! overlaid buffer hits or misses the cache exactly as its saved
//! counterpart would.

use crate::cli::collect_php_files;
use crate::error::WapError;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A set of `path → contents` entries that shadow the filesystem during
/// source collection. Paths are the display-path strings the pipeline
/// uses as file names (what `Path::display` yields for the scanned
/// tree), so an overlay entry and its on-disk counterpart collide on the
/// same name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceOverlay {
    entries: BTreeMap<String, String>,
}

impl SourceOverlay {
    /// An empty overlay (collection falls through to disk everywhere).
    pub fn new() -> SourceOverlay {
        SourceOverlay::default()
    }

    /// Inserts or replaces the buffer for `path`.
    pub fn insert(&mut self, path: impl Into<String>, contents: impl Into<String>) {
        self.entries.insert(path.into(), contents.into());
    }

    /// Removes the buffer for `path` (subsequent collection reads disk
    /// again); returns the removed contents.
    pub fn remove(&mut self, path: &str) -> Option<String> {
        self.entries.remove(path)
    }

    /// The buffer for `path`, when one is held.
    pub fn get(&self, path: &str) -> Option<&str> {
        self.entries.get(path).map(String::as_str)
    }

    /// Whether no buffers are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buffers held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Every overlaid path, in sorted order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

/// Collects `.php` sources under `paths` with `overlay` shadowing the
/// filesystem: overlaid contents win over disk for matching names, and
/// overlay-only `.php` paths join the scan as if they existed on disk.
/// The result uses the same recursive walk, sort order, and display
/// names as the CLI's collection, so analyzing it is byte-identical to a
/// cold scan of a tree where every buffer has been saved.
///
/// # Errors
///
/// Returns [`WapError::Io`]/[`WapError::Usage`] from the directory walk
/// or an unreadable non-overlaid file.
pub fn collect_sources_with_overlay(
    paths: &[PathBuf],
    overlay: &SourceOverlay,
) -> Result<Vec<(String, String)>, WapError> {
    let mut files = collect_php_files(paths)?;
    for p in overlay.paths() {
        let pb = PathBuf::from(p);
        if pb.extension().map(|e| e == "php").unwrap_or(false) {
            files.push(pb);
        }
    }
    // same ordering contract as a plain collection: PathBuf sort + dedup,
    // so an overlay-only file lands exactly where its saved version would
    files.sort();
    files.dedup();
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let name = f.display().to_string();
        let contents = match overlay.get(&name) {
            Some(buf) => buf.to_string(),
            None => std::fs::read_to_string(f).map_err(|e| WapError::io(f, e))?,
        };
        sources.push((name, contents));
    }
    Ok(sources)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wap-overlay-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn overlay_shadows_disk_and_adds_new_files() {
        let dir = tmpdir("shadow");
        std::fs::write(dir.join("a.php"), "<?php echo 'disk';\n").unwrap();
        std::fs::write(dir.join("b.php"), "<?php echo 'kept';\n").unwrap();
        let mut overlay = SourceOverlay::new();
        overlay.insert(
            dir.join("a.php").display().to_string(),
            "<?php echo 'buffer';\n",
        );
        overlay.insert(
            dir.join("new.php").display().to_string(),
            "<?php echo 'fresh';\n",
        );
        overlay.insert(
            dir.join("notes.txt").display().to_string(),
            "not php, never collected",
        );
        let sources = collect_sources_with_overlay(std::slice::from_ref(&dir), &overlay).unwrap();
        let names: Vec<&str> = sources.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), 3, "{names:?}");
        assert!(names[0].ends_with("a.php"));
        assert!(names[1].ends_with("b.php"));
        assert!(names[2].ends_with("new.php"));
        assert_eq!(sources[0].1, "<?php echo 'buffer';\n");
        assert_eq!(sources[1].1, "<?php echo 'kept';\n");
        assert_eq!(sources[2].1, "<?php echo 'fresh';\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_overlay_matches_plain_collection() {
        let dir = tmpdir("saved");
        std::fs::write(dir.join("x.php"), "<?php echo $_GET['v'];\n").unwrap();
        std::fs::write(dir.join("y.php"), "<?php echo 1;\n").unwrap();
        let mut overlay = SourceOverlay::new();
        // buffer content identical to disk: collection must be identical
        overlay.insert(
            dir.join("x.php").display().to_string(),
            "<?php echo $_GET['v'];\n",
        );
        let with = collect_sources_with_overlay(std::slice::from_ref(&dir), &overlay).unwrap();
        let without =
            collect_sources_with_overlay(std::slice::from_ref(&dir), &SourceOverlay::new())
                .unwrap();
        assert_eq!(with, without);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_falls_back_to_disk() {
        let dir = tmpdir("remove");
        let path = dir.join("f.php").display().to_string();
        std::fs::write(dir.join("f.php"), "<?php echo 'disk';\n").unwrap();
        let mut overlay = SourceOverlay::new();
        overlay.insert(&path, "<?php echo 'buffer';\n");
        assert_eq!(overlay.get(&path), Some("<?php echo 'buffer';\n"));
        assert_eq!(overlay.len(), 1);
        assert!(!overlay.is_empty());
        overlay.remove(&path);
        assert!(overlay.is_empty());
        let sources = collect_sources_with_overlay(std::slice::from_ref(&dir), &overlay).unwrap();
        assert_eq!(sources[0].1, "<?php echo 'disk';\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlay_only_scan_needs_no_disk() {
        let dir = tmpdir("nodisk");
        let mut overlay = SourceOverlay::new();
        overlay.insert(
            dir.join("mem.php").display().to_string(),
            "<?php echo $_GET['q'];\n",
        );
        // scanning the (empty) dir still picks up the unsaved buffer
        let sources = collect_sources_with_overlay(std::slice::from_ref(&dir), &overlay).unwrap();
        assert_eq!(sources.len(), 1);
        assert!(sources[0].0.ends_with("mem.php"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
