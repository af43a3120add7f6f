//! Minimal ustar reading and writing — the workspace's one tar codec,
//! behind both pack tarballs and `wap serve` uploads. Only the subset
//! those need is implemented: 512-byte blocks, `name` + `prefix` joined,
//! octal sizes, typeflag `'0'`/NUL for regular files; other entry types
//! (directories, symlinks, devices, pax extensions) are skipped.

/// The ustar block size: headers and padded contents are multiples of it.
pub const BLOCK: usize = 512;

/// One regular-file entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Entry path as stored (prefix-joined).
    pub path: String,
    /// File contents.
    pub data: Vec<u8>,
}

/// Reads every regular-file entry from a tar byte stream.
///
/// # Errors
///
/// Returns a message for truncated streams, non-octal sizes, and unsafe
/// paths (absolute or containing `..`).
pub fn entries(bytes: &[u8]) -> Result<Vec<Entry>, String> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off + BLOCK <= bytes.len() {
        let header = &bytes[off..off + BLOCK];
        if header.iter().all(|&b| b == 0) {
            break; // end-of-archive marker
        }
        let name = field_str(&header[0..100]);
        let prefix = field_str(&header[345..500]);
        let path = if prefix.is_empty() {
            name.clone()
        } else {
            format!("{prefix}/{name}")
        };
        let size = octal_field(&header[124..136])
            .ok_or_else(|| format!("bad size field in entry '{path}'"))?;
        let typeflag = header[156];
        off += BLOCK;
        let end = usize::try_from(size)
            .ok()
            .and_then(|n| off.checked_add(n))
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| format!("truncated entry '{path}'"))?;
        if typeflag == b'0' || typeflag == 0 {
            check_path(&path)?;
            out.push(Entry {
                path,
                data: bytes[off..end].to_vec(),
            });
        }
        off = end.div_ceil(BLOCK) * BLOCK;
    }
    Ok(out)
}

fn field_str(field: &[u8]) -> String {
    let end = field.iter().position(|&b| b == 0).unwrap_or(field.len());
    String::from_utf8_lossy(&field[..end]).trim().to_string()
}

fn octal_field(field: &[u8]) -> Option<u64> {
    let text = field_str(field);
    if text.is_empty() {
        return Some(0);
    }
    u64::from_str_radix(&text, 8).ok()
}

fn check_path(path: &str) -> Result<(), String> {
    if path.starts_with('/') {
        return Err(format!("absolute path '{path}' in archive"));
    }
    if path.split('/').any(|seg| seg == "..") {
        return Err(format!("path traversal in '{path}'"));
    }
    Ok(())
}

/// Builds a plain ustar stream from `(path, contents)` pairs, matching
/// what [`entries`] reads; used by tests and by clients that upload
/// in-memory trees.
///
/// # Panics
///
/// Panics on a path longer than 99 bytes: the writer never splits names
/// into `prefix`, and silently truncating one would archive another file.
pub fn build(files: &[(&str, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    for (path, data) in files {
        let mut header = [0u8; BLOCK];
        let name = path.as_bytes();
        assert!(name.len() < 100, "tar writer: name too long: {path}");
        header[..name.len()].copy_from_slice(name);
        header[100..108].copy_from_slice(b"0000644\0");
        header[108..116].copy_from_slice(b"0000000\0");
        header[116..124].copy_from_slice(b"0000000\0");
        let size = format!("{:011o}\0", data.len());
        header[124..136].copy_from_slice(size.as_bytes());
        header[136..148].copy_from_slice(b"00000000000\0");
        header[156] = b'0';
        header[257..263].copy_from_slice(b"ustar\0");
        header[263..265].copy_from_slice(b"00");
        // checksum: spaces while summing, then the octal sum
        header[148..156].copy_from_slice(b"        ");
        let sum: u32 = header.iter().map(|&b| b as u32).sum();
        let chk = format!("{sum:06o}\0 ");
        header[148..156].copy_from_slice(chk.as_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(data);
        let pad = data.len().div_ceil(BLOCK) * BLOCK - data.len();
        out.extend(std::iter::repeat_n(0u8, pad));
    }
    out.extend(std::iter::repeat_n(0u8, BLOCK * 2));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_regular_files() {
        let tar = build(&[("pack.json", b"{}"), ("docs/README", b"hello")]);
        let got = entries(&tar).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].path, "pack.json");
        assert_eq!(got[0].data, b"{}");
        assert_eq!(got[1].path, "docs/README");
        assert_eq!(got[1].data, b"hello");
    }

    #[test]
    fn rejects_traversal_and_truncation() {
        let evil = build(&[("../escape", b"x")]);
        assert!(entries(&evil).unwrap_err().contains("traversal"));
        let tar = build(&[("a", b"data")]);
        assert!(entries(&tar[..513]).unwrap_err().contains("truncated"));
    }

    #[test]
    #[should_panic(expected = "name too long")]
    fn writer_rejects_names_it_cannot_store() {
        build(&[(&"d/".repeat(50), b"x")]);
    }

    #[test]
    fn empty_archive_is_empty() {
        assert!(entries(&build(&[])).unwrap().is_empty());
        assert!(entries(&[]).unwrap().is_empty());
    }
}
