//! Tar uploads: `POST /v1/scan` and `/v1/batch` accept a ustar archive of
//! PHP sources. The codec is [`wap_rules::tar`]; this module is the
//! service's view of it — regular `.php` members as `(name, contents)`
//! pairs.

/// Extracts the `.php` regular files from a ustar archive.
///
/// Member paths are normalized (leading `./` stripped) and validated:
/// absolute paths and `..` components are rejected outright, so a crafted
/// archive cannot name files outside its own tree.
///
/// # Errors
///
/// Returns a message for truncated archives, non-UTF-8 PHP sources, and
/// unsafe member paths.
pub fn extract_php_sources(data: &[u8]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for entry in wap_rules::tar::entries(data)? {
        let name = match entry.path.strip_prefix("./") {
            Some(rest) => rest.to_string(),
            None => entry.path,
        };
        if name.ends_with(".php") {
            let contents =
                String::from_utf8(entry.data).map_err(|_| format!("member {name} is not UTF-8"))?;
            out.push((name, contents));
        }
    }
    Ok(out)
}

/// Builds a ustar archive of the given `(name, contents)` members.
/// Used by tests and by clients that upload in-memory trees.
///
/// # Panics
///
/// Panics on a member name longer than 99 bytes ([`wap_rules::tar::build`]).
pub fn build(members: &[(String, String)]) -> Vec<u8> {
    let files: Vec<(&str, &[u8])> = members
        .iter()
        .map(|(name, contents)| (name.as_str(), contents.as_bytes()))
        .collect();
    wap_rules::tar::build(&files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wap_rules::tar::BLOCK;

    fn members(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter()
            .map(|(n, c)| (n.to_string(), c.to_string()))
            .collect()
    }

    #[test]
    fn round_trips_php_members() {
        let m = members(&[
            ("app/index.php", "<?php echo $_GET['v'];\n"),
            ("app/readme.txt", "not php"),
            ("app/lib/db.php", "<?php mysql_query($_GET['q']);\n"),
        ]);
        let archive = build(&m);
        let got = extract_php_sources(&archive).unwrap();
        assert_eq!(
            got,
            members(&[
                ("app/index.php", "<?php echo $_GET['v'];\n"),
                ("app/lib/db.php", "<?php mysql_query($_GET['q']);\n"),
            ])
        );
    }

    #[test]
    fn rejects_escaping_paths() {
        let archive = build(&members(&[("../evil.php", "<?php ?>")]));
        assert!(extract_php_sources(&archive).is_err());
        let archive = build(&members(&[("a/../../evil.php", "<?php ?>")]));
        assert!(extract_php_sources(&archive).is_err());
    }

    #[test]
    fn rejects_truncated_archives() {
        let mut archive = build(&members(&[("a.php", "<?php echo 1;\n")]));
        archive.truncate(BLOCK + 4); // header + partial body
        assert!(extract_php_sources(&archive).is_err());
    }

    #[test]
    fn empty_archive_is_empty() {
        assert!(extract_php_sources(&[0u8; 2 * BLOCK]).unwrap().is_empty());
        assert!(extract_php_sources(&[]).unwrap().is_empty());
    }

    #[test]
    fn strips_leading_dot_slash() {
        let archive = build(&members(&[("./x.php", "<?php ?>")]));
        let got = extract_php_sources(&archive).unwrap();
        assert_eq!(got[0].0, "x.php");
    }
}
