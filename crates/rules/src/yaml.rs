//! YAML-lite parser for pack manifests: indentation-scoped mappings,
//! `- ` block lists, quoted and plain scalars, `#` comments. Covers the
//! subset rule packs use; anchors, multi-line scalars, and flow
//! collections are out of scope. Produces the same [`Value`] tree as the
//! JSON parser.

use wap_json::Value;

/// Parses a YAML-lite document into a [`Value`].
///
/// # Errors
///
/// Returns a message with a 1-based line number on malformed input.
pub fn parse(src: &str) -> Result<Value, String> {
    let lines: Vec<Line> = src
        .lines()
        .enumerate()
        .filter_map(|(i, raw)| {
            let without_comment = strip_comment(raw);
            let trimmed = without_comment.trim_end();
            if trimmed.trim().is_empty() {
                return None;
            }
            let indent = trimmed.len() - trimmed.trim_start().len();
            Some(Line {
                number: i + 1,
                indent,
                text: trimmed.trim_start().to_string(),
            })
        })
        .collect();
    if lines.is_empty() {
        return Ok(Value::Null);
    }
    let mut pos = 0usize;
    let v = parse_block(&lines, &mut pos, lines[0].indent)?;
    if pos != lines.len() {
        return Err(format!(
            "line {}: unexpected dedent/content",
            lines[pos].number
        ));
    }
    Ok(v)
}

struct Line {
    number: usize,
    indent: usize,
    text: String,
}

fn strip_comment(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut quote: Option<char> = None;
    for c in line.chars() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => {
                if c == '\'' || c == '"' {
                    quote = Some(c);
                } else if c == '#' {
                    break;
                }
            }
        }
        out.push(c);
    }
    out
}

fn parse_block(lines: &[Line], pos: &mut usize, indent: usize) -> Result<Value, String> {
    if lines[*pos].text.starts_with("- ") || lines[*pos].text == "-" {
        parse_list(lines, pos, indent)
    } else {
        parse_map(lines, pos, indent)
    }
}

fn parse_list(lines: &[Line], pos: &mut usize, indent: usize) -> Result<Value, String> {
    let mut items = Vec::new();
    while *pos < lines.len() && lines[*pos].indent == indent && lines[*pos].text.starts_with('-') {
        let line = &lines[*pos];
        let rest = line.text[1..].trim_start().to_string();
        if rest.is_empty() {
            // "-" alone: nested block on the following lines
            *pos += 1;
            if *pos < lines.len() && lines[*pos].indent > indent {
                let inner = lines[*pos].indent;
                items.push(parse_block(lines, pos, inner)?);
            } else {
                items.push(Value::Null);
            }
            continue;
        }
        if let Some((key, val)) = split_key(&rest) {
            // "- key: ..." opens an inline mapping; its other keys sit on
            // following lines indented past the dash
            let item_indent = indent + (line.text.len() - rest.len());
            let mut entries = vec![entry_value(lines, pos, item_indent, key, val)?];
            while *pos < lines.len() && lines[*pos].indent == item_indent {
                let text = lines[*pos].text.clone();
                let Some((key, val)) = split_key(&text) else {
                    return Err(format!(
                        "line {}: expected 'key:' entry",
                        lines[*pos].number
                    ));
                };
                entries.push(entry_value(lines, pos, item_indent, key, val)?);
            }
            items.push(Value::Obj(entries));
        } else {
            *pos += 1;
            items.push(scalar(&rest));
        }
    }
    Ok(Value::Arr(items))
}

fn parse_map(lines: &[Line], pos: &mut usize, indent: usize) -> Result<Value, String> {
    let mut entries = Vec::new();
    while *pos < lines.len() && lines[*pos].indent == indent {
        let text = lines[*pos].text.clone();
        let Some((key, val)) = split_key(&text) else {
            return Err(format!(
                "line {}: expected 'key:' entry",
                lines[*pos].number
            ));
        };
        entries.push(entry_value(lines, pos, indent, key, val)?);
    }
    Ok(Value::Obj(entries))
}

/// Consumes one `key: value` line (and any nested block) and returns the
/// map entry. `*pos` is on the key line on entry, past the entry on exit.
fn entry_value(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    key: String,
    val: Option<String>,
) -> Result<(String, Value), String> {
    *pos += 1;
    let value = match val {
        Some(v) => scalar(&v),
        None => {
            if *pos < lines.len() && lines[*pos].indent > indent {
                let inner = lines[*pos].indent;
                parse_block(lines, pos, inner)?
            } else {
                Value::Null
            }
        }
    };
    Ok((key, value))
}

/// Splits `key: value` / `key:`; returns `None` when the line has no
/// top-level colon (list scalars). Quoted keys are supported.
fn split_key(text: &str) -> Option<(String, Option<String>)> {
    let chars: Vec<char> = text.chars().collect();
    let mut quote: Option<char> = None;
    for (i, c) in chars.iter().enumerate() {
        match quote {
            Some(q) => {
                if *c == q {
                    quote = None;
                }
            }
            None => {
                if *c == '\'' || *c == '"' {
                    quote = Some(*c);
                } else if *c == ':' && (i + 1 == chars.len() || chars[i + 1].is_whitespace()) {
                    let key = unquote(chars[..i].iter().collect::<String>().trim());
                    let rest: String = chars[i + 1..].iter().collect();
                    let rest = rest.trim();
                    return Some((
                        key,
                        if rest.is_empty() {
                            None
                        } else {
                            Some(rest.to_string())
                        },
                    ));
                }
            }
        }
    }
    None
}

fn unquote(s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() >= 2 {
        if chars[0] == '\'' && chars[chars.len() - 1] == '\'' {
            return chars[1..chars.len() - 1].iter().collect();
        }
        if chars[0] == '"' && chars[chars.len() - 1] == '"' {
            let inner: String = chars[1..chars.len() - 1].iter().collect();
            let mut out = String::with_capacity(inner.len());
            let mut it = inner.chars();
            while let Some(c) = it.next() {
                if c == '\\' {
                    match it.next() {
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        Some('r') => out.push('\r'),
                        Some(other) => out.push(other),
                        None => out.push('\\'),
                    }
                } else {
                    out.push(c);
                }
            }
            return out;
        }
    }
    s.to_string()
}

fn scalar(s: &str) -> Value {
    let trimmed = s.trim();
    let first = trimmed.chars().next();
    if first == Some('\'') || first == Some('"') {
        return Value::Str(unquote(trimmed));
    }
    match trimmed {
        "null" | "~" => return Value::Null,
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(n) = trimmed.parse::<f64>() {
        return Value::Num(n);
    }
    Value::Str(trimmed.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_pack_shaped_document() {
        let doc = "\
schema: 1
name: wordpress   # starter pack
version: \"1.0.0\"
rules:
  - id: wp-a
    kind: call_with_arg
    function: query
    argument: \"\\\"[^\\\"]*\\\\$\"
  - id: wp-b
    kind: forbid_call
    function: eval
    where:
      X: \"^\\\\$_GET\"
";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("name").unwrap().as_str(), Some("wordpress"));
        assert_eq!(v.get("version").unwrap().as_str(), Some("1.0.0"));
        let rules = v.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].get("id").unwrap().as_str(), Some("wp-a"));
        assert_eq!(
            rules[0].get("argument").unwrap().as_str(),
            Some("\"[^\"]*\\$")
        );
        assert_eq!(
            rules[1].get("where").unwrap().get("X").unwrap().as_str(),
            Some("^\\$_GET")
        );
    }

    #[test]
    fn scalar_types_and_comments() {
        let v = parse("a: true\nb: 2.5\nc: null\nd: plain text\n# comment\ne: 'q # not comment'\n")
            .unwrap();
        assert_eq!(v.get("a"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("d").unwrap().as_str(), Some("plain text"));
        assert_eq!(v.get("e").unwrap().as_str(), Some("q # not comment"));
    }

    #[test]
    fn list_of_scalars() {
        let v = parse("xs:\n  - a\n  - b\n").unwrap();
        let xs = v.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[1].as_str(), Some("b"));
    }

    #[test]
    fn rejects_bad_structure() {
        assert!(parse("a: 1\n  stray\n").is_err());
        assert!(parse("just a scalar line\n").is_err());
    }

    #[test]
    fn empty_document_is_null() {
        assert_eq!(parse("\n# only comments\n").unwrap(), Value::Null);
    }
}
