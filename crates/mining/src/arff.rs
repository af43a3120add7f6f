//! ARFF (WEKA) import/export for training data sets.
//!
//! The paper performed the data-mining process "using the WEKA tool"
//! (§III-B.1). This module speaks WEKA's Attribute-Relation File Format so
//! data sets can round-trip with WEKA: export our generated sets for
//! external experimentation, or train the committee on an externally
//! annotated ARFF file.

use crate::dataset::Dataset;
use std::error::Error;
use std::fmt;

/// Error produced when parsing an ARFF file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArffError {
    message: String,
    line: usize,
}

impl ArffError {
    fn new(message: impl Into<String>, line: usize) -> Self {
        ArffError {
            message: message.into(),
            line,
        }
    }
}

impl fmt::Display for ArffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at line {}", self.message, self.line)
    }
}

impl Error for ArffError {}

/// Serializes a data set as ARFF. Features become `{0,1}` nominal
/// attributes; the class attribute is `{FP,RV}` with `FP` the positive
/// ("Yes") class, matching the paper's convention.
pub fn to_arff(dataset: &Dataset, relation: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("@RELATION {}\n\n", quote_if_needed(relation)));
    for name in &dataset.names {
        out.push_str(&format!("@ATTRIBUTE {} {{0,1}}\n", quote_if_needed(name)));
    }
    out.push_str("@ATTRIBUTE class {FP,RV}\n\n@DATA\n");
    for (x, y) in dataset.x.iter().zip(&dataset.y) {
        for v in x {
            out.push(if *v > 0.5 { '1' } else { '0' });
            out.push(',');
        }
        out.push_str(if *y { "FP" } else { "RV" });
        out.push('\n');
    }
    out
}

fn quote_if_needed(s: &str) -> String {
    if s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && !s.is_empty()
    {
        s.to_string()
    } else {
        format!("'{}'", s.replace('\'', "\\'"))
    }
}

/// Parses an ARFF file into a data set.
///
/// Supports the subset this module writes: nominal `{0,1}` attributes plus
/// a final `class` attribute with two values (first value = positive/FP).
/// Comment lines (`%`) and blank lines are skipped; attribute and keyword
/// matching is case-insensitive, as WEKA's is.
///
/// # Errors
///
/// Returns [`ArffError`] for missing sections, arity mismatches, and
/// values outside the declared domains.
pub fn from_arff(text: &str) -> Result<Dataset, ArffError> {
    let mut names: Vec<String> = Vec::new();
    let mut class_values: Option<(String, String)> = None;
    let mut x: Vec<Vec<f64>> = Vec::new();
    let mut y: Vec<bool> = Vec::new();
    let mut in_data = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let n = lineno + 1;
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        if !in_data {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("@relation") {
                continue;
            }
            if lower.starts_with("@attribute") {
                let rest = line["@attribute".len()..].trim();
                let (name, domain) = split_attribute(rest)
                    .ok_or_else(|| ArffError::new("malformed @ATTRIBUTE", n))?;
                let values: Vec<String> = domain
                    .trim_start_matches('{')
                    .trim_end_matches('}')
                    .split(',')
                    .map(|v| v.trim().trim_matches('\'').to_string())
                    .collect();
                if values.len() != 2 {
                    return Err(ArffError::new(
                        format!("attribute {name} must be binary, got {domain}"),
                        n,
                    ));
                }
                if name.eq_ignore_ascii_case("class") {
                    class_values = Some((values[0].clone(), values[1].clone()));
                } else {
                    if class_values.is_some() {
                        return Err(ArffError::new("class attribute must be declared last", n));
                    }
                    names.push(name);
                }
                continue;
            }
            if lower.starts_with("@data") {
                if class_values.is_none() {
                    return Err(ArffError::new("no class attribute declared", n));
                }
                in_data = true;
                continue;
            }
            return Err(ArffError::new(format!("unexpected header line: {line}"), n));
        }
        // data row
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != names.len() + 1 {
            return Err(ArffError::new(
                format!("expected {} values, got {}", names.len() + 1, cells.len()),
                n,
            ));
        }
        let mut row = Vec::with_capacity(names.len());
        for c in &cells[..names.len()] {
            match *c {
                "0" => row.push(0.0),
                "1" => row.push(1.0),
                other => return Err(ArffError::new(format!("non-binary value `{other}`"), n)),
            }
        }
        let (pos, neg) = class_values.as_ref().expect("checked at @data");
        let label = cells[names.len()].trim_matches('\'');
        if label.eq_ignore_ascii_case(pos) {
            y.push(true);
        } else if label.eq_ignore_ascii_case(neg) {
            y.push(false);
        } else {
            return Err(ArffError::new(format!("unknown class label `{label}`"), n));
        }
        x.push(row);
    }
    if !in_data {
        return Err(ArffError::new("no @DATA section", text.lines().count()));
    }
    Ok(Dataset { x, y, names })
}

fn split_attribute(rest: &str) -> Option<(String, String)> {
    let rest = rest.trim();
    if let Some(stripped) = rest.strip_prefix('\'') {
        let end = stripped.find('\'')?;
        let name = stripped[..end].to_string();
        let domain = stripped[end + 1..].trim().to_string();
        Some((name, domain))
    } else {
        let mut it = rest.splitn(2, char::is_whitespace);
        let name = it.next()?.to_string();
        let domain = it.next()?.trim().to_string();
        Some((name, domain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_wape_dataset() {
        let d = Dataset::wape(42);
        let arff = to_arff(&d, "wap-instances");
        let back = from_arff(&arff).expect("round trip");
        assert_eq!(back.x, d.x);
        assert_eq!(back.y, d.y);
        assert_eq!(back.names, d.names);
    }

    #[test]
    fn round_trip_original_dataset() {
        let d = Dataset::original(7);
        let arff = to_arff(&d, "wap v2.1 instances");
        assert!(arff.contains("@RELATION 'wap v2.1 instances'"));
        let back = from_arff(&arff).expect("round trip");
        assert_eq!(back.len(), 76);
        assert_eq!(back.positives(), 32);
    }

    #[test]
    fn export_shape() {
        let d = Dataset::wape(1);
        let arff = to_arff(&d, "r");
        assert_eq!(
            arff.matches("@ATTRIBUTE").count(),
            61,
            "60 features + class"
        );
        assert!(arff.contains("@ATTRIBUTE class {FP,RV}"));
        assert_eq!(
            arff.lines()
                .filter(|l| l.ends_with(",FP") || l.ends_with(",RV"))
                .count(),
            256
        );
    }

    #[test]
    fn parse_hand_written_arff() {
        let arff = "\
% a comment
@RELATION tiny
@ATTRIBUTE isset {0,1}
@ATTRIBUTE concat_op {0,1}
@attribute class {FP,RV}

@data
1,0,FP
0,1,RV
1,1,FP
";
        let d = from_arff(arff).expect("parses");
        assert_eq!(d.len(), 3);
        assert_eq!(d.positives(), 2);
        assert_eq!(d.names, vec!["isset".to_string(), "concat_op".to_string()]);
    }

    #[test]
    fn parse_errors_are_located() {
        let missing_data = "@RELATION x\n@ATTRIBUTE a {0,1}\n@ATTRIBUTE class {FP,RV}\n";
        assert!(from_arff(missing_data).is_err());

        let bad_arity =
            "@RELATION x\n@ATTRIBUTE a {0,1}\n@ATTRIBUTE class {FP,RV}\n@DATA\n1,0,FP\n";
        let err = from_arff(bad_arity).unwrap_err();
        assert!(err.to_string().contains("expected 2 values"));

        let bad_value = "@RELATION x\n@ATTRIBUTE a {0,1}\n@ATTRIBUTE class {FP,RV}\n@DATA\n7,FP\n";
        assert!(from_arff(bad_value)
            .unwrap_err()
            .to_string()
            .contains("non-binary"));

        let bad_label =
            "@RELATION x\n@ATTRIBUTE a {0,1}\n@ATTRIBUTE class {FP,RV}\n@DATA\n1,MAYBE\n";
        assert!(from_arff(bad_label)
            .unwrap_err()
            .to_string()
            .contains("unknown class"));
    }

    #[test]
    fn trained_committee_from_arff_works() {
        use crate::classifiers::ClassifierKind;
        use crate::predictor::FalsePositivePredictor;
        let d = Dataset::wape(42);
        let arff = to_arff(&d, "x");
        let imported = from_arff(&arff).unwrap();
        let p = FalsePositivePredictor::train_on(&ClassifierKind::top3(), &imported, 42);
        // the imported-data committee behaves like the native one
        let mut features = vec![0.0; 60];
        features[crate::attributes::symptom_index("isset").unwrap()] = 1.0;
        features[crate::attributes::symptom_index("is_numeric").unwrap()] = 1.0;
        features[crate::attributes::symptom_index("exit").unwrap()] = 1.0;
        features[crate::attributes::symptom_index("preg_match").unwrap()] = 1.0;
        let fv = crate::symptoms::FeatureVector {
            features,
            present: vec![],
        };
        assert!(p.predict(&fv).is_false_positive);
    }
}
