//! Structured records and their prompt serialization.
//!
//! The paper serializes an entity `e` with attributes `a1..aj` as
//! `"a1 is e1; a2 is e2; ..."` (§3.4). This module provides that rendering
//! plus a small typed record representation used by the product generators.

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// A text value.
    Str(String),
    /// An integer value.
    Int(i64),
    /// A missing value (the imputation target).
    Missing,
}

impl Value {
    /// Render for prompt serialization; `Missing` renders as `"?"`.
    pub(crate) fn render(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Missing => "?".to_owned(),
        }
    }

    /// Whether the value is missing.
    pub(crate) fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

/// An ordered attribute/value record.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// An empty record.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Append a field (builder style).
    #[must_use]
    pub(crate) fn with(mut self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((attr.into(), value.into()));
        self
    }

    /// Append a field in place.
    pub(crate) fn push(&mut self, attr: impl Into<String>, value: impl Into<Value>) {
        self.fields.push((attr.into(), value.into()));
    }

    /// All fields in insertion order.
    pub(crate) fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Number of fields.
    pub(crate) fn len(&self) -> usize {
        self.fields.len()
    }
}

/// Serialize a record in the paper's `"a1 is v1; a2 is v2"` format,
/// omitting the named attribute (the imputation target) and any missing
/// values.
pub(crate) fn serialize_record(record: &Record, exclude: Option<&str>) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(record.len());
    for (attr, value) in record.fields() {
        if exclude == Some(attr.as_str()) || value.is_missing() {
            continue;
        }
        parts.push(format!("{attr} is {}", value.render()));
    }
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Record {
        Record::new()
            .with("name", "Chez Panisse")
            .with("phone", "510-548-5525")
            .with("city", "Berkeley")
    }

    #[test]
    fn serialization_matches_paper_format() {
        let r = sample();
        assert_eq!(
            serialize_record(&r, None),
            "name is Chez Panisse; phone is 510-548-5525; city is Berkeley"
        );
    }

    #[test]
    fn exclusion_hides_target_attribute() {
        let r = sample();
        let s = serialize_record(&r, Some("city"));
        assert!(!s.contains("Berkeley"));
        assert!(s.contains("Chez Panisse"));
    }

    #[test]
    fn missing_values_are_omitted() {
        let r = Record::new().with("a", "x").with("b", Value::Missing);
        assert_eq!(serialize_record(&r, None), "a is x");
    }

    #[test]
    fn fields_and_len() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.fields()[2],
            ("city".into(), Value::Str("Berkeley".into()))
        );
    }

    #[test]
    fn value_conversions_and_render() {
        assert_eq!(Value::from("x").render(), "x");
        assert_eq!(Value::from(7i64).render(), "7");
        assert_eq!(Value::Missing.render(), "?");
        assert!(Value::Missing.is_missing());
    }

    #[test]
    fn int_values_serialize() {
        let r = Record::new().with("year", 2003i64);
        assert_eq!(serialize_record(&r, None), "year is 2003");
    }

    proptest! {
        #[test]
        fn record_serialization_roundtrips_fields(
            fields in prop::collection::vec(("[a-z]{1,8}", "[a-zA-Z0-9 ]{1,12}"), 1..6)
        ) {
            let mut record = Record::new();
            for (k, v) in &fields {
                record.push(k.clone(), v.trim().to_owned());
            }
            let s = serialize_record(&record, None);
            for (k, v) in &fields {
                prop_assert!(
                    s.contains(&format!("{k} is {}", v.trim())),
                    "serialized {s:?} missing {k}"
                );
            }
            // Excluding the first attribute removes exactly its clause.
            let first_key = &fields[0].0;
            let without = serialize_record(&record, Some(first_key));
            let occurrences_with = s.matches(&format!("{first_key} is ")).count();
            let occurrences_without = without.matches(&format!("{first_key} is ")).count();
            prop_assert!(occurrences_without < occurrences_with || occurrences_with == 0);
        }
    }
}
