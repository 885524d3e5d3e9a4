//! Structured records and their prompt serialization.
//!
//! The paper serializes an entity `e` with attributes `a1..aj` as
//! `"a1 is e1; a2 is e2; ..."` (§3.4). This module provides that rendering
//! plus a small typed record representation used by the product generators.

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A text value.
    Str(String),
    /// An integer value.
    Int(i64),
    /// A missing value (the imputation target).
    Missing,
}

impl Value {
    /// Render for prompt serialization; `Missing` renders as `"?"`.
    pub fn render(&self) -> String {
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
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a field (builder style).
    #[must_use]
    pub fn with(mut self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((attr.into(), value.into()));
        self
    }

    /// Append a field in place.
    pub fn push(&mut self, attr: impl Into<String>, value: impl Into<Value>) {
        self.fields.push((attr.into(), value.into()));
    }

    /// Look up a field by attribute name.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.fields.iter().find(|(a, _)| a == attr).map(|(_, v)| v)
    }

    /// All fields in insertion order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// Serialize a record in the paper's `"a1 is v1; a2 is v2"` format,
/// omitting the named attribute (the imputation target) and any missing
/// values.
pub fn serialize_record(record: &Record, exclude: Option<&str>) -> String {
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
    fn get_and_len() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.get("city"), Some(&Value::Str("Berkeley".into())));
        assert_eq!(r.get("nope"), None);
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
}
