//! Schemas: ordered, named, typed field lists.

use crate::error::{StorageError, StorageResult};
use crate::value::DataType;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One named, typed field of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Field name. Within the AQP system, fields in denormalised (joined)
    /// views use qualified `table.column` names so the same query text can
    /// run against the base star schema or against a join synopsis (a join
    /// key by the fact's foreign-key name: the view leaves out the
    /// dimension's primary key).
    pub name: String,
    /// The field's data type.
    pub data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of fields with by-name lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    index: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema from fields, rejecting duplicates.
    pub fn new(fields: Vec<Field>) -> StorageResult<Arc<Self>> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if index.insert(f.name.clone(), i).is_some() {
                return Err(StorageError::DuplicateField(f.name.clone()));
            }
        }
        Ok(Arc::new(Schema { fields, index }))
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field named `name`.
    pub fn index_of(&self, name: &str) -> StorageResult<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::ColumnNotFound { name: name.into() })
    }

    /// The field named `name`.
    pub fn field(&self, name: &str) -> StorageResult<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// Whether a field with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Field names in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|f| f.name.as_str())
    }
}

/// Fluent builder for [`Schema`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    fields: Vec<Field>,
}

impl SchemaBuilder {
    /// Start an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a field.
    pub fn field(mut self, name: impl Into<String>, data_type: DataType) -> Self {
        self.fields.push(Field::new(name, data_type));
        self
    }

    /// Finish, validating uniqueness of names.
    pub fn build(self) -> StorageResult<Arc<Schema>> {
        Schema::new(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let s = SchemaBuilder::new()
            .field("a", DataType::Int64)
            .field("b", DataType::Utf8)
            .build()
            .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert_eq!(s.field("a").unwrap().data_type, DataType::Int64);
        assert!(s.contains("a"));
        assert!(!s.contains("c"));
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn missing_column_is_error() {
        let s = SchemaBuilder::new().field("a", DataType::Int64).build().unwrap();
        assert!(matches!(
            s.index_of("zzz"),
            Err(StorageError::ColumnNotFound { .. })
        ));
    }

    #[test]
    fn duplicate_field_rejected() {
        let r = SchemaBuilder::new()
            .field("a", DataType::Int64)
            .field("a", DataType::Utf8)
            .build();
        assert!(matches!(r, Err(StorageError::DuplicateField(_))));
    }
}
