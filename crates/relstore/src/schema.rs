//! Table schemas: column names, types, and the primary key.

use crate::datum::Datum;
use crate::error::{RelError, RelResult};

/// Column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Bool,
    Int,
    Float,
    Text,
    Timestamp,
    /// `text[]`: multi-valued metadata columns.
    TextArray,
}

impl ColumnType {
    pub fn name(&self) -> &'static str {
        match self {
            ColumnType::Bool => "bool",
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Text => "text",
            ColumnType::Timestamp => "timestamp",
            ColumnType::TextArray => "text[]",
        }
    }

    /// Does `datum` inhabit this type? NULL inhabits every type.
    pub fn admits(&self, datum: &Datum) -> bool {
        matches!(
            (self, datum),
            (_, Datum::Null)
                | (ColumnType::Bool, Datum::Bool(_))
                | (ColumnType::Int, Datum::Int(_))
                | (ColumnType::Float, Datum::Float(_))
                | (ColumnType::Text, Datum::Text(_))
                | (ColumnType::Timestamp, Datum::Timestamp(_))
                | (ColumnType::TextArray, Datum::TextArray(_))
        )
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
}

/// A table schema: ordered columns plus the primary-key column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    /// Index into `columns` of the primary key.
    pk: usize,
}

impl Schema {
    /// Build a schema. `pk_column` must name one of the columns.
    pub fn new(columns: Vec<(&str, ColumnType)>, pk_column: &str) -> RelResult<Schema> {
        let columns: Vec<Column> = columns
            .into_iter()
            .map(|(name, ty)| Column {
                name: name.to_string(),
                ty,
            })
            .collect();
        let pk = columns
            .iter()
            .position(|c| c.name == pk_column)
            .ok_or_else(|| RelError::NoSuchColumn(pk_column.to_string()))?;
        Ok(Schema { columns, pk })
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of `name`, if it exists.
    pub fn column_index(&self, name: &str) -> RelResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelError::NoSuchColumn(name.to_string()))
    }

    /// The primary-key column position.
    pub fn pk_index(&self) -> usize {
        self.pk
    }

    /// Validate a row against this schema (arity and per-column types).
    pub fn check_row(&self, row: &[Datum]) -> RelResult<()> {
        if row.len() != self.columns.len() {
            return Err(RelError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (col, datum) in self.columns.iter().zip(row) {
            if !col.ty.admits(datum) {
                return Err(RelError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.name().to_string(),
                    got: datum.type_name().to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            vec![
                ("key", ColumnType::Text),
                ("data", ColumnType::Text),
                ("purposes", ColumnType::TextArray),
                ("expiry", ColumnType::Timestamp),
            ],
            "key",
        )
        .unwrap()
    }

    #[test]
    fn pk_resolution() {
        let s = schema();
        assert_eq!(s.pk_index(), 0);
        assert_eq!(s.column_index("expiry").unwrap(), 3);
        assert!(matches!(
            s.column_index("ghost"),
            Err(RelError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn bad_pk_rejected() {
        assert!(Schema::new(vec![("a", ColumnType::Int)], "nope").is_err());
    }

    #[test]
    fn check_row_accepts_valid() {
        let s = schema();
        let row = vec![
            Datum::Text("k1".into()),
            Datum::Text("d".into()),
            Datum::TextArray(vec!["ads".into()]),
            Datum::Timestamp(42),
        ];
        assert!(s.check_row(&row).is_ok());
    }

    #[test]
    fn check_row_accepts_nulls() {
        let s = schema();
        let row = vec![
            Datum::Text("k1".into()),
            Datum::Null,
            Datum::Null,
            Datum::Null,
        ];
        assert!(s.check_row(&row).is_ok());
    }

    #[test]
    fn check_row_rejects_arity() {
        let s = schema();
        assert!(matches!(
            s.check_row(&[Datum::Text("k".into())]),
            Err(RelError::ArityMismatch {
                expected: 4,
                got: 1
            })
        ));
    }

    #[test]
    fn check_row_rejects_type() {
        let s = schema();
        let row = vec![
            Datum::Text("k1".into()),
            Datum::Int(5), // wrong: data is text
            Datum::TextArray(vec![]),
            Datum::Timestamp(0),
        ];
        assert!(matches!(
            s.check_row(&row),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn admits_matrix() {
        assert!(ColumnType::Int.admits(&Datum::Int(1)));
        assert!(!ColumnType::Int.admits(&Datum::Text("1".into())));
        assert!(ColumnType::Text.admits(&Datum::Null));
        assert!(ColumnType::TextArray.admits(&Datum::TextArray(vec![])));
        assert!(!ColumnType::TextArray.admits(&Datum::Text("a".into())));
    }
}
