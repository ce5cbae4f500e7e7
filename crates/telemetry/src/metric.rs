//! The one table every device scalar is exported through (DESIGN.md §9).
//!
//! A scalar is declared once — a field of a [`counter_table!`] struct, or
//! one [`Metric`] row beside the state it reads — and every surface walks
//! the rows: the metrics JSON and bench records. None keeps a key list of
//! its own.

use crate::json::{count, Json};

/// A row's reading: counters and most gauges are integral, ratios are not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    U64(u64),
    F64(f64),
}

/// One exported scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The row's one name: its JSON key — for a [`counter_table!`] row, the
    /// field name.
    pub name: &'static str,
    pub value: Value,
}

impl Metric {
    /// An integral row (a counter or a count-valued gauge).
    pub fn int(name: &'static str, value: u64) -> Self {
        Metric { name, value: Value::U64(value) }
    }

    /// A fractional row.
    pub fn ratio(name: &'static str, value: f64) -> Self {
        Metric { name, value: Value::F64(value) }
    }
}

/// JSON object fields for a row list: one `name: value` per row.
pub fn rows_json(rows: &[Metric]) -> Vec<(String, Json)> {
    let field = |m: &Metric| {
        let key = m.name.to_string();
        match m.value {
            Value::U64(v) => (key, count(v)),
            Value::F64(v) => (key, Json::Num(v)),
        }
    };
    rows.iter().map(field).collect()
}

/// Declare a struct of cumulative `u64` counters once. From the one field
/// list the macro emits the struct, `delta_since` (field-wise
/// `self - earlier`) and `rows` (one row per field, named by the field) —
/// so an added field is subtracted and exported with no other edit.
/// A trailing `#[nested]` field is another counter table, folded in
/// through its own two methods.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[doc = $doc:literal])+ pub $field:ident: u64, )*
            $( #[nested] $(#[doc = $ndoc:literal])+ pub $nested:ident: $nty:ty, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[doc = $doc])+ pub $field: u64, )*
            $( $(#[doc = $ndoc])+ pub $nested: $nty, )*
        }

        impl $name {
            /// Field-wise difference `self - earlier`, for measurement windows.
            pub fn delta_since(&self, earlier: &Self) -> Self {
                Self {
                    $( $field: self.$field - earlier.$field, )*
                    $( $nested: self.$nested.delta_since(&earlier.$nested), )*
                }
            }

            /// One row per field, named by the field, in declaration
            /// order (nested tables last).
            pub fn rows(&self) -> Vec<$crate::Metric> {
                #[allow(unused_mut)]
                let mut rows =
                    vec![ $( $crate::Metric::int(stringify!($field), self.$field), )* ];
                $( rows.extend(self.$nested.rows()); )*
                rows
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_table! {
        /// Inner table.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Inner {
            /// Pages programmed.
            pub programs: u64,
        }
    }

    counter_table! {
        /// Outer table.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Outer {
            /// Host writes
            /// (pages).
            pub writes: u64,
            /// Reads.
            pub reads: u64,
            #[nested]
            /// Medium side.
            pub inner: Inner,
        }
    }

    #[test]
    fn table_subtracts_and_exports_every_field() {
        let a = Outer { writes: 10, reads: 7, inner: Inner { programs: 30 } };
        let b = Outer { writes: 4, reads: 7, inner: Inner { programs: 12 } };
        let d = a.delta_since(&b);
        assert_eq!(d, Outer { writes: 6, reads: 0, inner: Inner { programs: 18 } });
        assert_eq!(a.delta_since(&Outer::default()), a);

        let rows = a.rows();
        let names: Vec<_> = rows.iter().map(|m| m.name).collect();
        assert_eq!(names, ["writes", "reads", "programs"]);
        assert_eq!(rows[2].value, Value::U64(30));
        assert!(rows.iter().all(|m| matches!(m.value, Value::U64(_))));
    }

    #[test]
    fn rows_json_keys_each_row() {
        let rows = vec![
            Metric::int("x", 3),
            Metric::int("open", 2),
            Metric::ratio("ratio", 0.5),
        ];
        let doc = Json::Obj(rows_json(&rows));
        assert_eq!(doc.get("x").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("open").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("ratio").and_then(Json::as_f64), Some(0.5));
    }
}
