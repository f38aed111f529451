//! CRN featurization: queries as sets of vectors in one shared format (paper §3.2.1, Table 1).
//!
//! Every element of the sets `T` (tables), `J` (joins) and `P` (predicates) is encoded as a
//! vector of the same dimension `L = #T + 3·#C + #O + 1`, segmented as:
//!
//! | segment | width | used by | content |
//! |---------|-------|---------|---------|
//! | `T-seg` | `#T`  | tables  | one-hot table id |
//! | `J1-seg`| `#C`  | joins   | one-hot id of the first join column |
//! | `J2-seg`| `#C`  | joins   | one-hot id of the second join column |
//! | `C-seg` | `#C`  | predicates | one-hot id of the predicate column |
//! | `O-seg` | `#O`  | predicates | one-hot id of the operator |
//! | `V-seg` | `1`   | predicates | literal normalized to `[0,1]` by the column's min/max |
//!
//! The shared format is a deliberate design choice of the paper: "the queries tables, joins
//! and column predicates are inseparable, hence treating each set individually using different
//! neural networks may disorientate the model" — the `ablation_shared_format` experiment
//! quantifies it against MSCN-style separate formats.

use crn_db::database::Database;
use crn_db::schema::ColumnRef;
use crn_db::value::CompareOp;
use crn_nn::{Matrix, SparseRows};
use crn_query::ast::Query;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The CRN featurizer: stable table/column numbering plus column value ranges, captured from
/// the database snapshot at construction time (so the featurizer stays valid without keeping
/// the database borrowed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrnFeaturizer {
    num_tables: usize,
    num_columns: usize,
    num_operators: usize,
    table_index: HashMap<String, usize>,
    /// Keyed by `"table.column"` (string keys keep the featurizer JSON-serializable).
    column_index: HashMap<String, usize>,
    column_ranges: HashMap<String, (i64, i64)>,
}

impl CrnFeaturizer {
    /// Builds the featurizer from a database snapshot.
    pub fn new(db: &Database) -> Self {
        let schema = db.schema();
        let mut table_index = HashMap::new();
        let mut column_index = HashMap::new();
        let mut column_ranges = HashMap::new();
        for (t_idx, table) in schema.tables().iter().enumerate() {
            table_index.insert(table.name.clone(), t_idx);
            for column in &table.columns {
                let column_ref = ColumnRef::new(&table.name, &column.name);
                let global = schema
                    .global_column_index(&column_ref)
                    .expect("declared column");
                column_index.insert(column_key(&column_ref), global);
                if let Some(range) = db.column_min_max(&column_ref) {
                    column_ranges.insert(column_key(&column_ref), range);
                }
            }
        }
        CrnFeaturizer {
            num_tables: schema.num_tables(),
            num_columns: schema.num_columns(),
            num_operators: CompareOp::ALL.len(),
            table_index,
            column_index,
            column_ranges,
        }
    }

    /// Number of tables `#T`.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Number of columns `#C`.
    pub fn num_columns(&self) -> usize {
        self.num_columns
    }

    /// Number of predicate operators `#O`.
    pub fn num_operators(&self) -> usize {
        self.num_operators
    }

    /// The shared vector dimension `L = #T + 3·#C + #O + 1`.
    pub fn vector_dim(&self) -> usize {
        self.num_tables + 3 * self.num_columns + self.num_operators + 1
    }

    /// Offset of the `J1-seg` segment.
    fn j1_offset(&self) -> usize {
        self.num_tables
    }

    /// Offset of the `J2-seg` segment.
    fn j2_offset(&self) -> usize {
        self.num_tables + self.num_columns
    }

    /// Offset of the `C-seg` segment.
    fn c_offset(&self) -> usize {
        self.num_tables + 2 * self.num_columns
    }

    /// Offset of the `O-seg` segment.
    fn o_offset(&self) -> usize {
        self.num_tables + 3 * self.num_columns
    }

    /// Offset of the `V-seg` segment (a single slot).
    fn v_offset(&self) -> usize {
        self.num_tables + 3 * self.num_columns + self.num_operators
    }

    /// Featurizes a query into its set of vectors `V` (one row per element of `T ∪ J ∪ P`).
    ///
    /// A query always has at least one table, so the resulting matrix has at least one row.
    pub fn featurize(&self, query: &Query) -> Matrix {
        let dim = self.vector_dim();
        let mut data = Vec::with_capacity(Self::num_rows(query) * dim);
        self.for_each_row(query, |entries| {
            let start = data.len();
            data.resize(start + dim, 0.0f32);
            for &(column, value) in entries {
                data[start + column] = value;
            }
        });
        Matrix::from_vec(data.len() / dim, dim, data)
    }

    /// [`CrnFeaturizer::featurize`] as CSR rows — the same non-zeros in the same order, with
    /// no dense row in between.  Training featurizes every pair of a corpus with this.
    pub fn featurize_sparse(&self, query: &Query) -> SparseRows {
        let rows = Self::num_rows(query);
        let mut sparse = SparseRows::with_capacity(rows, 3 * rows);
        self.for_each_row(query, |entries| sparse.push_row(entries));
        sparse
    }

    /// Featurizes both queries of a pair.
    pub fn featurize_pair(&self, q1: &Query, q2: &Query) -> (Matrix, Matrix) {
        (self.featurize(q1), self.featurize(q2))
    }

    fn num_rows(query: &Query) -> usize {
        query.tables().len() + query.joins().len() + query.predicates().len()
    }

    /// The row format of the module docs, once: calls `emit` with the `(column, value)`
    /// entries of each row — tables, then joins, then predicates — in ascending column
    /// order.  Every other column of the row is zero.
    fn for_each_row(&self, query: &Query, mut emit: impl FnMut(&[(usize, f32)])) {
        // One key buffer and one entry buffer for all rows of the query.
        let mut key = String::new();
        let mut entries: Vec<(usize, f32)> = Vec::with_capacity(3);
        for table in query.tables() {
            entries.clear();
            entries.extend(self.table_index.get(table).map(|&idx| (idx, 1.0)));
            emit(&entries);
        }
        for join in query.joins() {
            entries.clear();
            for (column, offset) in [
                (&join.left, self.j1_offset()),
                (&join.right, self.j2_offset()),
            ] {
                write_column_key(&mut key, column);
                entries.extend(self.column_index.get(&key).map(|idx| (offset + idx, 1.0)));
            }
            emit(&entries);
        }
        for predicate in query.predicates() {
            entries.clear();
            write_column_key(&mut key, &predicate.column);
            entries.extend(
                self.column_index
                    .get(&key)
                    .map(|idx| (self.c_offset() + idx, 1.0)),
            );
            entries.push((self.o_offset() + predicate.op.index(), 1.0));
            entries.push((self.v_offset(), self.normalize_keyed(&key, predicate.value)));
            emit(&entries);
        }
    }

    /// Normalizes a literal into `[0, 1]` using the column's min/max values in the database.
    pub fn normalize_literal(&self, column: &ColumnRef, value: i64) -> f32 {
        self.normalize_keyed(&column_key(column), value)
    }

    /// [`CrnFeaturizer::normalize_literal`] for the column with the given [`column_key`].
    fn normalize_keyed(&self, key: &str, value: i64) -> f32 {
        match self.column_ranges.get(key) {
            Some(&(lo, hi)) if hi > lo => {
                (((value - lo) as f64 / (hi - lo) as f64).clamp(0.0, 1.0)) as f32
            }
            _ => 0.5,
        }
    }
}

/// The string key `"table.column"` used for the featurizer's internal maps.
fn column_key(column: &ColumnRef) -> String {
    let mut key = String::new();
    write_column_key(&mut key, column);
    key
}

/// Overwrites `key` with [`column_key`]`(column)`, reusing its allocation.
fn write_column_key(key: &mut String, column: &ColumnRef) {
    key.clear();
    key.push_str(&column.table);
    key.push('.');
    key.push_str(&column.column);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_db::imdb::{generate_imdb, tables, ImdbConfig};
    use crn_query::ast::{JoinClause, Predicate};

    fn db() -> Database {
        generate_imdb(&ImdbConfig::tiny(8))
    }

    fn example_query() -> Query {
        Query::new(
            [tables::TITLE.to_string(), tables::CAST_INFO.to_string()],
            [JoinClause::new(
                ColumnRef::new(tables::TITLE, "id"),
                ColumnRef::new(tables::CAST_INFO, "movie_id"),
            )],
            [
                Predicate::new(ColumnRef::new(tables::TITLE, "kind_id"), CompareOp::Eq, 2),
                Predicate::new(
                    ColumnRef::new(tables::CAST_INFO, "role_id"),
                    CompareOp::Lt,
                    5,
                ),
            ],
        )
    }

    #[test]
    fn vector_dimension_matches_formula() {
        let db = db();
        let feat = CrnFeaturizer::new(&db);
        let expected =
            db.schema().num_tables() + 3 * db.schema().num_columns() + CompareOp::ALL.len() + 1;
        assert_eq!(feat.vector_dim(), expected);
        assert_eq!(feat.num_tables(), 6);
        assert_eq!(feat.num_columns(), db.schema().num_columns());
        assert_eq!(feat.num_operators(), 6);
    }

    #[test]
    fn featurization_has_one_row_per_set_element() {
        let db = db();
        let feat = CrnFeaturizer::new(&db);
        let q = example_query();
        let v = feat.featurize(&q);
        assert_eq!(v.rows(), 2 + 1 + 2);
        assert_eq!(v.cols(), feat.vector_dim());
    }

    #[test]
    fn table_vectors_only_use_the_table_segment() {
        let db = db();
        let feat = CrnFeaturizer::new(&db);
        let v = feat.featurize(&Query::scan(tables::TITLE));
        assert_eq!(v.rows(), 1);
        let row = v.row(0);
        // Exactly one bit set, inside T-seg.
        let non_zero: Vec<usize> = row
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0.0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(non_zero.len(), 1);
        assert!(non_zero[0] < feat.num_tables());
    }

    #[test]
    fn join_vectors_use_both_join_segments() {
        let db = db();
        let feat = CrnFeaturizer::new(&db);
        let q = example_query();
        let v = feat.featurize(&q);
        // Row layout: tables first (2), then joins (1), then predicates (2).
        let join_row = v.row(2);
        let non_zero: Vec<usize> = join_row
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0.0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(non_zero.len(), 2, "both join columns one-hot encoded");
        assert!(non_zero[0] >= feat.num_tables());
        assert!(non_zero[1] < feat.num_tables() + 2 * feat.num_columns());
    }

    #[test]
    fn predicate_vectors_use_column_operator_and_value_segments() {
        let db = db();
        let feat = CrnFeaturizer::new(&db);
        let q = example_query();
        let v = feat.featurize(&q);
        let pred_row = v.row(3);
        let c_offset = feat.num_tables() + 2 * feat.num_columns();
        let o_offset = feat.num_tables() + 3 * feat.num_columns();
        let v_offset = o_offset + feat.num_operators();
        let column_bits = pred_row[c_offset..o_offset]
            .iter()
            .filter(|&&x| x != 0.0)
            .count();
        let op_bits = pred_row[o_offset..v_offset]
            .iter()
            .filter(|&&x| x != 0.0)
            .count();
        assert_eq!(column_bits, 1);
        assert_eq!(op_bits, 1);
        assert!((0.0..=1.0).contains(&pred_row[v_offset]));
        // Nothing outside those segments is set for predicate rows.
        assert!(pred_row[..c_offset].iter().all(|&x| x == 0.0));
    }

    /// The CSR rows are the dense rows' non-zeros in column order — including a literal that
    /// normalizes to 0.0 (dropped from both) and names the schema does not know.
    #[test]
    fn sparse_featurization_is_the_dense_one_scanned() {
        let db = db();
        let feat = CrnFeaturizer::new(&db);
        let year = ColumnRef::new(tables::TITLE, "production_year");
        let (lowest, _) = db.column_min_max(&year).unwrap();
        let mut queries = vec![example_query(), Query::scan(tables::TITLE)];
        queries.push(Query::new(
            [tables::TITLE.to_string(), "no_such_table".to_string()],
            [JoinClause::new(
                ColumnRef::new(tables::TITLE, "id"),
                ColumnRef::new("no_such_table", "id"),
            )],
            [
                Predicate::new(year, CompareOp::Gt, lowest),
                Predicate::new(ColumnRef::new("no_such_table", "x"), CompareOp::Eq, 1),
            ],
        ));
        for query in &queries {
            let dense = feat.featurize(query);
            let sparse = feat.featurize_sparse(query);
            assert_eq!(sparse, SparseRows::from_matrix(&dense));
            assert_eq!(sparse.num_rows(), dense.rows());
        }
        let zero_literal = feat.featurize_sparse(&queries[2]);
        assert_eq!(
            zero_literal.row(3).count(),
            2,
            "column and operator, no literal"
        );
    }

    #[test]
    fn identical_queries_have_identical_featurizations() {
        let db = db();
        let feat = CrnFeaturizer::new(&db);
        let q = example_query();
        let (a, b) = feat.featurize_pair(&q, &q.clone());
        assert_eq!(a, b);
    }

    #[test]
    fn literal_normalization_is_clamped() {
        let db = db();
        let feat = CrnFeaturizer::new(&db);
        let column = ColumnRef::new(tables::TITLE, "production_year");
        let (lo, hi) = db.column_min_max(&column).unwrap();
        assert_eq!(feat.normalize_literal(&column, lo - 100), 0.0);
        assert_eq!(feat.normalize_literal(&column, hi + 100), 1.0);
        assert_eq!(
            feat.normalize_literal(&ColumnRef::new("none", "none"), 0),
            0.5
        );
    }
}
