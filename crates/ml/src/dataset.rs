//! Dense row-major feature matrices and labeled training sets.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64` features.
///
/// Rows are observations (similarity feature vectors `w`), columns are
/// features `f_1..f_t`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

/// The fields of a [`FeatureMatrix`] as decoded, before the shape check.
#[derive(Deserialize)]
struct RawMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

/// Checked (not derived) so untrusted input — persisted repositories,
/// service request bodies — cannot smuggle in a matrix whose buffer
/// disagrees with its declared shape: every accessor slices on the
/// `data.len() == rows * cols` invariant the constructors enforce. Both
/// paths decode through `RawMatrix`; the streaming one reads `data`
/// straight into the flat buffer the matrix keeps.
impl Deserialize for FeatureMatrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Self::checked(RawMatrix::from_value(v)?)
    }

    fn read_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        Self::checked(RawMatrix::read_json(p)?)
    }
}

impl FeatureMatrix {
    fn checked(RawMatrix { data, rows, cols }: RawMatrix) -> Result<Self, serde::Error> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::Error::msg(format!(
                "feature matrix shape mismatch: {rows} rows x {cols} cols \
                 needs {} values, found {}",
                rows.checked_mul(cols).map_or("overflow".into(), |n| n.to_string()),
                data.len()
            )));
        }
        Ok(Self { data, rows, cols })
    }

    /// Create an empty matrix with `cols` columns.
    pub fn new(cols: usize) -> Self {
        Self { data: Vec::new(), rows: 0, cols }
    }

    /// Build from a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut m = Self::new(cols);
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Build from an already-flat row-major buffer without copying (the
    /// parallel featurizer fills rows in place and hands the buffer over).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer length mismatch");
        Self { data, rows, cols }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Value at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Copy out column `col`.
    pub fn column(&self, col: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// Iterate over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Select a subset of rows into a new matrix.
    pub fn select(&self, indices: &[usize]) -> Self {
        let mut m = Self::new(self.cols);
        for &i in indices {
            m.push_row(self.row(i));
        }
        m
    }
}

/// Labeled training data: feature rows plus binary match labels.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainingSet {
    /// Feature rows.
    pub x: FeatureMatrix,
    /// `true` = match, `false` = non-match.
    pub y: Vec<bool>,
}

/// The fields of a [`TrainingSet`] as decoded, before the length check.
#[derive(Deserialize)]
struct RawSet {
    x: FeatureMatrix,
    y: Vec<bool>,
}

/// Checked for the same reason as [`FeatureMatrix`]: a label vector that
/// disagrees with the row count must fail at decode time, not panic in a
/// training loop later.
impl Deserialize for TrainingSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Self::checked(RawSet::from_value(v)?)
    }

    fn read_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        Self::checked(RawSet::read_json(p)?)
    }
}

impl TrainingSet {
    fn checked(RawSet { x, y }: RawSet) -> Result<Self, serde::Error> {
        if x.rows() != y.len() {
            return Err(serde::Error::msg(format!(
                "training set shape mismatch: {} feature rows vs {} labels",
                x.rows(),
                y.len()
            )));
        }
        Ok(Self { x, y })
    }

    /// Create an empty set with `cols` features.
    pub fn new(cols: usize) -> Self {
        Self { x: FeatureMatrix::new(cols), y: Vec::new() }
    }

    /// Build from rows and labels.
    ///
    /// # Panics
    /// Panics if lengths disagree.
    pub fn from_rows(rows: &[Vec<f64>], labels: &[bool]) -> Self {
        assert_eq!(rows.len(), labels.len(), "rows/labels length mismatch");
        Self { x: FeatureMatrix::from_rows(rows), y: labels.to_vec() }
    }

    /// Append one labeled row.
    pub fn push(&mut self, row: &[f64], label: bool) {
        self.x.push_row(row);
        self.y.push(label);
    }

    /// Append all rows of another set (must have the same width).
    pub fn extend(&mut self, other: &TrainingSet) {
        for (row, &label) in other.x.iter_rows().zip(&other.y) {
            self.push(row, label);
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no observations are present.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.x.cols()
    }

    /// `(matches, non_matches)` counts.
    pub fn class_counts(&self) -> (usize, usize) {
        let pos = self.y.iter().filter(|&&l| l).count();
        (pos, self.y.len() - pos)
    }

    /// Fraction of positive (match) labels; 0 for empty sets.
    pub fn positive_rate(&self) -> f64 {
        if self.y.is_empty() {
            return 0.0;
        }
        self.y.iter().filter(|&&l| l).count() as f64 / self.y.len() as f64
    }

    /// Select a subset by row indices.
    pub fn select(&self, indices: &[usize]) -> Self {
        Self { x: self.x.select(indices), y: indices.iter().map(|&i| self.y[i]).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_round_trip() {
        let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    fn matrix_select_subsets_rows() {
        let m = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select(&[2, 0]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn inconsistent_row_length_panics() {
        let mut m = FeatureMatrix::new(2);
        m.push_row(&[1.0]);
    }

    #[test]
    fn training_set_counts() {
        let ts = TrainingSet::from_rows(
            &[vec![0.9], vec![0.1], vec![0.8]],
            &[true, false, true],
        );
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.class_counts(), (2, 1));
        assert!((ts.positive_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn training_set_extend_and_select() {
        let mut a = TrainingSet::from_rows(&[vec![1.0]], &[true]);
        let b = TrainingSet::from_rows(&[vec![2.0], vec![3.0]], &[false, true]);
        a.extend(&b);
        assert_eq!(a.len(), 3);
        let s = a.select(&[1]);
        assert_eq!(s.x.row(0), &[2.0]);
        assert_eq!(s.y, vec![false]);
    }

    #[test]
    fn deserialize_rejects_shape_mismatches() {
        let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        // the honest encoding round-trips
        assert_eq!(FeatureMatrix::from_value(&m.to_value()).unwrap(), m);
        // tampering with the declared shape fails at decode, not at access
        let tamper = |field: &str, val: serde::Value| {
            let serde::Value::Map(mut entries) = m.to_value() else { unreachable!() };
            for (k, v) in &mut entries {
                if k == field {
                    *v = val.clone();
                }
            }
            FeatureMatrix::from_value(&serde::Value::Map(entries))
        };
        assert!(tamper("rows", serde::Value::I64(3)).is_err());
        assert!(tamper("cols", serde::Value::I64(1)).is_err());
        assert!(tamper("rows", serde::Value::I64(i64::MAX)).is_err(), "mul overflow");

        let ts = TrainingSet::from_rows(&[vec![1.0], vec![2.0]], &[true, false]);
        assert_eq!(TrainingSet::from_value(&ts.to_value()).unwrap(), ts);
        let serde::Value::Map(mut entries) = ts.to_value() else { unreachable!() };
        for (k, v) in &mut entries {
            if k == "y" {
                *v = serde::Value::Seq(vec![serde::Value::Bool(true)]);
            }
        }
        assert!(TrainingSet::from_value(&serde::Value::Map(entries)).is_err());
    }

    #[test]
    fn iter_rows_matches_row_access() {
        let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows, vec![m.row(0), m.row(1)]);
    }
}
