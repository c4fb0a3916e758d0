//! The 2-D surface container behind Figures 4 and 5, with CSV/TSV and
//! ASCII emission.

use std::fmt::Write as _;

/// A dense 2-D surface `z = f(x, y)` on a rectangular grid — the shape of
/// the paper's Figures 4 and 5 (`Ḡ_corr(α, β)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Surface {
    /// x-axis sample points (e.g. α values).
    pub xs: Vec<f64>,
    /// y-axis sample points (e.g. β values).
    pub ys: Vec<f64>,
    /// Row-major values: `z[iy * xs.len() + ix]`.
    pub z: Vec<f64>,
    /// Axis/value labels `(x, y, z)`.
    pub labels: (String, String, String),
}

impl Surface {
    /// Value at grid indices.
    fn at(&self, ix: usize, iy: usize) -> f64 {
        self.z[iy * self.xs.len() + ix]
    }

    /// Long-form CSV: `x,y,z` per row — the friendliest format for gnuplot
    /// or pandas to re-plot the figure.
    pub fn to_csv_long(&self) -> String {
        let mut out = format!("{},{},{}\n", self.labels.0, self.labels.1, self.labels.2);
        for (iy, &y) in self.ys.iter().enumerate() {
            for (ix, &x) in self.xs.iter().enumerate() {
                let _ = writeln!(out, "{x},{y},{}", self.at(ix, iy));
            }
        }
        out
    }

    /// Matrix-form TSV: first row is x values, first column y values.
    pub fn to_tsv_matrix(&self) -> String {
        let mut out = format!("{}\\{}", self.labels.1, self.labels.0);
        for &x in &self.xs {
            let _ = write!(out, "\t{x:.3}");
        }
        out.push('\n');
        for (iy, &y) in self.ys.iter().enumerate() {
            let _ = write!(out, "{y:.3}");
            for ix in 0..self.xs.len() {
                let _ = write!(out, "\t{:.4}", self.at(ix, iy));
            }
            out.push('\n');
        }
        out
    }

    /// Coarse ASCII contour: digits are `floor(z*10) % 10`, `+` where z ≥ 2.
    /// Good enough to eyeball the shape of Figures 4/5 in a terminal.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for (iy, &y) in self.ys.iter().enumerate().rev() {
            let _ = write!(out, "{y:>6.2} |");
            for ix in 0..self.xs.len() {
                let z = self.at(ix, iy);
                let ch = if z >= 2.0 {
                    '+'
                } else if !z.is_finite() {
                    '?'
                } else {
                    char::from_digit(((z * 10.0).floor() as u32) % 10, 10).unwrap_or('?')
                };
                out.push(ch);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "        {}={:.2}..{:.2}  (digit = tenths of {})",
            self.labels.0,
            self.xs.first().copied().unwrap_or(0.0),
            self.xs.last().copied().unwrap_or(0.0),
            self.labels.2
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `z = x + y` on `xs × ys`.
    fn sum_surface(xs: Vec<f64>, ys: Vec<f64>) -> Surface {
        let z = ys
            .iter()
            .flat_map(|y| xs.iter().map(move |x| x + y))
            .collect();
        Surface {
            xs,
            ys,
            z,
            labels: ("a".into(), "b".into(), "g".into()),
        }
    }

    #[test]
    fn csv_long_has_all_rows() {
        let csv = sum_surface(vec![0.0, 1.0], vec![0.0, 2.0]).to_csv_long();
        assert_eq!(csv, "a,b,g\n0,0,0\n1,0,1\n0,2,2\n1,2,3\n");
    }

    #[test]
    fn tsv_matrix_is_row_per_y() {
        let tsv = sum_surface(vec![0.0, 1.0], vec![0.5]).to_tsv_matrix();
        assert_eq!(tsv, "b\\a\t0.000\t1.000\n0.500\t0.5000\t1.5000\n");
    }

    #[test]
    fn ascii_render_runs() {
        let s = sum_surface(vec![0.5, 0.75, 1.0], vec![0.0, 0.5, 1.5]);
        let art = s.render_ascii();
        assert_eq!(art.lines().count(), 4);
        // top row is the largest y; z ≥ 2 renders as '+'
        assert!(art.starts_with("  1.50 |++"), "{art}");
    }
}
