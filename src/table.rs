//! One table type for every experiment.
//!
//! Each experiment of [`crate::experiments`] returns a [`Table`]: named
//! columns, rows of cells under unique names, named aggregate rows
//! (mean, geomean, total), the paper's reference values as one more
//! row, and free-text notes. [`Table::render`] is the one text renderer
//! `ndc-eval` prints every table with, and [`Table::to_json`] the one
//! writer behind every committed `results/<table>.json`. The writer
//! keys rows and columns by name and keeps every number at full
//! precision, so `ndc-eval gate` compares exactly the values the
//! renderer rounds, and names the row and column of a moved cell.

use ndc_types::Json;

/// One cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(u64),
    Num(f64),
    Text(String),
    Missing,
}

impl Cell {
    /// The cell as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Int(v) => Some(*v as f64),
            Cell::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::Int(v) => Json::UInt(*v),
            Cell::Num(v) => Json::Num(*v),
            Cell::Text(s) => Json::Str(s.clone()),
            Cell::Missing => Json::Null,
        }
    }

    fn text(&self, decimals: usize) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) => format!("{v:.decimals$}"),
            Cell::Text(s) => s.clone(),
            Cell::Missing => "-".into(),
        }
    }
}

macro_rules! int_cells {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell::Int(v as u64)
            }
        }
    )*};
}
int_cells!(u16, u32, u64, usize);

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Cell {
        v.map_or(Cell::Missing, Into::into)
    }
}

/// A named column. The renderer prints its numbers with `decimals`
/// places; a `host` column (host time) is printed but never written,
/// so a written table is the same on every host.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub decimals: usize,
    pub host: bool,
}

/// A named row of cells, one per column.
pub type Row = (String, Vec<Cell>);

/// One experiment's result: what `ndc-eval` prints and commits.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// File stem: the table lands in `results/<name>.json`.
    pub name: String,
    pub title: String,
    /// Header of the row-name column (e.g. `bench`).
    pub key: String,
    pub columns: Vec<Column>,
    pub rows: Vec<Row>,
    /// Named summary rows (mean, geomean, total).
    pub aggregates: Vec<Row>,
    /// The paper's reference values, where it reports any.
    pub paper: Option<Vec<Cell>>,
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(name: &str, title: impl Into<String>, key: &str) -> Table {
        Table {
            name: name.to_string(),
            title: title.into(),
            key: key.to_string(),
            columns: Vec::new(),
            rows: Vec::new(),
            aggregates: Vec::new(),
            paper: None,
            notes: Vec::new(),
        }
    }

    /// Append columns whose numbers print with `decimals` places.
    pub fn columns<S: AsRef<str>>(mut self, names: &[S], decimals: usize) -> Table {
        for n in names {
            self.columns.push(Column {
                name: n.as_ref().to_string(),
                decimals,
                host: false,
            });
        }
        self
    }

    /// Append a host-time column: printed, never written.
    pub fn host_column(mut self, name: &str, decimals: usize) -> Table {
        self.columns.push(Column {
            name: name.to_string(),
            decimals,
            host: true,
        });
        self
    }

    /// The paper's reference values, one per column.
    pub fn paper(mut self, cells: Vec<Cell>) -> Table {
        assert_eq!(cells.len(), self.columns.len(), "{}: paper row", self.name);
        self.paper = Some(cells);
        self
    }

    pub fn note(mut self, text: impl Into<String>) -> Table {
        self.notes.push(text.into());
        self
    }

    /// Append a data row. Row names are unique and every row has one
    /// cell per column.
    pub fn row(&mut self, name: impl Into<String>, cells: Vec<Cell>) {
        let name = name.into();
        assert_eq!(cells.len(), self.columns.len(), "{}: row {name}", self.name);
        assert!(
            self.rows.iter().all(|(n, _)| *n != name),
            "{}: duplicate row {name}",
            self.name
        );
        self.rows.push((name, cells));
    }

    /// Append a named aggregate row.
    pub fn aggregate(&mut self, name: &str, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "{}: {name}", self.name);
        self.aggregates.push((name.to_string(), cells));
    }

    /// Append an aggregate row of `f` over each column's `Num` cells,
    /// in row order (missing where a column has none).
    pub fn aggregate_by(&mut self, name: &str, f: fn(&[f64]) -> f64) {
        let cells = (0..self.columns.len())
            .map(|c| {
                let vals: Vec<f64> = self
                    .rows
                    .iter()
                    .filter_map(|(_, r)| match r[c] {
                        Cell::Num(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                (!vals.is_empty()).then(|| f(&vals)).into()
            })
            .collect();
        self.aggregate(name, cells);
    }

    /// Append a `total` row: the sum of each column's `Int` cells.
    pub fn total(&mut self) {
        let cells = (0..self.columns.len())
            .map(|c| {
                let ints = self.rows.iter().filter_map(|(_, r)| match r[c] {
                    Cell::Int(v) => Some(v),
                    _ => None,
                });
                ints.reduce(|a, b| a + b).into()
            })
            .collect();
        self.aggregate("total", cells);
    }

    /// Every row in print order: the data rows, the aggregates, then
    /// the `paper` row.
    fn all_rows(&self) -> impl Iterator<Item = (&str, &[Cell])> {
        let paper = self.paper.iter().map(|p| ("paper", p.as_slice()));
        self.rows
            .iter()
            .chain(&self.aggregates)
            .map(|(n, r)| (n.as_str(), r.as_slice()))
            .chain(paper)
    }

    /// The cell at (`row`, `column`), looked up by name among the rows,
    /// the aggregates and the `paper` row.
    pub fn cell(&self, row: &str, column: &str) -> Option<&Cell> {
        let c = self.columns.iter().position(|c| c.name == column)?;
        self.all_rows().find(|(n, _)| *n == row).map(|(_, r)| &r[c])
    }

    /// The table as text: a `== title ==` line, a header, the rows,
    /// the aggregates and the paper row, each column right-aligned and
    /// its numbers rounded to the column's places; then the notes.
    pub fn render(&self) -> String {
        let lines: Vec<(&str, Vec<String>)> = self
            .all_rows()
            .map(|(n, r)| {
                let cells = r.iter().zip(&self.columns);
                (n, cells.map(|(v, c)| v.text(c.decimals)).collect())
            })
            .collect();
        let key_w = lines
            .iter()
            .map(|(n, _)| n.len())
            .fold(self.key.len(), usize::max);
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                lines
                    .iter()
                    .map(|(_, r)| r[i].len())
                    .fold(c.name.len(), usize::max)
            })
            .collect();
        let header = (
            self.key.as_str(),
            self.columns.iter().map(|c| c.name.clone()).collect(),
        );
        let mut out = format!("== {} ==\n", self.title);
        for (name, cells) in std::iter::once(header).chain(lines) {
            out.push_str(&format!("{name:<key_w$}"));
            for (cell, w) in cells.iter().zip(&widths) {
                out.push_str(&format!(" {cell:>w$}"));
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("({note})\n"));
        }
        out
    }

    /// The table as the JSON document `ndc-eval` commits, one row per
    /// line. Host columns are left out; every number keeps its full
    /// precision and a missing cell is `null`. `scale` is the problem
    /// scale the table was measured at, if it has one.
    pub fn to_json(&self, scale: Option<&str>) -> String {
        let written: Vec<usize> = (0..self.columns.len())
            .filter(|&i| !self.columns[i].host)
            .collect();
        let obj = |cells: &[Cell]| {
            let fields = written
                .iter()
                .map(|&i| (self.columns[i].name.clone(), cells[i].json()));
            Json::Obj(fields.collect()).render()
        };
        let section = |rows: &[Row]| {
            let lines: Vec<String> = rows
                .iter()
                .map(|(n, r)| format!("\n{}:{}", Json::from(n.as_str()).render(), obj(r)))
                .collect();
            format!("{{{}}}", lines.join(","))
        };
        let columns: Vec<&str> = written
            .iter()
            .map(|&i| self.columns[i].name.as_str())
            .collect();
        let notes: Vec<&str> = self.notes.iter().map(String::as_str).collect();
        let fields = [
            ("table", Json::from(self.name.as_str()).render()),
            ("title", Json::from(self.title.as_str()).render()),
            ("scale", scale.map_or(Json::Null, Json::from).render()),
            ("columns", Json::from(columns).render()),
            ("rows", section(&self.rows)),
            ("aggregates", section(&self.aggregates)),
            ("paper", self.paper.as_deref().map_or("null".into(), obj)),
            ("notes", Json::from(notes).render()),
        ];
        let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}\n", fields.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", "Demo table", "bench")
            .columns(&["speedup"], 1)
            .columns(&["count"], 0)
            .paper(vec![Cell::Num(22.5), Cell::Missing])
            .note("a note");
        t.row("md", vec![Cell::Num(8.46), Cell::Int(3)]);
        t.row("smith.wa", vec![Cell::Missing, Cell::Int(12)]);
        t.aggregate_by("mean", ndc_types::mean);
        t
    }

    #[test]
    fn renderer_rounds_per_column_and_prints_missing_cells() {
        let text = sample().render();
        assert_eq!(
            text,
            "== Demo table ==\n\
             bench    speedup count\n\
             md           8.5     3\n\
             smith.wa       -    12\n\
             mean         8.5     -\n\
             paper       22.5     -\n\
             (a note)\n"
        );
    }

    #[test]
    fn writer_output_parses_and_keeps_full_precision() {
        let t = sample();
        let doc = Json::parse(&t.to_json(Some("Test"))).expect("the writer emits JSON");
        assert_eq!(doc.get("table").and_then(Json::as_str), Some("demo"));
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("Test"));
        let md = doc.get("rows").and_then(|r| r.get("md")).unwrap();
        assert_eq!(md.get("speedup").and_then(Json::as_f64), Some(8.46));
        assert_eq!(md.get("count").and_then(Json::as_u64), Some(3));
        let wa = doc.get("rows").and_then(|r| r.get("smith.wa")).unwrap();
        assert_eq!(wa.get("speedup"), Some(&Json::Null));
        let mean = doc.get("aggregates").and_then(|a| a.get("mean")).unwrap();
        assert_eq!(mean.get("speedup").and_then(Json::as_f64), Some(8.46));
        let paper = doc.get("paper").unwrap();
        assert_eq!(paper.get("speedup").and_then(Json::as_f64), Some(22.5));
        assert_eq!(t.cell("paper", "speedup"), Some(&Cell::Num(22.5)));
        assert_eq!(t.cell("smith.wa", "count"), Some(&Cell::Int(12)));
        let unscaled = Json::parse(&t.to_json(None)).unwrap();
        assert_eq!(unscaled.get("scale"), Some(&Json::Null));
    }

    #[test]
    fn host_columns_are_printed_but_not_written() {
        let mut t = Table::new("demo", "Demo", "mesh")
            .columns(&["cycles"], 0)
            .host_column("host ms", 1);
        t.row("8x8", vec![Cell::Int(7), Cell::Num(13.52)]);
        assert!(t.render().contains("13.5"));
        let text = t.to_json(Some("Test"));
        assert!(!text.contains("host"), "{text}");
        assert!(!text.contains("13.52"), "{text}");
    }

    #[test]
    fn totals_sum_integer_cells() {
        let mut t = Table::new("demo", "Demo", "bench")
            .columns(&["chains"], 0)
            .columns(&["drop%"], 1);
        t.row("md", vec![Cell::Int(3), Cell::Num(4.6)]);
        t.row("swim", vec![Cell::Int(6), Cell::Num(1.0)]);
        t.total();
        assert_eq!(t.cell("total", "chains"), Some(&Cell::Int(9)));
        assert_eq!(t.cell("total", "drop%"), Some(&Cell::Missing));
    }

    #[test]
    #[should_panic(expected = "duplicate row")]
    fn row_names_are_unique() {
        let mut t = Table::new("demo", "Demo", "bench").columns(&["x"], 1);
        t.row("md", vec![Cell::Num(1.0)]);
        t.row("md", vec![Cell::Num(2.0)]);
    }
}
