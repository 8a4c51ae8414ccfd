//! The experiment reporting layer: one stream of `experiment` / `note` /
//! `table` / `row` calls, rendered either as the classic human-readable
//! tables or as machine-readable JSON Lines (one record per row).

use crate::json::Json;

/// Print `text` to stdout as is. When the reader has gone away (a closed
/// pipe, as in `experiments | head -3`), end the program quietly with exit
/// status `closed` instead of the panic `print!` raises; any other write
/// error is reported on stderr and exits with status 1.
pub fn write_stdout(text: &str, closed: i32) {
    use std::io::{ErrorKind, Write};
    let Err(e) = std::io::stdout().lock().write_all(text.as_bytes()) else {
        return;
    };
    if e.kind() == ErrorKind::BrokenPipe {
        std::process::exit(closed);
    }
    eprintln!("cannot write to stdout: {e}");
    std::process::exit(1);
}

/// A table column: header text plus the column's print width.
#[derive(Debug, Clone)]
pub struct Col {
    /// Header text (also the JSON key for the column's values).
    pub name: &'static str,
    /// Minimum printed width; values are right-aligned into it.
    pub width: usize,
}

/// Shorthand [`Col`] constructor.
pub fn col(name: &'static str, width: usize) -> Col {
    Col { name, width }
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free-form text.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float printed (and serialized) with the given precision.
    Float(f64, usize),
    /// A boolean, printed as `true` / `false`.
    Bool(bool),
}

impl Cell {
    /// A text cell.
    pub fn str(s: impl Into<String>) -> Cell {
        Cell::Str(s.into())
    }

    /// An integer cell (callers cast; experiment counters fit `i64`).
    pub fn int(n: i64) -> Cell {
        Cell::Int(n)
    }

    /// A float cell with `prec` printed decimals.
    pub fn float(v: f64, prec: usize) -> Cell {
        Cell::Float(v, prec)
    }

    /// A boolean cell.
    pub fn bool(b: bool) -> Cell {
        Cell::Bool(b)
    }

    /// The human-readable text of the cell (unpadded).
    pub fn human(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::Float(v, prec) => format!("{v:.prec$}"),
            Cell::Bool(b) => b.to_string(),
        }
    }

    /// The JSON value of the cell. Floats are rounded to their printed
    /// precision so both outputs state the same number.
    pub fn json(&self) -> Json {
        match self {
            Cell::Str(s) => Json::Str(s.clone()),
            Cell::Int(n) => Json::Int(*n),
            Cell::Float(v, prec) => {
                let scale = 10f64.powi(*prec as i32);
                Json::Float((v * scale).round() / scale)
            }
            Cell::Bool(b) => Json::Bool(*b),
        }
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::from(n as u64)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Bool(b)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::str(s)
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

/// Receives the experiment stream. Implementations render it; experiment
/// code never formats output itself.
pub trait Reporter {
    /// A new experiment begins.
    fn experiment(&mut self, id: &str, claim: &str);
    /// A free-form context line within the current experiment.
    fn note(&mut self, text: &str);
    /// A new table begins; subsequent [`Reporter::row`] calls belong to
    /// it. `label` distinguishes multiple tables in one experiment.
    fn table(&mut self, label: Option<&str>, indent: usize, cols: &[Col]);
    /// One data row of the current table (same arity as its columns).
    fn row(&mut self, cells: &[Cell]);
}

/// Renders the stream as the classic aligned text tables.
#[derive(Debug, Default)]
pub struct HumanReporter {
    buf: Option<String>,
    cols: Vec<Col>,
    indent: usize,
}

impl HumanReporter {
    /// Print each line to stdout as it arrives; a closed stdout ends the
    /// program quietly with status 0 ([`write_stdout`]).
    pub fn stdout() -> Self {
        HumanReporter {
            buf: None,
            ..Default::default()
        }
    }

    /// Collect output in memory (for tests).
    pub fn buffered() -> Self {
        HumanReporter {
            buf: Some(String::new()),
            ..Default::default()
        }
    }

    /// The buffered output (empty in stdout mode).
    pub fn output(&self) -> &str {
        self.buf.as_deref().unwrap_or("")
    }

    fn line(&mut self, text: &str) {
        match &mut self.buf {
            Some(buf) => {
                buf.push_str(text);
                buf.push('\n');
            }
            None => write_stdout(&format!("{text}\n"), 0),
        }
    }

    fn aligned(&self, parts: impl Iterator<Item = String>) -> String {
        let mut out = " ".repeat(self.indent);
        for (i, (part, col)) in parts.zip(&self.cols).enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{part:>width$}", width = col.width));
        }
        out
    }
}

impl Reporter for HumanReporter {
    fn experiment(&mut self, id: &str, claim: &str) {
        self.line(&format!("\n== {id} — {claim} =="));
    }

    fn note(&mut self, text: &str) {
        self.line(text);
    }

    fn table(&mut self, _label: Option<&str>, indent: usize, cols: &[Col]) {
        self.cols = cols.to_vec();
        self.indent = indent;
        let header = self.aligned(cols.iter().map(|c| c.name.to_owned()));
        self.line(&header);
    }

    fn row(&mut self, cells: &[Cell]) {
        debug_assert_eq!(cells.len(), self.cols.len(), "row arity mismatch");
        let line = self.aligned(cells.iter().map(Cell::human));
        self.line(&line);
    }
}

/// Renders the stream as JSON Lines. Record shapes:
///
/// * `{"type":"experiment","id":…,"claim":…}`
/// * `{"type":"note","experiment":…,"text":…}`
/// * `{"type":"row","experiment":…,"table":…|null,"values":{col:…}}`
#[derive(Debug, Default)]
pub struct JsonlReporter {
    buf: Option<String>,
    experiment: String,
    table: Option<String>,
    cols: Vec<&'static str>,
}

impl JsonlReporter {
    /// Print each record to stdout as it arrives; a closed stdout ends the
    /// program quietly with status 0 ([`write_stdout`]).
    pub fn stdout() -> Self {
        JsonlReporter {
            buf: None,
            ..Default::default()
        }
    }

    /// Collect records in memory (for tests).
    pub fn buffered() -> Self {
        JsonlReporter {
            buf: Some(String::new()),
            ..Default::default()
        }
    }

    /// The buffered JSONL text (empty in stdout mode).
    pub fn output(&self) -> &str {
        self.buf.as_deref().unwrap_or("")
    }

    fn record(&mut self, value: Json) {
        let text = value.render();
        match &mut self.buf {
            Some(buf) => {
                buf.push_str(&text);
                buf.push('\n');
            }
            None => write_stdout(&format!("{text}\n"), 0),
        }
    }
}

impl Reporter for JsonlReporter {
    fn experiment(&mut self, id: &str, claim: &str) {
        self.experiment = id.to_owned();
        self.table = None;
        self.cols.clear();
        self.record(Json::obj([
            ("type", Json::str("experiment")),
            ("id", Json::str(id)),
            ("claim", Json::str(claim)),
        ]));
    }

    fn note(&mut self, text: &str) {
        self.record(Json::obj([
            ("type", Json::str("note")),
            ("experiment", Json::str(self.experiment.clone())),
            ("text", Json::str(text)),
        ]));
    }

    fn table(&mut self, label: Option<&str>, _indent: usize, cols: &[Col]) {
        self.table = label.map(str::to_owned);
        self.cols = cols.iter().map(|c| c.name).collect();
    }

    fn row(&mut self, cells: &[Cell]) {
        debug_assert_eq!(cells.len(), self.cols.len(), "row arity mismatch");
        let values: Vec<(String, Json)> = self
            .cols
            .iter()
            .zip(cells)
            .map(|(&name, cell)| (name.to_owned(), cell.json()))
            .collect();
        self.record(Json::obj([
            ("type", Json::str("row")),
            ("experiment", Json::str(self.experiment.clone())),
            (
                "table",
                match &self.table {
                    Some(l) => Json::str(l.clone()),
                    None => Json::Null,
                },
            ),
            ("values", Json::Obj(values)),
        ]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(r: &mut impl Reporter) {
        r.experiment("E0", "a demo claim");
        r.note("context line");
        r.table(None, 0, &[col("n", 6), col("agree", 7)]);
        r.row(&[Cell::int(20), Cell::bool(true)]);
        r.table(Some("second"), 2, &[col("k", 4), col("share", 8)]);
        r.row(&[Cell::int(1), Cell::float(0.525, 2)]);
    }

    #[test]
    fn human_renders_aligned_tables() {
        let mut r = HumanReporter::buffered();
        feed(&mut r);
        let out = r.output();
        assert!(out.contains("\n== E0 — a demo claim =="), "{out}");
        assert!(out.contains("     n   agree"), "{out}");
        assert!(out.contains("    20    true"), "{out}");
        // The second table is indented by two spaces.
        assert!(out.contains("\n     k    share"), "{out}");
        assert!(out.contains("\n     1     0.53"), "{out}");
    }

    #[test]
    fn jsonl_emits_one_record_per_row() {
        let mut r = JsonlReporter::buffered();
        feed(&mut r);
        let lines: Vec<&str> = r.output().lines().collect();
        assert_eq!(lines.len(), 4); // experiment + note + 2 rows
        let rows: Vec<Json> = lines
            .iter()
            .map(|l| Json::parse(l).expect("valid JSONL"))
            .filter(|j| j.get("type").and_then(Json::as_str) == Some("row"))
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("table"), Some(&Json::Null));
        assert_eq!(
            rows[0]
                .get("values")
                .and_then(|v| v.get("n"))
                .and_then(Json::as_i64),
            Some(20)
        );
        assert_eq!(rows[1].get("table").and_then(Json::as_str), Some("second"));
        // Floats are rounded to their printed precision.
        assert_eq!(
            rows[1].get("values").and_then(|v| v.get("share")),
            Some(&Json::Float(0.53))
        );
    }

    #[test]
    fn cell_conversions() {
        assert_eq!(Cell::from(7usize), Cell::Int(7));
        assert_eq!(Cell::from("x").human(), "x");
        assert_eq!(Cell::float(1.005, 1).human(), "1.0");
        assert_eq!(Cell::bool(false).json(), Json::Bool(false));
    }
}
