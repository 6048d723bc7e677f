//! One report model: every paper figure and every gate is a
//! [`Section`], built once from its results and then rendered twice —
//! as a text table ([`Section::text`]) and as its part of the JSON
//! report ([`Section::json`]).
//!
//! A section is a table over result items, described by its columns:
//! each [`Col`] names the JSON key of its cell, its text header and
//! format, what it reads from an item, and how the text shows the
//! cell. A row is the JSON object of its cells, which keep their types
//! (`u64`, `f64`, `null`, strings, booleans, nested detail), so the JSON
//! rendering is the rows themselves. A column without a format is
//! JSON-only; a cell whose key starts with `_` is text-only.
//!
//! A format is written like the `format!` spec it stands for: `" >9"`
//! is a one-space separator, then the shown cell right-aligned in 9
//! columns. A header longer than its column is printed as it is.

use pmobs::Json;
use std::fmt::Write as _;

/// How a text column shows its cell (`Json::Null` when the row lacks
/// it; the whole row for a [`ROW`] column).
pub type Show = fn(&Json) -> String;

/// Lines printed around one row in the text rendering.
pub type Lines = fn(&Json) -> Vec<String>;

/// The key of a text column that shows the whole row, for a cell that
/// combines fields.
pub const ROW: &str = "";

/// One column of a table over items of type `T`: JSON key, text head,
/// text format (empty: JSON only), the cell read from an item, and how
/// the text shows it.
pub struct Col<T>(
    pub &'static str,
    pub &'static str,
    pub &'static str,
    pub fn(&T) -> Json,
    pub Show,
);

impl<T> Col<T> {
    /// A JSON-only column.
    pub const fn json(key: &'static str, get: fn(&T) -> Json) -> Col<T> {
        Col(key, "", "", get, plain)
    }

    /// A text column computed from the row's other cells.
    pub const fn text(head: &'static str, fmt: &'static str, show: Show) -> Col<T> {
        Col(ROW, head, fmt, |_| Json::Null, show)
    }
}

/// One text column of a section: key, head, format and show.
type TextCol = (&'static str, &'static str, &'static str, Show);

/// The JSON rows of `items` under `cols`.
pub fn rows<'a, T: 'a>(items: impl IntoIterator<Item = &'a T>, cols: &[Col<T>]) -> Vec<Json> {
    let cells = |item: &T| {
        let data = cols.iter().filter(|c| c.0 != ROW);
        data.fold(Json::obj(), |row, c| row.field(c.0, (c.3)(item)))
    };
    items.into_iter().map(cells).collect()
}

/// One figure or gate section (see the module docs).
#[derive(Default)]
pub struct Section {
    /// The JSON key this section fills; `a.b` nests under `a`.
    pub id: &'static str,
    title: String,
    cols: Vec<TextCol>,
    /// A header line that is not the column heads.
    header: Option<String>,
    rows: Vec<Json>,
    /// Text rows are the leaves of these nested arrays, each merged
    /// with its ancestors' cells; empty: one text row per row.
    expand: &'static [&'static str],
    /// Lines opening each row's block; the header then repeats per row.
    before: Option<Lines>,
    /// Lines after each row's text rows.
    after: Option<Lines>,
    footer: Vec<String>,
    /// The JSON object's fields around the rows.
    fields: Vec<(&'static str, Json)>,
    /// Where the rows sit among the fields, and their key; `None`
    /// renders the JSON as the bare rows array.
    rows_at: Option<(usize, &'static str)>,
}

impl Section {
    /// An empty section.
    pub fn new(id: &'static str, title: impl Into<String>) -> Section {
        let title = title.into();
        Section {
            id,
            title,
            ..Section::default()
        }
    }

    /// Add the text columns of `cols` (for the levels of an
    /// [`expand`](Section::expand)ed section).
    pub fn cols<T>(mut self, cols: &[Col<T>]) -> Section {
        let text = cols.iter().filter(|c| !c.2.is_empty());
        self.cols.extend(text.map(|c| (c.0, c.1, c.2, c.4)));
        self
    }

    /// One row per item, its cells and text columns given by `cols`.
    pub fn table<'a, T: 'a>(
        self,
        items: impl IntoIterator<Item = &'a T>,
        cols: &[Col<T>],
    ) -> Section {
        let mut section = self.cols(cols);
        section.rows = rows(items, cols);
        section
    }

    /// Print `line` as the header instead of the column heads.
    pub fn header(mut self, line: impl Into<String>) -> Section {
        self.header = Some(line.into());
        self
    }

    /// Render text rows from the leaves of the nested arrays at `path`.
    pub fn expand(mut self, path: &'static [&'static str]) -> Section {
        self.expand = path;
        self
    }

    /// Open every row with `lines` and its own header.
    pub fn before(mut self, lines: Lines) -> Section {
        self.before = Some(lines);
        self
    }

    /// Follow every row with `lines`.
    pub fn after(mut self, lines: Lines) -> Section {
        self.after = Some(lines);
        self
    }

    /// Append a text line after the rows.
    pub fn footer(mut self, line: impl Into<String>) -> Section {
        self.footer.push(line.into());
        self
    }

    /// A field of the JSON object, after those added before it.
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Section {
        self.fields.push((key, value.into()));
        self
    }

    /// Put the rows under `key` in a JSON object, after the fields
    /// added so far.
    pub fn rows_in(mut self, key: &'static str) -> Section {
        self.rows_at = Some((self.fields.len(), key));
        self
    }

    /// One line of the text columns, each cell given by `cell`.
    fn cells(&self, cell: impl Fn(&TextCol) -> String) -> String {
        let mut line = String::new();
        for c @ (_, _, fmt, _) in &self.cols {
            let (sep, spec) = fmt.split_at(fmt.find(['<', '>']).expect("alignment"));
            let width: usize = spec[1..].parse().expect("width");
            let text = cell(c);
            line += sep;
            let _ = match spec.as_bytes()[0] {
                b'<' => write!(line, "{text:<width$}"),
                _ => write!(line, "{text:>width$}"),
            };
        }
        line
    }

    /// `row` as a line of the text table.
    pub fn line(&self, row: &Json) -> String {
        self.cells(|&(key, _, _, show)| match key {
            ROW => show(row),
            key => show(cell(row, key)),
        })
    }

    /// The text rendering: title, header, rows, footer.
    pub fn text(&self) -> String {
        let header = match &self.header {
            Some(line) => line.clone(),
            None => self.cells(|(_, head, _, _)| head.to_string()),
        } + "\n";
        let mut out = format!("{}\n", self.title);
        if self.before.is_none() {
            out += &header;
        }
        for row in &self.rows {
            if let Some(before) = self.before {
                for l in before(row) {
                    out = out + &l + "\n";
                }
                out += &header;
            }
            self.leaves(row, self.expand, &mut out);
            for l in self.after.map_or_else(Vec::new, |after| after(row)) {
                out = out + &l + "\n";
            }
        }
        for l in &self.footer {
            out = out + l + "\n";
        }
        out
    }

    /// The text rows of `row` below `path`, appended to `out`.
    fn leaves(&self, row: &Json, path: &[&str], out: &mut String) {
        let Some((key, rest)) = path.split_first() else {
            *out += &self.line(row);
            *out += "\n";
            return;
        };
        for child in row.get(key).and_then(Json::as_arr).unwrap_or_default() {
            let Json::Obj(fields) = child else { continue };
            let merged = fields
                .iter()
                .fold(row.clone(), |m, (k, v)| m.field(k, v.clone()));
            self.leaves(&merged, rest, out);
        }
    }

    /// The JSON rendering: the rows without their text-only cells, bare
    /// or among the fields.
    pub fn json(&self) -> Json {
        let public = |row: &Json| match row {
            Json::Obj(cells) => Json::Obj(
                cells
                    .iter()
                    .filter(|(k, _)| !k.starts_with('_'))
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        };
        let rows: Vec<Json> = self.rows.iter().map(public).collect();
        let Some((at, key)) = self.rows_at else {
            return rows.into();
        };
        let mut fields = self.fields.iter().cloned();
        let lead = fields.by_ref().take(at);
        let doc = lead.fold(Json::obj(), |doc, (k, v)| doc.field(k, v));
        fields.fold(doc.field(key, rows), |doc, (k, v)| doc.field(k, v))
    }
}

/// A scalar as text: strings as they are, numbers in full, `null` as
/// nothing.
pub fn plain(c: &Json) -> String {
    match c {
        Json::Bool(b) => b.to_string(),
        Json::U64(n) => n.to_string(),
        Json::I64(n) => n.to_string(),
        Json::F64(x) => x.to_string(),
        Json::Str(s) => s.to_string(),
        Json::Null | Json::Arr(_) | Json::Obj(_) | Json::Raw(_) => String::new(),
    }
}

/// A number with `P` decimals; `null` as nothing.
pub fn fixed<const P: usize>(c: &Json) -> String {
    c.as_f64().map(|x| format!("{x:.P$}")).unwrap_or_default()
}

/// A number through `f`, or `n/a` for `null`.
pub fn or_na(c: &Json, f: impl Fn(f64) -> String) -> String {
    c.as_f64().map_or_else(|| "n/a".into(), f)
}

/// The length of an array cell.
pub fn count(c: &Json) -> String {
    c.as_arr().map_or(0, <[Json]>::len).to_string()
}

/// The numbers of an array cell, each shown by `f`, concatenated.
pub fn each(c: &Json, f: impl Fn(f64) -> String) -> String {
    let values = c.as_arr().unwrap_or_default().iter();
    values.filter_map(Json::as_f64).map(f).collect()
}

/// An integer, or 0 for anything else.
fn uint(c: &Json) -> u64 {
    match c {
        Json::U64(n) => *n,
        _ => 0,
    }
}

/// The field of `row` at a dotted `path` (`elided.fences`), `null`
/// when absent.
pub fn cell<'a>(row: &'a Json, path: &str) -> &'a Json {
    const NULL: &Json = &Json::Null;
    path.split('.')
        .try_fold(row, |c, key| c.get(key))
        .unwrap_or(NULL)
}

/// The integer at a dotted `path` of `row` (0 when absent).
pub fn int(row: &Json, path: &str) -> u64 {
    uint(cell(row, path))
}

/// The sum of an array cell's integers.
pub fn sum(c: &Json) -> String {
    let values = c.as_arr().unwrap_or_default().iter();
    values.map(uint).sum::<u64>().to_string()
}

/// A slice as a JSON array.
pub fn arr<T: Copy + Into<Json>>(values: &[T]) -> Json {
    values
        .iter()
        .map(|v| (*v).into())
        .collect::<Vec<Json>>()
        .into()
}
