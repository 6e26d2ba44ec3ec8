//! BENCH pin files: the one schema, reader, writer and checker behind
//! every committed pin (`BENCH_baseline.json`, `BENCH_serve.json`).
//!
//! A pin file is one JSON object: `"schema"` (the [`Schema::id`]), the
//! schema's header columns, then an array of row objects. Each column
//! is declared once, in file order, with the [`Ty`] it is written as
//! and the [`Kind`] that decides how [`Pin::check`] compares it. Files
//! are read through [`parse_value`] and strictly: a missing, extra or
//! mistyped field, another schema id, or two rows with one key is an
//! error, never a skipped row.

use std::collections::BTreeSet;

use crate::json::{parse_value, push_json_str, JsonValue};

/// How [`Pin::check`] compares a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A string identifying the row: measured and pinned rows match
    /// on every key column.
    Key,
    /// Deterministic: must equal the pinned value as written.
    Exact,
    /// A compromise count: may fall, never rise.
    NeverWorse,
    /// Measured on the writing machine: written, never compared.
    Info,
}

/// How a column is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Unsigned integer.
    Uint,
    /// String.
    Str,
    /// Float with this many decimals.
    Fixed(usize),
}

/// One declared column: field name, type, comparison rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column(pub &'static str, pub Ty, pub Kind);

/// The layout of one kind of pin file.
#[derive(Debug)]
pub struct Schema {
    /// Value of the file's `"schema"` field.
    pub id: &'static str,
    /// Header columns, written after `"schema"`.
    pub header: &'static [Column],
    /// Name of the field holding the row array.
    pub rows: &'static str,
    /// Row columns, in file order.
    pub columns: &'static [Column],
}

/// One cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A [`Ty::Uint`] cell.
    Uint(u64),
    /// A [`Ty::Str`] cell.
    Str(String),
    /// A [`Ty::Fixed`] cell.
    Fixed(f64),
}

impl Value {
    /// The cell as written in a `ty` column; `None` if it is not of
    /// that type. Exact comparison is on this text, so a float is
    /// compared at its written precision.
    fn render(&self, ty: Ty) -> Option<String> {
        Some(match (self, ty) {
            (Value::Uint(n), Ty::Uint) => n.to_string(),
            (Value::Str(s), Ty::Str) => {
                let mut out = String::new();
                push_json_str(&mut out, s);
                out
            }
            (Value::Fixed(x), Ty::Fixed(decimals)) => format!("{x:.decimals$}"),
            _ => return None,
        })
    }
}

/// The contents of one pin file: header cells and rows, each in its
/// schema's column order and of its column's type.
#[derive(Debug, Clone)]
pub struct Pin {
    schema: &'static Schema,
    header: Vec<Value>,
    rows: Vec<Vec<Value>>,
}

/// Panic unless `cells` fit `columns`: a bug in the code producing
/// them, not bad input.
fn assert_fits(columns: &[Column], cells: &[Value]) {
    assert_eq!(cells.len(), columns.len(), "pin cell count");
    for (Column(name, ty, _), v) in columns.iter().zip(cells) {
        assert!(
            v.render(*ty).is_some(),
            "pin column `{name}` is {ty:?}, got {v:?}"
        );
    }
}

/// Read `columns` from `obj`, which may hold the fields in `also` and
/// nothing else.
fn read_cells(obj: &JsonValue, columns: &[Column], also: &[&str]) -> Result<Vec<Value>, String> {
    let fields = obj.as_obj().ok_or("not a JSON object")?;
    if let Some(extra) = fields
        .keys()
        .find(|k| !also.contains(&k.as_str()) && !columns.iter().any(|c| c.0 == k.as_str()))
    {
        return Err(format!("unknown field `{extra}`"));
    }
    let read = |&Column(name, ty, _): &Column| {
        let v = match fields.get(name) {
            Some(JsonValue::Num(n)) => Some(Value::Uint(*n)),
            Some(JsonValue::Str(s)) => Some(Value::Str(s.clone())),
            Some(JsonValue::Float(x)) => Some(Value::Fixed(*x)),
            _ => None,
        };
        let v = v.filter(|v| v.render(ty).is_some());
        v.ok_or(format!("missing or mistyped field `{name}` ({ty:?})"))
    };
    columns.iter().map(read).collect()
}

impl Schema {
    /// Parse a pin file's text.
    pub fn parse(&'static self, text: &str) -> Result<Pin, String> {
        let doc = parse_value(text).ok_or("not valid JSON")?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(id) if id == self.id => {}
            other => return Err(format!("schema is {other:?}, expected {:?}", self.id)),
        }
        let mut pin = Pin::new(self, read_cells(&doc, self.header, &["schema", self.rows])?);
        let items = doc.get(self.rows).and_then(JsonValue::as_arr);
        let items = items.ok_or(format!("missing array `{}`", self.rows))?;
        let mut keys = BTreeSet::new();
        for (i, item) in items.iter().enumerate() {
            let row = read_cells(item, self.columns, &[]).map_err(|e| format!("row {i}: {e}"))?;
            if !keys.insert(self.key(&row).join("/")) {
                return Err(format!(
                    "row {i}: duplicate row {}",
                    self.key(&row).join("/")
                ));
            }
            pin.rows.push(row);
        }
        Ok(pin)
    }

    /// Read and parse the pin file at `path`.
    pub fn read(&'static self, path: &str) -> Result<Pin, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        self.parse(&text).map_err(|e| format!("`{path}`: {e}"))
    }

    /// A row's key cells, e.g. `["smoke", "none"]`.
    fn key<'a>(&self, row: &'a [Value]) -> Vec<&'a str> {
        let cells = self.columns.iter().zip(row);
        cells
            .filter_map(|(c, v)| match (c.2, v) {
                (Kind::Key, Value::Str(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl Pin {
    /// An empty pin of `schema` with these header cells.
    pub fn new(schema: &'static Schema, header: Vec<Value>) -> Pin {
        assert_fits(schema.header, &header);
        let rows = Vec::new();
        Pin {
            schema,
            header,
            rows,
        }
    }

    /// Append a row, its cells in column order.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_fits(self.schema.columns, &row);
        self.rows.push(row);
    }

    /// The rows, their cells in column order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Cell `name` of row `row`, to change it in place to another value
    /// of its type. Panics on an undeclared column.
    pub fn get_mut(&mut self, row: usize, name: &str) -> &mut Value {
        let col = self.schema.columns.iter().position(|c| c.0 == name);
        &mut self.rows[row][col.unwrap_or_else(|| panic!("no pin column `{name}`"))]
    }

    fn find(&self, key: &[&str]) -> Option<&[Value]> {
        let mut rows = self.rows.iter();
        rows.find(|r| self.schema.key(r) == key).map(Vec::as_slice)
    }

    /// The file text: one field per line, in declared order.
    pub fn render(&self) -> String {
        let field = |s: &mut String, indent: &str, Column(name, ty, _): &Column, v: &Value| {
            s.push_str(indent);
            push_json_str(s, name);
            s.push_str(": ");
            s.push_str(&v.render(*ty).expect("cells fit their columns"));
        };
        let mut s = String::from("{\n  \"schema\": ");
        push_json_str(&mut s, self.schema.id);
        for (c, v) in self.schema.header.iter().zip(&self.header) {
            field(&mut s, ",\n  ", c, v);
        }
        s.push_str(",\n  ");
        push_json_str(&mut s, self.schema.rows);
        s.push_str(": [");
        for (i, row) in self.rows.iter().enumerate() {
            s.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            for (j, (c, v)) in self.schema.columns.iter().zip(row).enumerate() {
                field(&mut s, if j == 0 { "\n      " } else { ",\n      " }, c, v);
            }
            s.push_str("\n    }");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Compare this measured pin against `pinned`, listing every
    /// problem, one per line:
    /// - a header or [`Kind::Exact`] cell that differs;
    /// - a [`Kind::NeverWorse`] cell that rose (a compromise-rate
    ///   regression);
    /// - a measured row without a pinned row;
    /// - a pinned row of the measured plan or workload set (its key is
    ///   `in_scope`) that was not measured.
    ///
    /// Returns the number of rows compared.
    pub fn check(&self, pinned: &Pin, in_scope: impl Fn(&[&str]) -> bool) -> Result<usize, String> {
        assert_eq!(self.schema.id, pinned.schema.id, "pins of one schema");
        let mut problems = compare(self.schema.header, &self.header, &pinned.header, "header");
        for row in &self.rows {
            let key = self.schema.key(row);
            match pinned.find(&key) {
                Some(then) => {
                    problems.extend(compare(self.schema.columns, row, then, &key.join("/")))
                }
                None => problems.push(format!("{}: no pinned row", key.join("/"))),
            }
        }
        for row in &pinned.rows {
            let key = self.schema.key(row);
            if in_scope(&key) && self.find(&key).is_none() {
                problems.push(format!("{}: pinned row was not measured", key.join("/")));
            }
        }
        match problems.is_empty() {
            true => Ok(self.rows.len()),
            false => Err(problems.join("\n")),
        }
    }

    /// Write this pin into the file at `path`: the file's rows that are
    /// `in_scope` or measured here are replaced, in the place of the
    /// first of them, and its other rows are kept. A missing file is
    /// created. An existing file that does not parse, or whose header
    /// differs, is an error and is left as it is. Returns the number
    /// of rows written.
    pub fn write_merged(
        &self,
        path: &str,
        in_scope: impl Fn(&[&str]) -> bool,
    ) -> Result<usize, String> {
        let mut merged = self.clone();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let existing = self.schema.parse(&text).map_err(|e| {
                    format!(
                        "`{path}` is not a valid {} pin, not overwriting it: {e}",
                        self.schema.id
                    )
                })?;
                let problems =
                    compare(self.schema.header, &self.header, &existing.header, "header");
                if !problems.is_empty() {
                    let problems = problems.join("; ");
                    return Err(format!(
                        "`{path}`: {problems}; remove it to re-pin it whole"
                    ));
                }
                let (mut kept, mut at) = (Vec::new(), None);
                for row in existing.rows {
                    let key = self.schema.key(&row);
                    if in_scope(&key) || self.find(&key).is_some() {
                        at.get_or_insert(kept.len());
                    } else {
                        kept.push(row);
                    }
                }
                let at = at.unwrap_or(kept.len());
                kept.splice(at..at, merged.rows);
                merged.rows = kept;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot read `{path}`: {e}")),
        }
        std::fs::write(path, merged.render()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        Ok(merged.rows.len())
    }
}

/// The problems in measured cells `now` against pinned cells `then`.
fn compare(columns: &[Column], now: &[Value], then: &[Value], row: &str) -> Vec<String> {
    let cells = columns.iter().zip(now.iter().zip(then));
    cells
        .filter_map(
            |(&Column(name, ty, kind), (now, then))| match (kind, now, then) {
                (Kind::Exact, _, _) if now.render(ty) != then.render(ty) => {
                    let (now, then) = (now.render(ty), then.render(ty));
                    let (now, then) = (now.unwrap_or_default(), then.unwrap_or_default());
                    Some(format!("{row}: {name} changed {then} -> {now}"))
                }
                (Kind::NeverWorse, Value::Uint(n), Value::Uint(t)) if n > t => Some(format!(
                    "{row}: compromise-rate regression: {name} {n} vs {t} pinned"
                )),
                _ => None,
            },
        )
        .collect()
}
