//! The repo-root `BENCH_*.json` records: one writer and one checker.
//!
//! A BENCH file is a JSON array with one object per line, every object
//! carrying the same keys in the same order, so regenerated files diff
//! line for line. A binary states its key list once, renders each row
//! as values in that order ([`write()`]), and validates a file by parsing
//! it against the same list ([`run_check`]) before applying its own
//! gates to the typed [`Row`]s.

use flexcl_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One value of a BENCH row.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// A string, written escaped.
    Str(&'a str),
    /// An integer.
    Int(u64),
    /// A float written with the given number of decimals.
    Float(f64, usize),
    /// A boolean.
    Bool(bool),
}

/// Renders one row as a JSON object, zipping `keys` with `values`.
pub fn render_row<const N: usize>(keys: &[&str; N], values: &[Value; N]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in keys.iter().zip(values).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::push_escaped(&mut out, key);
        out.push_str(": ");
        match *value {
            Value::Str(s) => json::push_escaped(&mut out, s),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
            Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// Renders a whole BENCH file: a JSON array with one row per line.
pub fn render<const N: usize>(keys: &[&str; N], rows: &[[Value; N]]) -> String {
    let lines: Vec<String> =
        rows.iter().map(|values| format!("  {}", render_row(keys, values))).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Writes `rows` to `out`, or to `name` at the repository root when no
/// path is given, and prints where it went.
pub fn write<const N: usize>(name: &str, out: Option<&str>, keys: &[&str; N], rows: &[[Value; N]]) {
    let path = out.map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name),
        PathBuf::from,
    );
    std::fs::write(&path, render(keys, rows))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// One parsed BENCH row, known to carry every key of its schema.
#[derive(Debug)]
pub struct Row {
    index: usize,
    fields: BTreeMap<String, Json>,
}

impl Row {
    /// The number under `key`.
    ///
    /// # Errors
    ///
    /// When the value is not a JSON number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.fields
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("row {}: {key} is not a number", self.index))
    }

    /// The string under `key`, or `""` when it holds another type.
    pub fn str(&self, key: &str) -> &str {
        self.fields.get(key).and_then(Json::as_str).unwrap_or("")
    }
}

/// Parses a BENCH file's text: a non-empty array of objects, each
/// carrying every key in `keys`.
///
/// # Errors
///
/// Invalid JSON, a top level that is not an array, an empty array, a
/// row that is not an object, or a row missing a key.
pub fn parse_rows(body: &str, keys: &[&str]) -> Result<Vec<Row>, String> {
    let Json::Arr(items) = json::parse(body).map_err(|e| format!("not valid JSON: {e}"))? else {
        return Err("top level is not an array".to_string());
    };
    if items.is_empty() {
        return Err("no benchmark rows".to_string());
    }
    items
        .into_iter()
        .enumerate()
        .map(|(index, item)| {
            let Json::Obj(fields) = item else {
                return Err(format!("row {index} is not an object"));
            };
            match keys.iter().find(|key| !fields.contains_key(**key)) {
                Some(key) => Err(format!("row {index} is missing key \"{key}\"")),
                None => Ok(Row { index, fields }),
            }
        })
        .collect()
}

/// Runs a binary's `--check PATH`: reads and parses the file against
/// `keys`, applies `gate` to its rows, and exits non-zero with a message
/// on the first problem.
pub fn run_check(path: &str, keys: &[&str], gate: impl FnOnce(&[Row]) -> Result<(), String>) {
    let checked = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|body| parse_rows(&body, keys))
        .and_then(|rows| gate(&rows).map(|()| rows.len()));
    match checked {
        Ok(n) => println!("BENCH check: {path}: {n} rows ok"),
        Err(msg) => {
            eprintln!("BENCH check: {path}: {msg}");
            std::process::exit(1);
        }
    }
}

/// Value of a `--flag VALUE` pair in `args`, if present.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: [&str; 4] = ["name", "count", "ms", "ok"];

    fn file(rows: &[&str]) -> String {
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }

    #[test]
    fn rendered_rows_parse_back_with_every_key() {
        let rows = [
            [Value::Str("a \"q\""), Value::Int(7), Value::Float(1.23456, 3), Value::Bool(true)],
            [Value::Str("b"), Value::Int(0), Value::Float(-0.5, 1), Value::Bool(false)],
        ];
        let body = render(&KEYS, &rows);
        assert_eq!(
            body,
            "[\n  {\"name\": \"a \\\"q\\\"\", \"count\": 7, \"ms\": 1.235, \"ok\": true},\n  \
             {\"name\": \"b\", \"count\": 0, \"ms\": -0.5, \"ok\": false}\n]\n"
        );
        let parsed = parse_rows(&body, &KEYS).expect("rendered file parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].str("name"), "a \"q\"");
        assert_eq!(parsed[0].num("ms"), Ok(1.235));
        assert_eq!(parsed[1].num("count"), Ok(0.0));
    }

    #[test]
    fn a_missing_key_is_rejected() {
        let body = file(&[
            r#"{"name": "a", "count": 1, "ms": 1.0, "ok": true}"#,
            r#"{"name": "b", "count": 1, "ok": true}"#,
        ]);
        assert_eq!(parse_rows(&body, &KEYS).unwrap_err(), "row 1 is missing key \"ms\"");
    }

    #[test]
    fn a_non_numeric_gated_value_is_rejected() {
        let body = file(&[r#"{"name": "a", "count": 1, "ms": "fast", "ok": true}"#]);
        let rows = parse_rows(&body, &KEYS).expect("every key present");
        assert_eq!(rows[0].num("ms").unwrap_err(), "row 0: ms is not a number");
        assert_eq!(rows[0].num("name").unwrap_err(), "row 0: name is not a number");
    }

    #[test]
    fn truncated_or_invalid_json_is_rejected() {
        let whole = file(&[r#"{"name": "a", "count": 1, "ms": 1.0, "ok": true}"#]);
        let truncated = &whole[..whole.len() / 2];
        for body in [truncated, "[{\"name\": NaN}]", "", "{\"name\": \"a\"}", "[1]"] {
            assert!(parse_rows(body, &KEYS).is_err(), "accepted {body:?}");
        }
    }

    #[test]
    fn an_empty_array_is_rejected() {
        assert_eq!(parse_rows("[\n]\n", &KEYS).unwrap_err(), "no benchmark rows");
    }

    #[test]
    fn flag_values_follow_their_flag() {
        let args: Vec<String> = ["--out", "x.json", "--check"].map(String::from).to_vec();
        assert_eq!(flag_value(&args, "--out"), Some("x.json"));
        assert_eq!(flag_value(&args, "--check"), None);
        assert_eq!(flag_value(&args, "--reps"), None);
    }
}
