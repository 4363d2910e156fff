//! A minimal TOML-subset reader for experiment spec files.
//!
//! The workspace builds offline against vendored dependency stubs, so a real
//! TOML crate is not available; this module implements the small,
//! line-oriented subset the spec format needs — in the same spirit as the
//! hand-rolled TSV trace codec in `sizey-provenance`:
//!
//! * comments (`#`, also trailing),
//! * `key = value` pairs with bare keys,
//! * values: basic strings (`"..."` with `\\`, `\"`, `\n`, `\t` escapes),
//!   integers, floats (including `inf`/`-inf`), booleans, and single-line
//!   arrays of those,
//! * `[table]` headers and `[[array-of-tables]]` headers (dotted names are
//!   treated as plain, opaque names).
//!
//! Not supported (rejected with a line-numbered error rather than silently
//! misparsed): multi-line strings and arrays, literal/raw strings, inline
//! tables, dates, dotted *keys*, and duplicate keys within a table.
//!
//! Numbers written by the spec serialisers use Rust's shortest-round-trip
//! `f64` formatting, so `parse` → serialise → `parse` is lossless.

// Spec files are user input: the parser must return a line-numbered error,
// never panic, on any bytes. The marker opts the module into the
// no-panic-hot-path lint rule.
#![doc = "lint:hot-path"]

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            TomlValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float; integers coerce.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            TomlValue::Float(f) => Some(*f),
            TomlValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TomlValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A short description of the value's type for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
        }
    }
}

/// One table: ordered `key = value` entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlTable {
    /// The entries in file order.
    pub entries: Vec<(String, TomlValue)>,
    /// 1-based line number of the table header (0 for the root table) —
    /// carried for error messages.
    pub line: usize,
}

impl TomlTable {
    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All keys in file order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// A parsed document: the root table, named tables, and arrays of tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlDocument {
    /// Key/value pairs before the first table header.
    pub root: TomlTable,
    /// `[name]` tables in file order.
    pub tables: Vec<(String, TomlTable)>,
    /// `[[name]]` tables in file order (one entry per occurrence).
    pub array_tables: Vec<(String, TomlTable)>,
}

impl TomlDocument {
    /// The `[name]` table, if present.
    pub fn table(&self, name: &str) -> Option<&TomlTable> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// All `[[name]]` tables in file order.
    pub fn array_of(&self, name: &str) -> Vec<&TomlTable> {
        self.array_tables
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Parses a document from text.
    pub fn parse(text: &str) -> Result<Self, TomlError> {
        // Where the next `key = value` goes: the root table, or the header
        // pushed last onto `tables` or `array_tables`.
        enum Target {
            Root,
            Table,
            ArrayTable,
        }
        let mut doc = TomlDocument::default();
        let mut target = Target::Root;
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[") {
                let name = name.strip_suffix("]]").ok_or_else(|| TomlError {
                    line: line_no,
                    message: format!("malformed array-of-tables header {line:?}"),
                })?;
                doc.array_tables.push((
                    validate_name(name, line_no)?,
                    TomlTable {
                        entries: Vec::new(),
                        line: line_no,
                    },
                ));
                target = Target::ArrayTable;
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| TomlError {
                    line: line_no,
                    message: format!("malformed table header {line:?}"),
                })?;
                let name = validate_name(name, line_no)?;
                if doc.table(&name).is_some() {
                    return Err(TomlError {
                        line: line_no,
                        message: format!("duplicate table [{name}]"),
                    });
                }
                doc.tables.push((
                    name,
                    TomlTable {
                        entries: Vec::new(),
                        line: line_no,
                    },
                ));
                target = Target::Table;
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| TomlError {
                line: line_no,
                message: format!("expected \"key = value\", found {line:?}"),
            })?;
            let key = key.trim();
            if key.is_empty() || !is_bare_key(key) {
                return Err(TomlError {
                    line: line_no,
                    message: format!("invalid key {key:?} (bare keys only)"),
                });
            }
            let value = parse_value(value.trim(), line_no)?;
            let table = match target {
                Target::Root => Some(&mut doc.root),
                Target::Table => doc.tables.last_mut().map(|(_, t)| t),
                Target::ArrayTable => doc.array_tables.last_mut().map(|(_, t)| t),
            }
            .ok_or_else(|| TomlError {
                line: line_no,
                message: "key outside any table".to_string(),
            })?;
            if table.get(key).is_some() {
                return Err(TomlError {
                    line: line_no,
                    message: format!("duplicate key {key:?}"),
                });
            }
            table.entries.push((key.to_string(), value));
        }
        Ok(doc)
    }
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TOML parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TomlError {}

fn is_bare_key(key: &str) -> bool {
    key.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn validate_name(name: &str, line: usize) -> Result<String, TomlError> {
    let name = name.trim();
    let valid = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.');
    if valid {
        Ok(name.to_string())
    } else {
        Err(TomlError {
            line,
            message: format!("invalid table name {name:?}"),
        })
    }
}

/// Strips a trailing `#` comment, respecting `#` inside basic strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return line.get(..i).unwrap_or(line),
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(text: &str, line: usize) -> Result<TomlValue, TomlError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(TomlError {
            line,
            message: "missing value".to_string(),
        });
    }
    if text.starts_with('"') {
        return parse_string(text, line).map(TomlValue::Str);
    }
    if text.starts_with('[') {
        let inner = text
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or_else(|| TomlError {
                line,
                message: format!("malformed array {text:?} (arrays must be single-line)"),
            })?;
        let mut items = Vec::new();
        for part in split_array_items(inner, line)? {
            items.push(parse_value(&part, line)?);
        }
        return Ok(TomlValue::Array(items));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        "inf" | "+inf" => return Ok(TomlValue::Float(f64::INFINITY)),
        "-inf" => return Ok(TomlValue::Float(f64::NEG_INFINITY)),
        _ => {}
    }
    // TOML only allows `_` *between* digits (`1_000`); `_5`, `5_` and `5__0`
    // are malformed rather than silently normalised.
    if text.contains('_') {
        let bytes = text.as_bytes();
        let digit_at = |j: Option<usize>| {
            j.and_then(|j| bytes.get(j))
                .is_some_and(|b| b.is_ascii_digit())
        };
        let well_placed = text
            .char_indices()
            .all(|(i, c)| c != '_' || (digit_at(i.checked_sub(1)) && digit_at(i.checked_add(1))));
        if !well_placed {
            return Err(TomlError {
                line,
                message: format!(
                    "unparsable value {text:?} (underscores are only allowed between digits)"
                ),
            });
        }
    }
    let plain = text.replace('_', "");
    if let Ok(i) = plain.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    if let Ok(f) = plain.parse::<f64>() {
        if f.is_nan() {
            return Err(TomlError {
                line,
                message: "nan is not a valid spec value".to_string(),
            });
        }
        return Ok(TomlValue::Float(f));
    }
    Err(TomlError {
        line,
        message: format!("unparsable value {text:?}"),
    })
}

fn parse_string(text: &str, line: usize) -> Result<String, TomlError> {
    let inner = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .filter(|_| text.len() >= 2)
        .ok_or_else(|| TomlError {
            line,
            message: format!("malformed string {text:?}"),
        })?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return Err(TomlError {
                line,
                message: format!("unescaped quote inside string {text:?}"),
            });
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => {
                return Err(TomlError {
                    line,
                    message: format!("unsupported escape \\{other:?}"),
                })
            }
        }
    }
    Ok(out)
}

/// Splits the inside of a single-line array at top-level commas (commas
/// inside strings or nested arrays do not split).
fn split_array_items(inner: &str, line: usize) -> Result<Vec<String>, TomlError> {
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut current = String::new();
    for c in inner.chars() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                current.push(c);
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => {
                depth = depth.checked_sub(1).ok_or_else(|| TomlError {
                    line,
                    message: "unbalanced ']' inside array".to_string(),
                })?
            }
            ',' if !in_string && depth == 0 => {
                let item = std::mem::take(&mut current);
                let item = item.trim().to_string();
                // `[1,,2]` and `[,]` are malformed; only a *trailing* comma
                // (handled after the loop) may leave an empty item.
                if item.is_empty() {
                    return Err(TomlError {
                        line,
                        message: "empty array item (stray comma)".to_string(),
                    });
                }
                items.push(item);
                escaped = false;
                continue;
            }
            _ => {}
        }
        escaped = false;
        current.push(c);
    }
    if in_string || depth != 0 {
        return Err(TomlError {
            line,
            message: "unterminated string or bracket inside array".to_string(),
        });
    }
    let last = current.trim();
    if !last.is_empty() {
        items.push(last.to_string());
    }
    Ok(items)
}

/// Serialisation helpers used by the spec writers.
pub mod write {
    /// Formats a float so it parses back bit-identically *and* reads as a
    /// float (an explicit `.0` is appended to integral values).
    pub fn float(value: f64) -> String {
        if value.is_infinite() {
            return if value > 0.0 { "inf" } else { "-inf" }.to_string();
        }
        let s = format!("{value}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    }

    /// Formats a basic string with the escapes the parser understands.
    pub fn string(value: &str) -> String {
        let mut out = String::with_capacity(value.len() + 2);
        out.push('"');
        for c in value.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_root_tables_and_arrays_of_tables() {
        let doc = TomlDocument::parse(
            r#"
# experiment
name = "smoke" # trailing comment
scale = 0.02
seeds = [3, 4]
flags = [true, false]

[sim]
max_attempts = 12
node_memory_bytes = 128000000000.0

[[method]]
kind = "sizey"
alpha = 0.0

[[method]]
kind = "preset"
"#,
        )
        .unwrap();
        assert_eq!(doc.root.get("name").unwrap().as_str(), Some("smoke"));
        assert_eq!(doc.root.get("scale").unwrap().as_float(), Some(0.02));
        let seeds = doc.root.get("seeds").unwrap().as_array().unwrap();
        assert_eq!(
            seeds.iter().filter_map(|v| v.as_int()).collect::<Vec<_>>(),
            [3, 4]
        );
        assert_eq!(
            doc.table("sim")
                .unwrap()
                .get("max_attempts")
                .unwrap()
                .as_int(),
            Some(12)
        );
        let methods = doc.array_of("method");
        assert_eq!(methods.len(), 2);
        assert_eq!(methods[0].get("kind").unwrap().as_str(), Some("sizey"));
        assert_eq!(methods[1].get("kind").unwrap().as_str(), Some("preset"));
    }

    #[test]
    fn integers_coerce_to_floats_but_not_vice_versa() {
        let doc = TomlDocument::parse("a = 5\nb = 1.5\n").unwrap();
        assert_eq!(doc.root.get("a").unwrap().as_float(), Some(5.0));
        assert_eq!(doc.root.get("a").unwrap().as_int(), Some(5));
        assert_eq!(doc.root.get("b").unwrap().as_int(), None);
    }

    #[test]
    fn strings_support_escapes_and_embedded_hashes() {
        let doc = TomlDocument::parse(r#"s = "a # not a comment \"q\" \n""#).unwrap();
        assert_eq!(
            doc.root.get("s").unwrap().as_str(),
            Some("a # not a comment \"q\" \n")
        );
    }

    #[test]
    fn float_round_trip_is_lossless() {
        for value in [
            0.0,
            0.02,
            1.0 / 3.0,
            128e9,
            1.15,
            f64::INFINITY,
            2.0_f64.powi(60),
        ] {
            let text = format!("v = {}", write::float(value));
            let doc = TomlDocument::parse(&text).unwrap();
            assert_eq!(doc.root.get("v").unwrap().as_float(), Some(value), "{text}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = TomlDocument::parse("ok = 1\nbroken\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = TomlDocument::parse("a = 1\na = 2\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
        let err = TomlDocument::parse("[t\n").unwrap_err();
        assert!(err.message.contains("malformed table header"));
        assert!(TomlDocument::parse("v = nan\n").is_err());
        // Stray commas are malformed, but a single trailing comma is fine.
        assert!(TomlDocument::parse("v = [1,,2]\n").is_err());
        assert!(TomlDocument::parse("v = [,]\n").is_err());
        let trailing = TomlDocument::parse("v = [1, 2,]\n").unwrap();
        assert_eq!(trailing.root.get("v").unwrap().as_array().unwrap().len(), 2);
        // Underscores only between digits (the TOML rule).
        assert_eq!(
            TomlDocument::parse("v = 1_000\n")
                .unwrap()
                .root
                .get("v")
                .unwrap()
                .as_int(),
            Some(1000)
        );
        assert!(TomlDocument::parse("v = _5\n").is_err());
        assert!(TomlDocument::parse("v = 5_\n").is_err());
        assert!(TomlDocument::parse("v = 5__0\n").is_err());
        assert!(
            TomlDocument::parse("v = [1,\n2]\n").is_err(),
            "multi-line arrays are rejected"
        );
    }

    #[test]
    fn nested_arrays_and_inf_parse() {
        let doc = TomlDocument::parse("v = [[1, 2], [3]]\ninf_v = inf\nneg = -inf\n").unwrap();
        let outer = doc.root.get("v").unwrap().as_array().unwrap();
        assert_eq!(outer.len(), 2);
        assert_eq!(outer[0].as_array().unwrap().len(), 2);
        assert_eq!(
            doc.root.get("inf_v").unwrap().as_float(),
            Some(f64::INFINITY)
        );
        assert_eq!(
            doc.root.get("neg").unwrap().as_float(),
            Some(f64::NEG_INFINITY)
        );
    }
}
