//! The one report writer behind every `BENCH_*.json`: an ordered
//! [`Json`] value rendered by [`render`], plus [`gate_entries`], the
//! reader `micro --gate` takes a committed `BENCH_micro.json` apart with.
//!
//! The layout is fixed so that both a whole-file `diff` (CI's snapshot
//! gate) and the line-based gate reader work without a JSON dependency:
//! one top-level key per line, and an array of objects one element per
//! line, each element flat on its line.

/// A JSON value whose objects keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// An `f64` printed with the given number of decimals.
    Num(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(Vec<(&'static str, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Self::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Self::Int(v as u64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

/// Renders a report. The top-level object puts each field on its own
/// line, and a field holding an array gets one line per element; every
/// other value — and every array element — is written flat.
pub fn render(doc: &Json) -> String {
    let mut out = String::new();
    write(doc, 0, &mut out);
    out.push('\n');
    out
}

fn write(v: &Json, depth: usize, out: &mut String) {
    // What goes before the first child, between children and after the
    // last: line breaks at the two broken-out levels, flat below them.
    let (first, sep, last) = match (depth, v) {
        (0, Json::Obj(_)) => ("\n  ", ",\n  ", "\n"),
        (1, Json::Arr(_)) => ("\n    ", ",\n    ", "\n  "),
        _ => ("", ", ", ""),
    };
    match v {
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Num(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
        Json::Str(s) => {
            out.push_str(&format!(
                "\"{}\"",
                s.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { first } else { sep });
                write(item, depth + 1, out);
            }
            out.push_str(last);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { first } else { sep });
                out.push_str(&format!("\"{key}\": "));
                write(value, depth + 1, out);
            }
            out.push_str(last);
            out.push('}');
        }
    }
}

/// Extracts `"key": "value"` from one rendered line.
fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key": <number>` from one rendered line.
fn extract_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `(group, name, per_op_ns)` triple of every result line in a
/// rendered `BENCH_micro.json`. Relies only on [`render`]'s
/// one-element-per-line layout; lines without all three keys are skipped.
pub fn gate_entries(text: &str) -> Vec<(String, String, f64)> {
    let entry = |line| {
        Some((
            extract_str(line, "group")?,
            extract_str(line, "name")?,
            extract_num(line, "per_op_ns")?,
        ))
    };
    text.lines().filter_map(entry).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_keys_keep_their_order_one_per_line() {
        let doc = Json::Obj(vec![
            ("zeta", Json::from(1u64)),
            ("alpha", Json::Bool(true)),
            (
                "mid",
                Json::Obj(vec![("b", 2u64.into()), ("a", "x".into())]),
            ),
        ]);
        assert_eq!(
            render(&doc),
            "{\n  \"zeta\": 1,\n  \"alpha\": true,\n  \"mid\": {\"b\": 2, \"a\": \"x\"}\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let doc = Json::Obj(vec![("s", Json::from(r#"a"b\c"#))]);
        assert_eq!(render(&doc), "{\n  \"s\": \"a\\\"b\\\\c\"\n}\n");
    }

    #[test]
    fn an_array_of_flat_objects_takes_one_line_per_element() {
        let row = |n: u64| Json::Obj(vec![("n", n.into()), ("tags", Json::Arr(vec![n.into()]))]);
        let doc = Json::Obj(vec![
            ("grid", Json::Arr(vec![row(1), row(2)])),
            ("after", Json::Bool(false)),
        ]);
        assert_eq!(
            render(&doc),
            "{\n  \"grid\": [\n    {\"n\": 1, \"tags\": [1]},\n    {\"n\": 2, \"tags\": [2]}\n  ],\n  \
             \"after\": false\n}\n"
        );
    }

    #[test]
    fn floats_print_with_the_callers_precision() {
        let doc = Json::Obj(vec![
            ("whole", Json::Num(5.000000000000001, 0)),
            ("one", Json::Num(7202658.94, 1)),
            ("six", Json::Num(0.9394666, 6)),
        ]);
        assert_eq!(
            render(&doc),
            "{\n  \"whole\": 5,\n  \"one\": 7202658.9,\n  \"six\": 0.939467\n}\n"
        );
    }

    #[test]
    fn the_gate_reader_takes_a_rendered_micro_document_apart() {
        let result = |group: &str, name: &str, per_op: f64| {
            Json::Obj(vec![
                ("group", group.into()),
                ("name", name.into()),
                ("mean_ns", Json::Num(per_op * 16.0, 1)),
                ("per_op_ns", Json::Num(per_op, 1)),
            ])
        };
        let doc = Json::Obj(vec![
            ("schema", Json::from("mar-bench-micro/3")),
            ("scene", Json::Obj(vec![("objects", 60u64.into())])),
            (
                "results",
                Json::Arr(vec![
                    result("window_query", "frac05_full", 440.7),
                    result("io", "victim_rank", 151.26),
                ]),
            ),
        ]);
        assert_eq!(
            gate_entries(&render(&doc)),
            vec![
                ("window_query".to_string(), "frac05_full".to_string(), 440.7),
                ("io".to_string(), "victim_rank".to_string(), 151.3),
            ]
        );
    }
}
