//! The one JSON writer of the workspace's tools: a string escaper and an
//! array renderer. Every JSON the crates print (the registry export,
//! `edp_top --json`, `edp_lint --json` and `--sarif`) is built from
//! these two and `format!` for the objects, so there is one spelling of
//! every escaped character and no caller places separators by hand.

use std::fmt::Write as _;

/// `s` as a JSON string literal: quoted, `"` and `\` backslash-escaped,
/// and every control character spelled `\u00xx`.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The already-rendered JSON values `items` as one array: `[a,b,c]`.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}
