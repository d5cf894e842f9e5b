//! The JSON text primitives every hand-written JSON emitter in the
//! workspace shares: one string escaper, one number formatter and one
//! list separator.

/// Appends `s` to `out` as a JSON string literal, quotes included.
/// Quotes, backslashes and control characters are escaped; `\n`, `\r`
/// and `\t` get their short forms, other controls `\u00XX`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal, quotes included (see [`write_escaped`]).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// JSON number: finite floats print via Rust's shortest-round-trip
/// `Display` (deterministic); non-finite values, which JSON cannot carry
/// as numbers, become the quoted strings `"NaN"`, `"inf"` and `"-inf"`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

/// The separator after item `i` of a `len`-item JSON array or object:
/// `","` before every item but the last, `""` after it.
pub fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaper_output_is_pinned() {
        assert_eq!(json_str("\""), r#""\"""#);
        assert_eq!(json_str("\\"), r#""\\""#);
        assert_eq!(json_str("\n"), r#""\n""#);
        assert_eq!(json_str("\t"), r#""\t""#);
        assert_eq!(json_str("\u{1}"), r#""\u0001""#);
        assert_eq!(json_str("a\"b\\c\nd\u{1}é"), r#""a\"b\\c\nd\u0001é""#);
    }

    #[test]
    fn comma_separates_all_but_the_last_item() {
        let items: Vec<&str> = (0..3).map(|i| comma(i, 3)).collect();
        assert_eq!(items, [",", ",", ""]);
        assert_eq!(comma(0, 1), "");
    }

    #[test]
    fn non_finite_numbers_become_strings() {
        assert_eq!(json_num(1.5e-12), "0.0000000000015");
        assert_eq!(json_num(2.0), "2");
        assert_eq!(json_num(f64::NAN), "\"NaN\"");
        assert_eq!(json_num(f64::INFINITY), "\"inf\"");
        assert_eq!(json_num(f64::NEG_INFINITY), "\"-inf\"");
    }
}
