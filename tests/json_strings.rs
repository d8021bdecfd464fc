//! JSON strings parse in time linear in their length, and decode every
//! escape, surrogate pair and multibyte character exactly: a
//! multi-megabyte round trip, a property test over arbitrary strings,
//! and the parser's rejection cases. No timing assertion: a quadratic
//! scan shows up as this file taking minutes instead of milliseconds.

use powerplay_json::Json;
use proptest::prelude::*;

/// One segment of raw JSON string body and the text it decodes to:
/// plain ASCII, raw 2-, 3- and 4-byte UTF-8, every two-character escape,
/// `\u` escapes below and above ASCII, and a surrogate pair.
const SEGMENTS: &[(&str, &str)] = &[
    ("power ", "power "),
    ("µW ≈ 10⁻⁶ W ", "µW ≈ 10⁻⁶ W "),
    ("漢字😀", "漢字😀"),
    (r#"\"quoted\""#, "\"quoted\""),
    (r"back\\slash", "back\\slash"),
    (r"a\/b", "a/b"),
    (r"\b\f\n\r\t", "\u{0008}\u{000C}\n\r\t"),
    (r"\u0041\u00e9\u2248\u0001\u001f", "Aé≈\u{0001}\u{001f}"),
    (r"\ud83d\ude00\uD834\uDD1E", "😀𝄞"),
];

#[test]
fn multi_megabyte_string_round_trips() {
    let mut raw = String::from("{\"text\": \"");
    let mut want = String::new();
    while raw.len() < 4 << 20 {
        for (body, decoded) in SEGMENTS {
            raw.push_str(body);
            want.push_str(decoded);
        }
    }
    raw.push_str("\", \"after\": [1, \"é\"]}");

    let doc = Json::parse(&raw).expect("generated document parses");
    assert_eq!(doc["text"].as_str(), Some(want.as_str()));
    assert_eq!(doc["after"][1].as_str(), Some("é"));

    // Through both writers and back.
    assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
}

/// A char from one of four classes picked by `class`: any scalar value,
/// ASCII including controls, the characters JSON must escape, or
/// astral-plane characters (surrogate pairs in UTF-16).
fn pick_char(class: u32, raw: u32) -> char {
    const ESCAPED: &[char] = &[
        '"', '\\', '/', '\u{0008}', '\u{000C}', '\n', '\r', '\t', '\0',
    ];
    match class {
        0 => char::from_u32(raw % 0x11_0000).unwrap_or('\u{FFFD}'),
        1 => char::from_u32(raw % 0x80).expect("ASCII"),
        2 => ESCAPED[raw as usize % ESCAPED.len()],
        _ => char::from_u32(0x1_0000 + raw % 0x10_0000).expect("astral scalar"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(encode(s)) == s` for any string, as a value and as an
    /// object key, through the compact and the pretty writer.
    #[test]
    fn encoded_strings_parse_back(
        picks in prop::collection::vec((0u32..4, any::<u32>()), 0..64),
    ) {
        let s: String = picks.into_iter().map(|(class, raw)| pick_char(class, raw)).collect();
        let value = Json::from(s.as_str());
        prop_assert_eq!(Json::parse(&value.to_string()).unwrap().as_str(), Some(s.as_str()));
        let object = Json::object([(s.as_str(), value)]);
        prop_assert_eq!(Json::parse(&object.to_pretty()).unwrap(), object);
    }
}

#[test]
fn malformed_documents_are_rejected() {
    for bad in [
        "",
        "{",
        "[",
        "{\"a\"}",
        "{\"a\":}",
        "[1,]",
        "{,}",
        "01",
        "1.",
        "1e",
        "+1",
        "\"\\x\"",
        "tru",
        "[1] garbage",
        "\"unterminated",
        // Unpaired and malformed surrogates.
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\ud83dA""#,
        // A raw control character inside a string.
        "\"a\u{0001}b\"",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn errors_point_at_the_offending_byte() {
    let err = Json::parse("[1, x]").unwrap_err();
    assert_eq!(err.offset(), 4);
    // After a multibyte run, the offset still counts bytes.
    let err = Json::parse("\"漢字\u{0001}\"").unwrap_err();
    assert_eq!(err.offset(), 7);
}
