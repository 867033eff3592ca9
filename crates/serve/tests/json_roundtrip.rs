//! Property suite for the shared JSON module: `parse` is the exact
//! inverse of `pretty` over every value the printer can emit, and a
//! malformed document always yields a typed [`JsonError`] whose offset
//! points into the input — never a panic.  A string as long as the
//! largest request body parses in linear time.

use proptest::prelude::*;
use proptest::strategy::fn_strategy;
use proptest::test_runner::TestRng;
use psb_serve::json::{Json, JsonErrorKind};

/// Characters that stress the escaper: quotes, backslashes, control
/// bytes, multibyte UTF-8, and the `\uXXXX`-escape range.
const PALETTE: &[char] = &[
    'a',
    'z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1f}',
    'é',
    '→',
    '日',
    '\u{1F600}',
    '\u{7f}',
    '{',
    '}',
    '[',
    ']',
    ':',
    ',',
];

fn gen_string(rng: &mut TestRng) -> String {
    let len = (rng.next_u64() % 12) as usize;
    (0..len)
        .map(|_| PALETTE[(rng.next_u64() as usize) % PALETTE.len()])
        .collect()
}

fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    // Leaves only at the bottom; containers shrink as depth runs out.
    let choices = if depth == 0 { 5 } else { 7 };
    match rng.next_u64() % choices {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
        2 => Json::Int(rng.next_u64() as i64),
        3 => {
            // Finite floats only: the printer maps NaN/inf to null (JSON
            // has no such numbers), which is covered separately below.
            let f = f64::from_bits(rng.next_u64());
            Json::Float(if f.is_finite() {
                f
            } else {
                (rng.next_u64() % 1_000_000) as f64 / 997.0
            })
        }
        4 => Json::Str(gen_string(rng)),
        5 => {
            let n = (rng.next_u64() % 4) as usize;
            Json::Array((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = (rng.next_u64() % 4) as usize;
            Json::Object(
                (0..n)
                    .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_inverts_pretty(v in fn_strategy(|rng: &mut TestRng| gen_json(rng, 3))) {
        let text = v.pretty();
        let back = Json::parse(&text)
            .unwrap_or_else(|e| panic!("printer emitted unparsable JSON: {e}\n{text}"));
        prop_assert_eq!(back, v);
    }

    #[test]
    fn proper_prefixes_of_container_docs_are_typed_errors(
        v in fn_strategy(|rng: &mut TestRng| gen_json(rng, 2)),
        cut in fn_strategy(|rng: &mut TestRng| rng.next_u64()),
    ) {
        // A strict parser can never accept a proper prefix of a
        // container document: the closing bracket is the final byte.
        if !matches!(v, Json::Array(_) | Json::Object(_)) {
            return Err(TestCaseError::reject("scalar doc"));
        }
        let text = v.pretty();
        // Cut on a char boundary strictly inside the document.
        let mut at = 1 + (cut as usize) % (text.len() - 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        if at == 0 {
            return Err(TestCaseError::reject("empty prefix"));
        }
        let err = Json::parse(&text[..at])
            .expect_err("a proper prefix must not parse");
        prop_assert!(err.offset <= at, "offset {} beyond input {}", err.offset, at);
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Totality: junk gives Err, never a panic.  (Lossy conversion
        // keeps the input arbitrary while staying &str-typed.)
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
    }

    #[test]
    fn error_offsets_stay_in_bounds_after_truncation_or_corruption(
        v in fn_strategy(|rng: &mut TestRng| gen_json(rng, 2)),
        flip in fn_strategy(|rng: &mut TestRng| rng.next_u64()),
    ) {
        let mut bytes = v.pretty().into_bytes();
        if bytes.is_empty() {
            return Err(TestCaseError::reject("empty doc"));
        }
        let at = (flip as usize) % bytes.len();
        bytes[at] = bytes[at].wrapping_add(1 + (flip >> 32) as u8 % 254);
        if let Ok(text) = std::str::from_utf8(&bytes) {
            if let Err(e) = Json::parse(text) {
                prop_assert!(e.offset <= text.len());
            }
        }
    }
}

#[test]
fn nonfinite_floats_print_as_null() {
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Float(f).pretty(), "null");
        assert_eq!(Json::parse(&Json::Float(f).pretty()), Ok(Json::Null));
    }
}

#[test]
fn typed_errors_carry_the_right_kind_and_offset() {
    let cases: &[(&str, JsonErrorKind)] = &[
        ("", JsonErrorKind::UnexpectedEnd),
        ("{\"a\": 1", JsonErrorKind::ExpectedEither(',', '}')),
        ("[1, 2", JsonErrorKind::ExpectedEither(',', ']')),
        ("{\"a\" 1}", JsonErrorKind::Expected(':')),
        ("1 2", JsonErrorKind::TrailingData),
        ("\"abc", JsonErrorKind::UnterminatedString),
        ("\"\\q\"", JsonErrorKind::BadEscape),
        ("\"\\u12\"", JsonErrorKind::TruncatedEscape),
        ("0x10", JsonErrorKind::TrailingData),
        ("nul", JsonErrorKind::BadNumber),
    ];
    for (text, kind) in cases {
        let err = Json::parse(text).expect_err(text);
        assert_eq!(
            &err.kind, kind,
            "{text}: got {:?} at {}",
            err.kind, err.offset
        );
        assert!(err.offset <= text.len(), "{text}");
    }
}

#[test]
fn a_string_as_long_as_the_largest_body_parses_in_linear_time() {
    // A request body may carry one string of up to `MAX_BODY_BYTES`
    // characters.  Parsing must stay linear in its length: a parser that
    // re-validated the rest of the input per character held a worker for
    // tens of seconds on one such body.
    use psb_serve::http::MAX_BODY_BYTES;
    let expected: String = (0..MAX_BODY_BYTES)
        .map(|i| match i % 1000 {
            999 => '"',
            n if n % 3 == 0 => 'é',
            _ => 'a',
        })
        .collect();
    let text = Json::Str(expected.clone()).pretty();
    let started = std::time::Instant::now();
    let parsed = Json::parse(&text).expect("a long string parses");
    let elapsed = started.elapsed();
    assert_eq!(parsed, Json::Str(expected));
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "parsing a {}-byte string took {elapsed:?}",
        text.len()
    );
}
