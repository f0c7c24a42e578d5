//! Property: the frontend (lexer → parser → sema) is total. Whatever bytes
//! arrive — binary garbage, token soup, or truncated kernels — it must
//! return `Ok` or a typed `FrontendError`, never panic and never hang.

use proptest::prelude::*;

/// Arbitrary bytes, lossily decoded: exercises the lexer's handling of
/// control characters, invalid UTF-8 replacement chars, and unterminated
/// constructs.
fn arb_bytes() -> BoxedStrategy<String> {
    proptest::collection::vec(any::<u8>(), 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Token soup drawn from the language's own vocabulary: far more likely to
/// get past the lexer and deep into the parser/sema than raw bytes.
fn arb_token_soup() -> BoxedStrategy<String> {
    let vocab: Vec<&'static str> = vec![
        "__kernel",
        "void",
        "k",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        ",",
        "__global",
        "__local",
        "float",
        "int",
        "*",
        "a",
        "b",
        "i",
        "get_global_id",
        "get_local_id",
        "barrier",
        "CLK_LOCAL_MEM_FENCE",
        "for",
        "if",
        "else",
        "return",
        "=",
        "+",
        "-",
        "*",
        "/",
        "%",
        "<",
        ">",
        "==",
        "!=",
        "&&",
        "||",
        "0",
        "1",
        "42",
        "3.5f",
        "?",
        ":",
        "1e999",
        "0x",
        "'",
        "\"",
        "\\",
        "//",
        "/*",
        "*/",
    ];
    proptest::collection::vec(proptest::sample::select(vocab), 0..64)
        .prop_map(|toks| toks.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic(src in arb_bytes()) {
        let _ = flexcl_frontend::parse_and_check(&src);
    }

    #[test]
    fn token_soup_never_panics(soup in arb_token_soup()) {
        let _ = flexcl_frontend::parse_and_check(&soup);
        // Also wrapped in a kernel shell, so fragments reach statement
        // and expression parsing instead of dying at the signature.
        let wrapped = format!("__kernel void k(__global float* a) {{ {soup} }}");
        let _ = flexcl_frontend::parse_and_check(&wrapped);
    }
}
