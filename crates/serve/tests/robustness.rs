//! Robustness of the daemon's external input parsers: arbitrary, truncated
//! and garbled bytes fed to `http::read_message` and to
//! `Scenario::from_json` come back as `Ok` or `Err`, never as a panic.

use lnuca_serve::http;
use lnuca_sim::scenario::{self, Scenario};
use proptest::prelude::*;

/// A canonical scenario document, the starting point of the mutations.
fn scenario_document() -> String {
    scenario::builtin("cmp-sharing")
        .expect("builtin scenario")
        .to_json()
}

/// A well-formed job submission carrying [`scenario_document`].
fn request_bytes() -> Vec<u8> {
    let body = scenario_document();
    let mut bytes = format!(
        "POST /v1/jobs?wait=1 HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Truncates `base` at `cut` (modulo its length + 1), then overwrites one
/// byte per edit (positions modulo the truncated length).
fn mutate(base: &[u8], cut: usize, edits: &[(usize, u8)]) -> Vec<u8> {
    let mut bytes = base[..cut % (base.len() + 1)].to_vec();
    for &(at, byte) in edits {
        if !bytes.is_empty() {
            let i = at % bytes.len();
            bytes[i] = byte;
        }
    }
    bytes
}

/// Feeds `bytes` to the HTTP reader under both start-line grammars and to
/// the scenario parser, both raw and as the body of the request the reader
/// accepted, the way the daemon's router passes it on.
fn parse_all(bytes: &[u8]) {
    if let Ok(request) = http::read_message(&mut &bytes[..], false) {
        let _ = Scenario::from_json(&request.text());
    }
    let _ = http::read_message(&mut &bytes[..], true);
    let _ = Scenario::from_json(&String::from_utf8_lossy(bytes));
}

#[test]
fn the_unmutated_inputs_parse() {
    let request = http::read_message(&mut &request_bytes()[..], false).expect("request parses");
    assert_eq!(request.text(), scenario_document());
    Scenario::from_json(&request.text()).expect("scenario parses");
}

#[test]
fn deeply_nested_documents_are_rejected_without_overflowing_the_stack() {
    for open in ["[", "{\"a\":"] {
        let err = Scenario::from_json(&open.repeat(200_000)).expect_err("must reject");
        assert!(err.to_string().contains("nesting"), "{err}");
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..2048)) {
        parse_all(&bytes);
    }

    #[test]
    fn arbitrary_json_like_text_never_panics(
        bytes in collection::vec(
            prop::sample::select(b"{}[]\":,.-+eE0123456789 \\\r\nabcdefilnorstu".to_vec()),
            0..512,
        ),
    ) {
        parse_all(&bytes);
    }

    #[test]
    fn truncated_or_garbled_requests_never_panic(
        cut in 0usize..1_000_000,
        edits in collection::vec((0usize..1_000_000, any::<u8>()), 0..6),
    ) {
        parse_all(&mutate(&request_bytes(), cut, &edits));
    }

    #[test]
    fn truncated_or_garbled_scenarios_never_panic(
        cut in 0usize..1_000_000,
        edits in collection::vec((0usize..1_000_000, any::<u8>()), 0..6),
    ) {
        let bytes = mutate(scenario_document().as_bytes(), cut, &edits);
        let _ = Scenario::from_json(&String::from_utf8_lossy(&bytes));
    }
}
